"""The benchmark's traced pass and the periodic read it wraps.

``perfbench/layertrace.py`` swaps each function it names in ``TARGETS``
for a timed wrapper; a target that is gone leaves its per-layer metrics
out of the benchmark's result.  The read primitive
``grid.neighbour_apply`` (with its wrap patch ``grid.fill_ghosts``) is
what every traced kernel reads neighbours through.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from fvadvect import driver, grid, problems, velocity
from fvadvect.grid import Grid, neighbour_apply
from fvadvect.schemes import face_flow, face_interpolate, scheme_coefficients
from buffers import nan_buffers

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_a_package_function():
    layertrace = load_layertrace()
    for module, func, _ in layertrace.TARGETS:
        fn = getattr(importlib.import_module(f"fvadvect.{module}"), func, None)
        assert callable(fn), f"fvadvect.{module}.{func}"


def test_limited_solve_under_tracer_misses_nothing():
    layertrace = load_layertrace()
    g = Grid(2, 32)
    v = velocity.make_velocity("rotation", g)
    q0 = problems.initial_condition(problems.standard_problem("slotted", "rotation", g), g)
    t_final = 4 * 0.8 * g.h / velocity.max_speed(v, g)
    untraced = driver.integrate(q0, v, g, "u9", 0.8, t_final).field.copy()
    with layertrace.Tracer() as tracer:
        result = driver.integrate(q0, v, g, "u9", 0.8, t_final)
    assert result.steps == 4
    assert result.field.tobytes() == untraced.tobytes()
    assert tracer.missing == set()
    assert tracer.missing_metrics() == []
    # fct_advance still returns (q, etas): every face of every step counted
    assert tracer.eta_faces == 4 * 2 * g.n ** 2
    summary = tracer.summary(steps=4, cells=g.n ** 2)
    assert summary["grid.fill_ghosts.calls"] > 0
    assert summary["fct.fct_advance.calls"] == 1.0
    assert summary["numpy.roll.calls"] == 0.0


N = 16


def reference_faces(q, scheme, d, u_face):
    """Both orientations from rolled copies, chosen per face."""
    def stencil(mirrored):
        out = np.zeros(q.shape)
        for s, a in zip(scheme.offsets, scheme.coefficients):
            out += a * np.roll(q, s if mirrored else 1 - s, axis=d)
        return out

    return np.where(u_face >= 0.0, stencil(False), stencil(True))


def layout_velocities(g, layout):
    """Face velocities whose orientation blocks take the given layout on
    axis ``d`` (returned with it)."""
    rng = np.random.default_rng(11)
    across = np.arange(g.n) - g.n // 2 + 0.5  # no zeros, sign flips once
    if layout == "uniform":
        return (-np.ones(g.shape), np.ones(g.shape)), 0
    if layout == "row-block":  # y faces under rotation: sign varies with x
        return (np.ones(g.shape), np.broadcast_to(across[:, None], g.shape).copy()), 1
    if layout == "column-block":  # x faces under rotation: sign varies with y
        return (np.broadcast_to(across[None, :], g.shape).copy(), np.ones(g.shape)), 0
    u = rng.uniform(-1.0, 1.0, g.shape)
    u[rng.random(g.shape) < 0.1] = 0.0
    return (u, u.copy()), 0


@pytest.mark.parametrize("layout", ("uniform", "row-block", "column-block", "per-face"))
def test_u9_faces_match_roll_in_every_layout(layout):
    g = Grid(2, N)
    u_faces, d = layout_velocities(g, layout)
    flow = face_flow(u_faces, g, 2)
    blocks = flow.orientations[d]
    assert (blocks and len(blocks)) == {"uniform": 1, "row-block": 2, "column-block": 2,
                                        "per-face": None}[layout]
    q = np.random.default_rng(12).standard_normal(g.shape)
    s = scheme_coefficients("u9")
    got = face_interpolate(q, s, d, flow, *nan_buffers(q, 3))
    assert got.tobytes() == reference_faces(q, s, d, u_faces[d]).tobytes()


@pytest.mark.parametrize("d", (0, 1))
@pytest.mark.parametrize("m", range(-5, 6))
def test_wrap_patch_writes_exactly_the_wrapped_entries(monkeypatch, d, m):
    """At n = 16 a shift of 5 wraps 5 of 16 rows or columns, about a third;
    ``fill_ghosts`` writes exactly those, and the result is np.roll's."""
    written = []
    patch = grid.fill_ghosts

    def counted(ufunc, x, y, out, wraps):
        written.extend(int(np.prod(out[region].shape)) for region, _, _ in wraps)
        return patch(ufunc, x, y, out, wraps)

    monkeypatch.setattr(grid, "fill_ghosts", counted)
    q = np.random.default_rng(13).standard_normal((N, N))
    got = neighbour_apply(np.multiply, q, m, 0.25, 0, d, np.empty((N, N)))
    assert got.tobytes() == (0.25 * np.roll(q, -m, axis=d)).tobytes()
    assert sum(written) == abs(m) * N
