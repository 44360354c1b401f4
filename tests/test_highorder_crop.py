"""The high-order fluxes on a crop of the grid against the whole-grid step.

``fct_advance`` runs the RK4 only on a periodic crop around the cells with
|q| > ANTIDIFFUSION_TOL * max|q|, padded by the RK4 reach, and gives every
face outside it F_high = 0.  That changes the step only at the level of
the negligible cells, so over a few steps the cropped run must stay within
1e-13 * max|q0| of the whole-grid one, for every scheme, limiter mode and
flow, on data that is cut (a small patch, a cosine8 bump) and on data that
is not (random values everywhere, where the step must be bitwise
unchanged).  A crop padded by less than the reach lets the patch's own
fluxes wrap round the crop, and the oracle sees it.
"""

import numpy as np
import pytest

from fvadvect import fct
from fvadvect.grid import Grid, Workspace, periodic_window
from fvadvect.highorder import rk4_high_order_step
from fvadvect.loworder import low_order_update
from fvadvect.problems import initial_condition, standard_problem
from fvadvect.schemes import crop_flow, default_product_order, face_flow, scheme_coefficients
from fvadvect.velocity import ConstantDiagonal, SolidBodyRotation, face_average_velocity

N = 96
STEPS = 3
TOL = 1e-13
SCHEMES = ("u5", "u9", "c4")
SIGMA = {1: 0.8, 2: 0.4}
VELOCITIES = {1: ("constant", "varying"), 2: ("constant", "rotation", "varying", "swirl")}


def face_velocities(g, kind):
    """Uniform, towards lower indices, so that the crop's left edge, placed
    exactly R + 1 cells before the data, is downstream of it; solid-body
    rotation; or a sign that varies along each face's normal, where every
    face picks its own stencil orientation; or ("swirl") that sign times a
    factor varying across the faces, so that the product-rule weights
    are whole-grid arrays."""
    if kind == "constant":
        return face_average_velocity(ConstantDiagonal((-1.0, -0.6) if g.dim == 2 else (-0.7,)), g)
    if kind == "rotation":
        return face_average_velocity(SolidBodyRotation(), g)
    meshes = [g.face_center_mesh(d) for d in range(g.dim)]
    u = [np.sin(2.0 * np.pi * (x[d] + 0.1)) for d, x in enumerate(meshes)]
    if kind == "swirl":
        u = [ud * np.cos(2.0 * np.pi * (x[1 - d] + 0.2)) for d, (ud, x) in enumerate(zip(u, meshes))]
    return tuple(u)


def patch(g, rng):
    """Values in [0.5, 1.5) on 5 cells per axis across the periodic edge."""
    q = np.zeros(g.shape)
    index = np.ix_(*([np.arange(-2, 3) % g.n] * g.dim))
    q[index] = 0.5 + rng.random((5,) * g.dim)
    return q


def cosine8(g, rng):
    return initial_condition(standard_problem("cosine8", "constant", g), g)


def random(g, rng):
    return rng.random(g.shape)


DATA = {"patch": patch, "cosine8": cosine8, "random": random}


def setup(dim, scheme, velocity, data):
    g = Grid(dim, N)
    s = scheme_coefficients(scheme)
    u_faces = face_velocities(g, velocity)
    flow = face_flow(u_faces, g, default_product_order(s))
    q0 = DATA[data](g, np.random.default_rng(SCHEMES.index(scheme) + 10 * dim))
    dt = SIGMA[dim] * g.h / max(float(np.max(np.abs(u))) for u in u_faces)
    return g, s, flow, u_faces, q0, dt


def cropped_run(g, s, flow, q0, dt, limiter):
    """Copies of each step's field, with the crop each step took."""
    ws, q, fields = Workspace(g), q0, []
    for _ in range(STEPS):
        q, _ = fct.fct_advance(q, flow, dt, SIGMA[g.dim], s, ws, limiter)
        fields.append(q.copy())
    return fields


def whole_grid_run(monkeypatch, g, s, flow, q0, dt, limiter):
    """The same steps with the high-order fluxes on the whole grid."""
    ws, q, fields = Workspace(g), q0, []
    with monkeypatch.context() as m:
        m.setattr(fct, "high_order_crop", lambda *args: None)
        for _ in range(STEPS):
            if limiter == "off":
                q = low_order_update(q, rk4_high_order_step(q, flow, dt, s, ws), dt, g, ws)
            else:
                q, _ = fct.fct_advance(q, flow, dt, SIGMA[g.dim], s, ws, limiter)
            fields.append(q.copy())
    return fields


def record_crops(monkeypatch):
    crops, build = [], fct.high_order_crop
    monkeypatch.setattr(fct, "high_order_crop",
                        lambda *args: crops.append(build(*args)) or crops[-1])
    return crops


def gaps(monkeypatch, dim, scheme, limiter, velocity, data):
    """Per step max|cropped - whole| / max|q0|, and the crops taken."""
    g, s, flow, u_faces, q0, dt = setup(dim, scheme, velocity, data)
    want = whole_grid_run(monkeypatch, g, s, flow, q0, dt, limiter)
    crops = record_crops(monkeypatch)
    got = cropped_run(g, s, flow, q0, dt, limiter)
    scale = float(np.max(np.abs(q0)))
    return [float(np.max(np.abs(a - b))) / scale for a, b in zip(got, want)], got, want, crops


CASES = [(dim, velocity) for dim in (1, 2) for velocity in VELOCITIES[dim]]


@pytest.mark.parametrize("data", ("patch", "cosine8"))
@pytest.mark.parametrize("limiter", ("on", "off"))
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("dim, velocity", CASES)
def test_cut_crop_matches_whole_grid(monkeypatch, dim, velocity, scheme, limiter, data):
    errors, _, _, crops = gaps(monkeypatch, dim, scheme, limiter, velocity, data)
    assert len(crops) == STEPS
    assert any(not c.whole for c in crops), "the crop was not cut"
    assert max(errors) <= TOL, errors


@pytest.mark.parametrize("limiter", ("on", "off"))
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("dim, velocity", CASES)
def test_random_data_takes_the_whole_grid_bitwise(monkeypatch, dim, velocity, scheme, limiter):
    _, got, want, crops = gaps(monkeypatch, dim, scheme, limiter, velocity, "random")
    assert all(c.whole for c in crops)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("scheme", ("u5", "u9"))
@pytest.mark.parametrize("dim", (1, 2))
def test_short_reach_is_seen(monkeypatch, dim, scheme):
    """With the crop padded by 4 cells less than the RK4 reach, the
    unlimited patch run leaves the tolerance."""
    reach = fct.rk4_reach
    monkeypatch.setattr(fct, "rk4_reach", lambda s: reach(s) - 4)
    errors, _, _, crops = gaps(monkeypatch, dim, scheme, "off", "constant", "patch")
    assert any(not c.whole for c in crops)
    assert max(errors) > TOL, errors


def test_reach_of_each_scheme():
    assert {name: fct.rk4_reach(scheme_coefficients(name)) for name in SCHEMES} == {
        "u5": 12, "u9": 20, "c4": 12}


def test_crop_shape_exact_and_placed():
    """The crop starts R + 1 cells before the patch and is the patch
    padded by exactly R + 1 cells per side."""
    g = Grid(1, N)
    q = np.zeros(g.shape)
    q[40:45] = 1.0
    s = scheme_coefficients("u9")
    crop = fct.high_order_crop(np.abs(q), 1.0, s, np.empty(g.shape, bool))
    ((in_grid, in_window),) = crop.blocks
    reach = fct.rk4_reach(s) + 1
    assert in_grid[0].start == 40 - reach
    assert crop.shape == (5 + 2 * reach,)


def mirrored_faces(flow, d, shape):
    """Per face normal to ``d`` of the face arrays of ``shape``, whether
    ``flow`` builds its stencil mirrored; every face lies in exactly one
    orientation block."""
    blocks = flow.orientations[d]
    if blocks is None:
        return np.broadcast_to(flow.negative[d], shape)
    covered = np.zeros(shape, int)
    mirrored = np.zeros(shape, bool)
    for index, flip in blocks:
        covered[index] += 1
        mirrored[index] = flip
    assert np.all(covered == 1)
    return mirrored


# per axis the cells a crop is built around: a run inside the grid, or
# one across its periodic edge (the crop then wraps on that axis)
INSIDE, ACROSS = slice(40, 50), np.arange(-5, 5)
CROP_WINDOWS = {1: {"cut": (INSIDE,), "wrap-0": (ACROSS,), "whole": None},
                2: {"cut": (INSIDE, INSIDE), "wrap-0": (ACROSS, INSIDE),
                    "wrap-1": (INSIDE, ACROSS), "whole": None}}


@pytest.mark.parametrize("dim, window, velocity", [
    (dim, window, velocity) for dim in (1, 2) for window in CROP_WINDOWS[dim]
    for velocity in ("positive", *VELOCITIES[dim])])
def test_crop_takes_the_grid_orientation(dim, window, velocity):
    """The crop's faces take the grid's orientation, mirrored exactly where
    u < 0, on a crop that is cut, wraps on either axis or is whole.  The
    flows keep their velocities in compact shapes, so the cropped ones are
    compared once broadcast to the crop."""
    g = Grid(dim, N)
    if velocity == "positive":
        u_faces = face_average_velocity(ConstantDiagonal((1.0, 0.6)[:dim]), g)
    else:
        u_faces = face_velocities(g, velocity)
    mask = np.zeros(g.shape, bool)
    cells = CROP_WINDOWS[dim][window]
    mask[np.ix_(*[np.arange(g.n)[c] for c in cells]) if cells else ...] = True
    crop = periodic_window((mask,), 4)
    assert crop.whole == (window == "whole")
    assert [len(spans) for spans in crop.spans] == [
        1 + (window == f"wrap-{ax}") for ax in range(dim)]
    flow = face_flow(u_faces, g, 6)
    cropped = crop_flow(flow, crop)
    for d, u in enumerate(u_faces):
        in_crop = crop(u, np.full(crop.shape, np.nan))
        assert np.broadcast_to(cropped.u_faces[d], crop.shape).tobytes() == in_crop.tobytes()
        want = crop(u < 0.0, np.empty(crop.shape, bool))
        assert np.array_equal(mirrored_faces(cropped, d, crop.shape), want)
        assert np.array_equal(crop(mirrored_faces(flow, d, g.shape), np.empty(crop.shape, bool)),
                              want)
