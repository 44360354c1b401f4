"""The FCT guarantee on every limited step (Zalesak 1979).

Each limited update must stay inside the bounds the limiter computed for
it, on every step, not only at the end of a run: every cell of the
limiter's window lies in [q_min, relaxed q_max] to 1e-14 * max|qn|, every
cell outside the window keeps the transported-diffused value q_td bit for
bit, eta lies in [0, 1] at the window's core faces and is 0 at every
other face, and the conserved sum moves by at most 1e-12 of itself per
step.  The bounds are read when ``extremum_bound_correction`` returns
(``limiter_patches.capture_bounds``) and q_td is the same step taken
with ``limiter="off-low"`` on a fresh workspace.  The runs cut the
limiter window on every step (square, cosine8, the slotted cylinder) or
take the whole grid (random data).
"""

import numpy as np
import pytest

from fvadvect.fct import fct_advance
from fvadvect.grid import Grid, Workspace, conserved_sum
from fvadvect.problems import initial_condition, standard_problem
from fvadvect.schemes import default_product_order, face_flow, scheme_coefficients
from fvadvect.velocity import face_average_velocity, make_velocity, max_speed
from limiter_patches import capture_bounds

STEPS = 4
BOUND_TOL = 1e-14
DRIFT_TOL = 1e-12
SCHEMES = ("u5", "u9", "c4")
# per-axis CFL numbers inside every tested scheme's stability bound
SIGMA = {1: 0.8, 2: 0.4}
# (dim, n, initial condition, velocity)
RUNS = (
    (1, 128, "square", "constant"),
    (1, 128, "cosine8", "constant"),
    (1, 48, "random", "constant"),
    (2, 80, "square", "constant"),
    (2, 64, "cosine8", "rotation"),
    (2, 64, "slotted", "rotation"),
    (2, 32, "random", "rotation"),
)


def initial(g, ic, vel):
    if ic == "random":
        return np.random.default_rng(g.n + g.dim).random(g.shape)
    return initial_condition(standard_problem(ic, vel, g), g)


def grid_mask(g, blocks):
    """The cells of a window's ``blocks`` (grid, window index pairs)."""
    mask = np.zeros(g.shape, bool)
    for in_grid, _ in blocks:
        mask[in_grid] = True
    return mask


def bits(a):
    return a.view(np.uint64)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("run", RUNS, ids=lambda r: f"{r[0]}d-{r[2]}-{r[3]}")
def test_every_step_keeps_its_bounds(monkeypatch, run, scheme):
    dim, n, ic, vel = run
    g = Grid(dim, n)
    s = scheme_coefficients(scheme)
    v = make_velocity(vel, g)
    flow = face_flow(face_average_velocity(v, g), g, default_product_order(s))
    dt = SIGMA[dim] * g.h / max_speed(v, g)
    captured = capture_bounds(monkeypatch)
    ws, q = Workspace(g), initial(g, ic, vel)
    cut = 0
    for step in range(1, STEPS + 1):
        q_td, _ = fct_advance(q, flow, dt, SIGMA[dim], s, Workspace(g), "off-low")
        before, scale = conserved_sum(g, q), float(np.max(np.abs(q)))
        q, etas = fct_advance(q, flow, dt, SIGMA[dim], s, ws)
        assert len(captured) == step
        window, q_max, q_min = captured[-1]
        inside, core = grid_mask(g, window.blocks), grid_mask(g, window.core)
        cut += not window.whole
        # outside the window the step is the transported-diffused state
        assert np.array_equal(bits(q[~inside]), bits(q_td[~inside])), f"step {step}"
        slack = BOUND_TOL * scale
        for in_grid, in_window in window.blocks:
            assert np.all(q[in_grid] <= q_max[in_window] + slack), f"step {step}"
            assert np.all(q[in_grid] >= q_min[in_window] - slack), f"step {step}"
        for eta in etas:
            assert np.all((eta[core] >= 0.0) & (eta[core] <= 1.0)), f"step {step}"
            assert np.all(eta[~core] == 0.0), f"step {step}"
        drift = abs(conserved_sum(g, q) - before)
        assert drift <= DRIFT_TOL * abs(before), f"step {step}"
    # the window was cut on every step of the smooth and discontinuous
    # data, and on random data it is the whole grid
    assert cut == STEPS * (ic != "random")
