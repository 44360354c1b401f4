"""Exact invariances of the solver: whole-cell translation under a constant
velocity, and run-to-run determinism.

Under a constant velocity every cell sees the same stencil weights, so
shifting the initial field by whole cells must shift the solution by the
same cells, bit for bit, whatever the scheme and limiter mode.  The
limiter's window of active faces and the high-order crop move with the
data; a localised patch shifted across the periodic edge makes both
wrap.
"""

import numpy as np
import pytest

from fvadvect import fct
from fvadvect.driver import integrate
from fvadvect.fct import LIMITER_MODES
from fvadvect.grid import Grid
from fvadvect.velocity import ConstantDiagonal

SCHEMES = ("u5", "u9", "c4")
STEPS = 3
# per-axis CFL numbers inside every tested scheme's stability bound
SIGMA = {1: 0.8, 2: 0.4}
VELOCITY = {1: (0.7,), 2: (1.0, -0.6)}
# large enough that the limiter window of the patch is not the whole grid
SIZE = {1: 96, 2: 64}


def solve(q0, grid, scheme, limiter):
    velocity = ConstantDiagonal(VELOCITY[grid.dim])
    sigma = SIGMA[grid.dim]
    t_final = STEPS * sigma * grid.h / velocity.max_component_speed(grid)
    result = integrate(q0, velocity, grid, scheme, sigma, t_final, limiter=limiter)
    assert result.steps == STEPS
    return result.field


def random_field(grid, seed):
    return np.random.default_rng(seed).random(grid.shape)


def edge_patch(grid, seed):
    """Random values on a block of 5 cells per axis starting at cell 0,
    zero elsewhere: the limiter works on a window around the block."""
    q = np.zeros(grid.shape)
    q[(slice(0, 5),) * grid.dim] = 0.5 + np.random.default_rng(seed).random((5,) * grid.dim)
    return q


FIELDS = {"random": random_field, "patch": edge_patch}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("limiter", LIMITER_MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("data", sorted(FIELDS))
def test_whole_cell_translation(monkeypatch, data, scheme, limiter, dim):
    crops, build = [], fct.high_order_crop
    monkeypatch.setattr(fct, "high_order_crop", lambda *a: crops.append(build(*a)) or crops[-1])
    grid = Grid(dim, SIZE[dim])
    q0 = FIELDS[data](grid, seed=SCHEMES.index(scheme) + 10 * dim)
    # the patch starts at cell 0, so its limiter window wraps round the
    # edge; these shifts carry the patch across the edge and into the
    # middle, where the window does not wrap, and the random field with it
    n = grid.n
    shifts = [(-2,) * dim, (n // 2, 3 - n // 2)[:dim]]
    base = solve(q0, grid, scheme, limiter)
    for shift in shifts:
        axes = tuple(range(dim))
        moved = solve(np.roll(q0, shift, axis=axes), grid, scheme, limiter)
        assert moved.tobytes() == np.roll(base, shift, axis=axes).tobytes(), shift
    # the high-order fluxes of the patch ran on a crop of the grid
    if data == "patch" and limiter != "off-low":
        assert any(not crop.whole for crop in crops)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("limiter", LIMITER_MODES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_run_to_run_determinism(scheme, limiter, dim):
    grid = Grid(dim, SIZE[dim])
    q0 = random_field(grid, seed=7)
    first = solve(q0, grid, scheme, limiter).copy()
    second = solve(q0, grid, scheme, limiter)
    assert first.tobytes() == second.tobytes()
