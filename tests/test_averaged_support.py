"""Cell averages summed over the feature's candidate cells only are bitwise
the full-grid quadrature.

``problems._averaged`` evaluates the point function only in the cells whose
centre's characteristic foot lies near the feature, and leaves every other
cell at 0.0.  The reference below is the full-grid loop it replaced: every
quadrature point of every cell, through ``np.meshgrid``.
"""

import dataclasses

import numpy as np
import pytest

from fvadvect import problems
from fvadvect.grid import Grid
from fvadvect.problems import (
    ProblemSpec,
    _averaged,
    _gauss_rule,
    _midpoint_rule,
    exact_solution,
    initial_condition,
    point_value,
    standard_problem,
)
from fvadvect.velocity import make_velocity


def full_grid_average(spec, grid, offsets, weights, map_back=None):
    """Every quadrature point of every cell, in the same order of points."""
    base = [grid.lo + np.arange(grid.n) * grid.h for _ in range(grid.dim)]
    values = np.zeros(grid.shape)
    total_weight = 0.0
    for combo in np.ndindex(*((len(offsets),) * grid.dim)):
        axes = [base[d] + offsets[combo[d]] * grid.h for d in range(grid.dim)]
        pts = np.meshgrid(*axes, indexing="ij") if grid.dim > 1 else [axes[0]]
        if map_back is not None:
            pts = map_back(tuple(pts))
        w = 1.0
        for d in range(grid.dim):
            w *= weights[combo[d]]
        values += w * point_value(spec, tuple(pts), grid)
        total_weight += w
    return values / total_weight


def seeded(spec, seed, grid):
    """The benchmark's feature centre for ``seed``: a sub-cell offset."""
    if seed == 0:
        return spec
    offset = np.random.default_rng(seed).uniform(-0.5, 0.5, size=grid.dim) * grid.h
    return dataclasses.replace(
        spec, center=tuple(float(c + o) for c, o in zip(spec.center, offset))
    )


def reference_exact(monkeypatch, spec, velocity, t, grid):
    with monkeypatch.context() as m:
        m.setattr(problems, "_averaged", full_grid_average)
        return exact_solution(spec, velocity, t, grid)


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


PROBLEMS = [
    ("cosine8", "constant", 1),
    ("cosine8", "constant", 2),
    ("cosine8", "rotation", 2),
    ("square", "constant", 1),
    ("square", "constant", 2),
    ("square", "rotation", 2),
    ("semiellipse", "constant", 1),
    ("semiellipse", "constant", 2),
    ("semiellipse", "rotation", 2),
    ("slotted", "rotation", 2),
]
# None: the default size; 15/128: the convergence radius, about 4 cells at
# N = 32; 0.6: wider than half the domain, so every cell is a candidate
SIZES = [None, 15.0 / 128.0, 0.6]


def sized(kind, velocity_kind, grid, size):
    if kind == "square":
        spec = standard_problem(kind, velocity_kind, grid)
        return spec if size is None else dataclasses.replace(spec, halfwidth=size)
    return standard_problem(kind, velocity_kind, grid, radius=size)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("kind,velocity_kind,dim", PROBLEMS)
def test_initial_and_exact_match_full_grid(monkeypatch, kind, velocity_kind, dim, size):
    grid = Grid(dim, 32)
    velocity = make_velocity(velocity_kind, grid)
    # constant velocity: t = 0.5 carries the mid-domain feature onto the
    # periodic edge; rotation: an eighth and 0.3 of a turn
    times = (0.0, 0.125, 0.3) + ((0.5,) if velocity_kind == "constant" else ())
    # every time at seed 0, then one time for each of the seeds 1-5
    cases = [(0, t) for t in times] + [(seed, times[seed % len(times)]) for seed in range(1, 6)]
    for seed, t in cases:
        spec = seeded(sized(kind, velocity_kind, grid, size), seed, grid)
        assert_bitwise(
            exact_solution(spec, velocity, t, grid),
            reference_exact(monkeypatch, spec, velocity, t, grid),
        )


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["cosine8", "square", "semiellipse"])
def test_feature_across_the_edge(kind, dim):
    # the support overlaps the upper edge; the point function does not wrap
    # it, and the candidate cells (periodic distance) include both sides
    grid = Grid(dim, 32)
    spec = ProblemSpec(kind=kind, center=(0.97, 0.02)[:dim], radius=0.1, halfwidth=0.1)
    for offsets, weights in (_gauss_rule(), _midpoint_rule()):
        assert_bitwise(
            _averaged(spec, grid, offsets, weights),
            full_grid_average(spec, grid, offsets, weights),
        )


@pytest.mark.parametrize(
    "kind,velocity_kind", [("cosine8", "constant"), ("slotted", "rotation")]
)
def test_benchmark_initial_conditions(monkeypatch, kind, velocity_kind):
    # the two advection workloads of the benchmark at N = 256: the paper's
    # centre (seed 0) and a shifted one
    grid = Grid(2, 256)
    for seed in (0, 5):
        spec = seeded(standard_problem(kind, velocity_kind, grid), seed, grid)
        with monkeypatch.context() as m:
            m.setattr(problems, "_averaged", full_grid_average)
            reference = initial_condition(spec, grid)
        assert_bitwise(initial_condition(spec, grid), reference)


def test_cells_off_the_support_are_not_evaluated(monkeypatch):
    grid = Grid(2, 64)
    spec = standard_problem("cosine8", "constant", grid)  # radius 15 cells
    evaluated = []

    def counting(spec, coords, grid):
        evaluated.append(coords[0].size)
        return point_value(spec, coords, grid)

    monkeypatch.setattr(problems, "point_value", counting)
    initial_condition(spec, grid)
    # at most 15 + sqrt(2)/2 + 1 cells either side of the centre per axis,
    # against 64 x 64 for the full grid
    assert len(evaluated) == 100
    assert max(evaluated) <= 34 ** 2
