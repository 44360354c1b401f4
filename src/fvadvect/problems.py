"""Benchmark initial conditions, exact solutions, and convergence drivers.

Initial conditions are produced as cell averages, not point samples: the
smooth bump by tensor-product Gauss quadrature, the square by exact
geometric overlap fractions, and the semi-ellipse and slotted cylinder by
uniform subsampling.  Exact solutions at later times reuse the same
averaging rule on characteristic foot points.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .grid import Grid
from .velocity import ConstantDiagonal, make_velocity

GAUSS_POINTS = 10
SUBSAMPLES = 10

IC_KINDS = ("cosine8", "square", "semiellipse", "slotted")


@dataclass
class ProblemSpec:
    """Geometry of one initial condition.

    ``radius`` of None for cosine8 means "15 cells at the run resolution";
    convergence studies pass an explicit physical radius instead so the
    continuum problem does not change with N.
    """

    kind: str
    center: tuple
    radius: float | None = None
    halfwidth: float = 0.15
    slot_width: float = 10.0 / 256.0
    slot_length: float = 50.0 / 256.0

    def resolved_radius(self, grid):
        if self.radius is not None:
            return self.radius
        defaults = {
            "cosine8": 15.0 * grid.h,
            "semiellipse": 0.25,
            "slotted": 30.0 / 256.0,
        }
        if self.kind not in defaults:
            raise ValueError(f"{self.kind} has no radius")
        return defaults[self.kind]

    def half_extent(self, grid):
        """Largest distance from ``center`` along any axis at which the
        point function can be nonzero."""
        if self.kind == "square":
            return self.halfwidth
        return self.resolved_radius(grid)


def standard_problem(kind, velocity_kind, grid, radius=None):
    """Spec with the conventional center for the velocity field.

    Constant velocity centers the feature mid-domain; rotation offsets it
    upward by a quarter of the domain height so it orbits the center.
    """
    if kind not in IC_KINDS:
        raise ValueError(f"unknown initial condition {kind!r}")
    if radius is not None and not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"radius must be finite and positive, got {radius}")
    if kind == "slotted" and (grid.dim != 2 or velocity_kind != "rotation"):
        raise ValueError("slotted cylinder requires 2D solid-body rotation")
    mid = 0.5 * (grid.lo + grid.hi)
    if velocity_kind == "rotation":
        center = (mid, mid + 0.25 * grid.extent)
    else:
        center = (mid,) * grid.dim
    return ProblemSpec(kind=kind, center=center, radius=radius)


def _radial_distance(coords, center):
    r2 = (np.asarray(coords[0], dtype=float) - center[0]) ** 2
    for x, c in zip(coords[1:], center[1:]):
        r2 = r2 + (np.asarray(x, dtype=float) - c) ** 2
    return np.sqrt(r2)


def point_value(spec, coords, grid):
    """Pointwise initial value at the given coordinate arrays."""
    if spec.kind == "cosine8":
        r0 = spec.resolved_radius(grid)
        R = _radial_distance(coords, spec.center)
        arg = 0.5 * np.pi * np.minimum(R / r0, 1.0)
        return np.where(R <= r0, np.cos(arg) ** 8, 0.0)
    if spec.kind == "square":
        inside = np.abs(np.asarray(coords[0], dtype=float) - spec.center[0]) <= spec.halfwidth
        for x, c in zip(coords[1:], spec.center[1:]):
            inside &= np.abs(np.asarray(x, dtype=float) - c) <= spec.halfwidth
        return inside.astype(float)
    if spec.kind == "semiellipse":
        r0 = spec.resolved_radius(grid)
        R = _radial_distance(coords, spec.center)
        return np.where(R <= r0, np.sqrt(np.maximum(0.0, 1.0 - (R / r0) ** 2)), 0.0)
    if spec.kind == "slotted":
        r0 = spec.resolved_radius(grid)
        x = np.asarray(coords[0], dtype=float)
        y = np.asarray(coords[1], dtype=float)
        cx, cy = spec.center
        R = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
        slot_top = cy - r0 + spec.slot_length
        in_slot = (np.abs(x - cx) <= 0.5 * spec.slot_width) & (y <= slot_top)
        return ((R <= r0) & ~in_slot).astype(float)
    raise ValueError(f"unknown initial condition {spec.kind!r}")


def _wrap(x, grid):
    return grid.lo + np.mod(x - grid.lo, grid.extent)


def _candidate_cells(spec, grid, map_back):
    """Index arrays of the cells whose average can be nonzero.

    Every quadrature point of a cell lies within sqrt(dim)/2 cell widths of
    its centre, and both back-traces are isometries (a rotation, or a
    translation whose wrap the periodic distance covers), so a cell whose
    centre's foot is farther than that from the feature's support on some
    axis has every point value exactly 0.0.  One further cell width of
    margin absorbs the rounding of the traced coordinates.
    """
    feet = np.ix_(*(grid.cell_centers(d) for d in range(grid.dim)))
    if map_back is not None:
        feet = map_back(feet)
    reach = spec.half_extent(grid) + (0.5 * np.sqrt(grid.dim) + 1.0) * grid.h
    near = np.ones(grid.shape, dtype=bool)
    for x, c in zip(feet, spec.center):
        delta = np.mod(x - c, grid.extent)
        near &= np.minimum(delta, grid.extent - delta) <= reach
    return np.nonzero(near)


def _averaged(spec, grid, offsets, weights, map_back=None):
    """Cell averages of the (possibly back-traced) point function.

    ``offsets``/``weights`` define a 1D quadrature on [0, 1) applied per
    axis as a tensor product; ``map_back`` sends evaluation points to their
    characteristic feet.  The quadrature is summed over the candidate cells
    only (``_candidate_cells``); every other cell is exactly 0.0, the
    average of a function that is 0.0 at each of its points.
    """
    cells = _candidate_cells(spec, grid, map_back)
    # the lower edges of the candidate cells along each axis
    base = [grid.lo + index * grid.h for index in cells]
    sums = np.zeros(len(cells[0]))
    total_weight = 0.0
    for combo in np.ndindex(*((len(offsets),) * grid.dim)):
        pts = tuple(b + offsets[k] * grid.h for b, k in zip(base, combo))
        if map_back is not None:
            pts = map_back(pts)
        w = 1.0
        for d in range(grid.dim):
            w *= weights[combo[d]]
        sums += w * point_value(spec, pts, grid)
        total_weight += w
    values = np.zeros(grid.shape)
    # normalizing by the identically accumulated weight total keeps cells
    # inside constant regions exact (an all-ones cell averages to 1.0)
    values[cells] = sums / total_weight
    return values


def _gauss_rule(npts=GAUSS_POINTS):
    x, w = leggauss(npts)
    return (x + 1.0) / 2.0, w / 2.0


def _midpoint_rule(m=SUBSAMPLES):
    return (np.arange(m) + 0.5) / m, np.full(m, 1.0 / m)


def _overlap_fraction_1d(grid, center, halfwidth):
    """Exact per-cell overlap of a periodic interval with each cell, over h."""
    lo_edges = grid.lo + np.arange(grid.n) * grid.h
    hi_edges = lo_edges + grid.h
    total = np.zeros(grid.n)
    for k in (-1.0, 0.0, 1.0):
        a = center - halfwidth + k * grid.extent
        b = center + halfwidth + k * grid.extent
        total += np.clip(np.minimum(hi_edges, b) - np.maximum(lo_edges, a), 0.0, None)
    return total / grid.h


def _square_overlap(spec, grid, center):
    frac = _overlap_fraction_1d(grid, center[0], spec.halfwidth)
    if grid.dim == 1:
        return frac
    frac_y = _overlap_fraction_1d(grid, center[1], spec.halfwidth)
    return np.outer(frac, frac_y)


def initial_condition(spec, grid):
    """Cell-averaged initial condition."""
    if spec.kind == "square":
        return _square_overlap(spec, grid, spec.center)
    if spec.kind == "cosine8":
        offs, w = _gauss_rule()
    else:
        offs, w = _midpoint_rule()
    return _averaged(spec, grid, offs, w)


def exact_solution(spec, velocity, t, grid):
    """Cell averages of the advected solution at time ``t``.

    Characteristics are traced backward through the velocity field and the
    initial averaging rule is reapplied at the foot points (with periodic
    wrapping for the constant field, whose features cross the boundary).
    """
    if t == 0.0:
        return initial_condition(spec, grid)
    translating = isinstance(velocity, ConstantDiagonal)
    if spec.kind == "square" and translating:
        # the advected indicator is the initial one with its center carried
        # forward along the characteristics
        shifted = tuple(
            _wrap(c + u * t, grid)
            for c, u in zip(spec.center, velocity.components)
        )
        return _square_overlap(spec, grid, shifted)

    def map_back(pts):
        feet = velocity.trace_back(pts, t)
        if translating:
            feet = tuple(_wrap(x, grid) for x in feet)
        return feet

    if spec.kind == "cosine8":
        offs, w = _gauss_rule()
    else:
        offs, w = _midpoint_rule()
    return _averaged(spec, grid, offs, w, map_back)


def max_norm_error(num, exact):
    """Largest pointwise difference between two fields."""
    if num.shape != exact.shape:
        raise ValueError("fields live on different grids")
    return float(np.max(np.abs(num - exact)))


@dataclass
class ErrorRecord:
    n: int
    error: float
    order: float | None = None


def convergence_study(
    ic_kind,
    velocity_kind,
    scheme,
    sigma,
    n_list,
    limiter="on",
    dim=1,
    t_final=1.0,
    radius=None,
    order=None,
):
    """Max-norm errors at ``t_final`` over a refinement sequence.

    ``radius`` defaults to the resolution-independent 15/128 for the smooth
    bump so that refinement sharpens a fixed continuum problem.  Observed
    orders are log2 ratios of successive errors.
    """
    from .driver import integrate

    if radius is None and ic_kind == "cosine8":
        radius = 15.0 / 128.0
    records = []
    for n in n_list:
        grid = Grid(dim, n)
        velocity = make_velocity(velocity_kind, grid)
        spec = standard_problem(ic_kind, velocity_kind, grid, radius=radius)
        q0 = initial_condition(spec, grid)
        result = integrate(
            q0, velocity, grid, scheme, sigma, t_final,
            limiter=limiter, order=order,
        )
        err = max_norm_error(result.field, exact_solution(spec, velocity, t_final, grid))
        records.append(ErrorRecord(n=n, error=err))
    for prev, cur in zip(records, records[1:]):
        cur.order = float(np.log2(prev.error / cur.error)) if cur.error > 0 else np.inf
    return records
