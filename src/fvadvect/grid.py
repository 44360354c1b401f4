"""Periodic Cartesian grids, cell-averaged fields, and face-indexed arrays.

Index conventions used throughout the package:

  - A cell field is a plain C-contiguous array of shape ``grid.shape``,
    ``(n,)*dim``: cell ``i`` is entry ``i``.  There is no ghost frame;
    periodicity lives in the reads.
  - Face arrays have the same shape.  Along the normal axis ``d``, index
    ``k`` is the face at coordinate ``lo + k*h``, i.e. the LEFT face of
    cell ``k`` (between cells ``k-1`` and ``k``).  There are exactly ``n``
    distinct faces per transverse row under periodicity, so a face value
    is stored once and shared by both adjacent cells.
  - Cell ``i``'s right face along ``d`` is therefore face index ``(i+1) % n``.

Every neighbour read goes through ``neighbour_apply``:
``out[k] = ufunc(x[(k+mx) % n], y[(k+my) % n])`` along one axis.  It runs
the ufunc once on contiguous slices of the flattened arrays, where a step
along the axis is a fixed stride, and then rewrites the entries whose
reads wrap round the periodic boundary (``fill_ghosts``): whole rows along
axis 0, a block of columns along the last axis.
"""

import functools
import math

import numpy as np

# A cell's update reads the face values on both of its sides, and the
# widest stencil (u9, either orientation) reaches from them 5 cells past
# the cell in each direction.
WIDEST_READ = 5


class Grid:
    """Uniform periodic grid on ``[lo, hi]^dim`` with ``n`` cells per axis.

    ``MIN_CELLS`` holds a cell's widest read, ``WIDEST_READ`` cells to each
    side, without reading any cell twice.
    """

    MIN_CELLS = 2 * WIDEST_READ + 1

    def __init__(self, dim, n, lo=0.0, hi=1.0):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        check_cells(n)
        if not 0.0 < hi - lo < math.inf:
            raise ValueError(f"domain extent must be positive and finite, got [{lo}, {hi}]")
        self.dim = dim
        self.n = int(n)
        self.lo = float(lo)
        self.hi = float(hi)
        self.h = (self.hi - self.lo) / self.n

    @property
    def extent(self):
        return self.hi - self.lo

    @property
    def shape(self):
        """Field shape, one entry per dimension."""
        return (self.n,) * self.dim

    def cell_centers(self, axis=0):
        """1D array of cell-center coordinates along ``axis``."""
        return self.lo + (np.arange(self.n) + 0.5) * self.h

    def face_coords(self, axis=0):
        """1D array of face coordinates along ``axis`` (face k at lo + k*h)."""
        return self.lo + np.arange(self.n) * self.h

    def cell_center_mesh(self):
        """Tuple of ``dim`` arrays of shape ``grid.shape`` with center coords."""
        axes = [self.cell_centers(d) for d in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij")) if self.dim > 1 else (axes[0],)

    def face_center_mesh(self, d):
        """Centroid coordinates of the faces normal to axis ``d``.

        Along axis ``d`` the coordinate is the face position; along the other
        axes it is the cell-center coordinate of the transverse row.
        """
        axes = [
            self.face_coords(ax) if ax == d else self.cell_centers(ax)
            for ax in range(self.dim)
        ]
        return tuple(np.meshgrid(*axes, indexing="ij")) if self.dim > 1 else (axes[0],)

    def __repr__(self):
        return f"Grid(dim={self.dim}, n={self.n}, lo={self.lo}, hi={self.hi})"


def check_cells(n):
    """Raise ``ValueError`` unless ``n`` is at least ``Grid.MIN_CELLS``."""
    if n < Grid.MIN_CELLS:
        raise ValueError(f"n must be at least {Grid.MIN_CELLS} cells, got {n}")


class Workspace:
    """Every whole-grid buffer of one step, allocated once and reused.

    ``integrate`` builds one per run and passes it to every kernel.
    ``frames`` are two cell fields used in turn: a step reads its state
    from one and leaves every state it forms (RK4 stages, then the new
    state) in the other, ``next_frame(qn)``.  ``flux_high`` and ``flux``
    hold one face array per axis: the combined high-order flux (then the
    antidiffusive flux) and a stage flux (then the CTU flux, then the
    returned etas).  ``face`` holds face values, ``scratch`` two arrays
    that no kernel keeps across calls, and ``active`` one boolean array
    per axis for the limiter's active faces.
    """

    def __init__(self, grid):
        self.frames = (np.empty(grid.shape), np.empty(grid.shape))
        self.flux_high = tuple(np.empty(grid.shape) for _ in range(grid.dim))
        self.flux = tuple(np.empty(grid.shape) for _ in range(grid.dim))
        self.face = np.empty(grid.shape)
        self.scratch = (np.empty(grid.shape), np.empty(grid.shape))
        self.active = tuple(np.empty(grid.shape, bool) for _ in range(grid.dim))

    def next_frame(self, qn):
        """The frame a step from ``qn`` writes: whichever ``qn`` is not."""
        return self.frames[1] if qn is self.frames[0] else self.frames[0]


def axis_index(axis, sl, ndim, rest=slice(None)):
    """Index tuple taking ``sl`` along ``axis`` and ``rest`` along the others."""
    return tuple(sl if ax == axis else rest for ax in range(ndim))


@functools.lru_cache(maxsize=64)
def _plan(shape, d, mx, my):
    """The slices of one ``neighbour_apply``: ``(main, wraps)``.

    ``main`` holds the flat slices of ``out``, ``x`` and ``y`` for every
    index ``lo <= k < hi`` along ``d`` whose reads do not wrap; ``wraps``
    the ``(out, x, y)`` index tuples of the runs of the other indices.
    Each side is one run, cut once more where a second shift of the same
    sign wraps inside it, so that every read in a run is one basic slice.
    """
    n, ndim = shape[d], len(shape)
    stride = math.prod(shape[d + 1:])
    lo, hi = max(0, -mx, -my), min(n, n - mx, n - my)
    start, stop = lo * stride, math.prod(shape) - (n - hi) * stride
    main = tuple(slice(start + m * stride, stop + m * stride) for m in (0, mx, my))
    cuts = sorted({0, lo, hi, n, -mx % n, -my % n})
    wraps = tuple(
        tuple(axis_index(d, slice((a + m) % n, (a + m) % n + b - a), ndim) for m in (0, mx, my))
        for a, b in zip(cuts, cuts[1:]) if a < lo or b > hi
    )
    return main, wraps


def neighbour_apply(ufunc, x, mx, y, my, d, out, where=True):
    """``out[k] = ufunc(x[(k+mx) % n], y[(k+my) % n])`` along axis ``d``.

    ``x`` and ``y`` are C-contiguous arrays of ``out``'s shape or scalars
    (read as they are, with shift 0); ``where`` is True or a mask of
    ``out``'s shape, and ``out`` keeps its entries where the mask is
    False.  For shifts ``|mx|, |my| < n`` and a C-contiguous ``out`` that
    shares no memory with ``x`` or ``y`` (``x`` or ``y`` itself as ``out``
    is rejected).  The slices depend only on the shape, the axis and the
    shifts, and are cached per call signature.  One call on the flattened
    arrays, where a step along ``d`` is ``stride`` entries, covers every
    ``k`` whose reads need no wrap; along the last axis it also writes,
    wrongly, the edge entries of each row.  ``fill_ghosts`` then writes
    every entry whose read wraps.  Every operand of the main call is
    contiguous.
    """
    if not out.flags.c_contiguous:
        raise ValueError("neighbour_apply needs a C-contiguous output array")
    if out is x or out is y:
        raise ValueError("neighbour_apply cannot write over its operands")
    (so, sx, sy), wraps = _plan(out.shape, d, mx, my)
    ufunc(x.reshape(-1)[sx] if isinstance(x, np.ndarray) else x,
          y.reshape(-1)[sy] if isinstance(y, np.ndarray) else y,
          out=out.reshape(-1)[so],
          where=where.reshape(-1)[so] if isinstance(where, np.ndarray) else where)
    return fill_ghosts(ufunc, x, y, out, wraps, where)


def fill_ghosts(ufunc, x, y, out, wraps, where=True):
    """Write the entries of ``neighbour_apply``'s ``out`` whose reads wrap.

    ``wraps`` holds the ``(out, x, y)`` index tuples of each run of them:
    the indices below and above the unwrapped run along the read axis,
    the periodic images of the other edge.  A run is whole rows along
    axis 0 and an ``(n, width)`` block of columns along the last axis.
    """
    for so, sx, sy in wraps:
        ufunc(x[sx] if isinstance(x, np.ndarray) else x,
              y[sy] if isinstance(y, np.ndarray) else y,
              out=out[so], where=where[so] if isinstance(where, np.ndarray) else where)
    return out


def conserved_sum(grid, q):
    """Total conserved content: sum of the cell averages times h^dim.

    Uses compensated summation so the diagnostic itself contributes no
    meaningful roundoff.
    """
    return math.fsum(q.ravel().tolist()) * grid.h ** grid.dim


def flux_divergence(grid, fluxes, dt, out=None, diff=None):
    """Conservative increment ``(dt/h) * sum_d [F_d(right) - F_d(left)]``.

    ``fluxes`` is a tuple of per-dimension face arrays in the shared-face
    layout described in the module docstring, on the grid or on a window of
    it.  The result, written into ``out``, is the array to SUBTRACT from a
    cell field; its sum telescopes to zero under periodicity.  ``diff`` is
    scratch; both are fresh arrays when not given.
    """
    out = np.empty(fluxes[0].shape) if out is None else out
    diff = np.empty(out.shape) if diff is None else diff
    # the sum starts at 0.0: the first difference plus 0.0 is that bitwise
    for d, F in enumerate(fluxes):
        neighbour_apply(np.subtract, F, 1, F, 0, d, diff if d else out)
        out += diff if d else 0.0
    out *= dt / grid.h
    return out
