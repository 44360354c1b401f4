"""Periodic Cartesian grids, cell-averaged fields, and face-indexed arrays.

Index conventions used throughout the package:

  - Cell fields carry a ghost frame of width ``grid.ghost`` on every side.
    Interior cell ``i`` (0 <= i < n) lives at flat index ``ghost + i``.
  - Face arrays are plain ndarrays of shape ``(n,)*dim``.  Along the normal
    axis ``d``, index ``k`` is the face at coordinate ``lo + k*h``, i.e. the
    LEFT face of cell ``k`` (between cells ``k-1`` and ``k``).  There are
    exactly ``n`` distinct faces per transverse row under periodicity, so a
    face value is stored once and shared by both adjacent cells.
  - Cell ``i``'s right face along ``d`` is therefore face index ``(i+1) % n``.

Neighbour reads are views, never shifted copies.  A cell field reads its
neighbours through its ghost frame (``CellField.shifted`` and
``CellField.along``); any other array gets one periodic pad along the axis
it is read along (``periodic_pad``), and ``Padded.at(m)`` is then the
interior-shaped view whose entry ``i`` is the array's entry ``(i+m) % n``.
A neighbour read that feeds a single operation goes through
``neighbour_apply`` instead, which needs no copy.
"""

import math

import numpy as np


class Grid:
    """Uniform periodic grid on ``[lo, hi]^dim`` with ``n`` cells per axis.

    ghost must be at least 6: the widest face stencil reaches 5 cells past
    the outermost interior face and the limiter bound windows add 2 more
    inside that budget.
    """

    def __init__(self, dim, n, lo=0.0, hi=1.0, ghost=6):
        if dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {dim}")
        if ghost < 6:
            raise ValueError(f"ghost width must be >= 6, got {ghost}")
        if n < 2 * ghost:
            raise ValueError(f"need n >= {2 * ghost} cells, got {n}")
        if not hi > lo:
            raise ValueError("domain must have hi > lo")
        self.dim = dim
        self.n = int(n)
        self.lo = float(lo)
        self.hi = float(hi)
        self.ghost = int(ghost)
        self.h = (self.hi - self.lo) / self.n

    @property
    def extent(self):
        return self.hi - self.lo

    @property
    def shape(self):
        """Interior shape, one entry per dimension."""
        return (self.n,) * self.dim

    @property
    def padded_shape(self):
        return (self.n + 2 * self.ghost,) * self.dim

    def cell_centers(self, axis=0):
        """1D array of interior cell-center coordinates along ``axis``."""
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

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and (self.dim, self.n, self.lo, self.hi, self.ghost)
            == (other.dim, other.n, other.lo, other.hi, other.ghost)
        )

    def __repr__(self):
        return (
            f"Grid(dim={self.dim}, n={self.n}, lo={self.lo}, hi={self.hi}, "
            f"ghost={self.ghost})"
        )


class CellField:
    """Cell-averaged scalar on a grid, stored with its ghost frame."""

    def __init__(self, grid, data=None):
        self.grid = grid
        if data is None:
            data = np.zeros(grid.padded_shape)
        if data.shape != grid.padded_shape:
            raise ValueError(f"expected padded shape {grid.padded_shape}, got {data.shape}")
        self.data = data

    @classmethod
    def from_interior(cls, grid, values, ghosts=True):
        """Wrap interior values in a fresh ghosted field.

        With ``ghosts=True`` the ghost frame is filled immediately.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"expected interior shape {grid.shape}, got {values.shape}")
        f = cls(grid)
        f.interior[...] = values
        if ghosts:
            fill_ghosts(f)
        return f

    @property
    def interior(self):
        g = self.grid.ghost
        sl = (slice(g, g + self.grid.n),) * self.grid.dim
        return self.data[sl]

    def shifted(self, offsets):
        """Interior-shaped view displaced by integer ``offsets`` per axis.

        ``shifted((m,))[i] == data value at cell i+m`` (reads ghosts, so the
        result equals the periodic image once ghosts are filled).
        """
        g, n = self.grid.ghost, self.grid.n
        sl = tuple(slice(g + m, g + m + n) for m in offsets)
        return self.data[sl]

    def along(self, axis):
        """The interior as a ``Padded`` along ``axis``, read through the ghosts."""
        g, n = self.grid.ghost, self.grid.n
        sl = axis_index(axis, slice(None), self.grid.dim, slice(g, g + n))
        return Padded(self.data[sl], g, axis)

    def copy(self):
        return CellField(self.grid, self.data.copy())


class Workspace:
    """Every whole-grid buffer of one step, allocated once and reused.

    ``integrate`` builds one per run; a kernel called without one builds
    its own.  ``frames`` are two ghosted fields used in turn: a step reads
    its state from one and leaves every state it forms (RK4 stages, then
    the new state) in the other, ``next_frame(qn)``.  ``flux_high`` and
    ``flux`` hold one face array per axis: the combined high-order flux
    (then the antidiffusive flux) and a stage flux (then the CTU flux,
    then the returned etas).  ``face`` holds face values, ``scratch``
    two arrays that no kernel keeps across calls, and ``active`` one
    boolean array per axis for the limiter's active faces.
    """

    def __init__(self, grid):
        self.frames = (CellField(grid), CellField(grid))
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


class Padded:
    """An array carrying ``width`` periodic images on both sides of ``axis``.

    ``at(m)`` is the interior-shaped view whose entry ``i`` along ``axis``
    is the unpadded array's entry ``(i + m) % n``, for ``|m| <= width``.
    An elementwise function of ``data`` keeps the layout, so wrapping its
    result in a ``Padded`` of the same width and axis reads it the same way.
    """

    __slots__ = ("data", "width", "axis")

    def __init__(self, data, width, axis):
        self.data, self.width, self.axis = data, width, axis

    def at(self, m):
        w = self.width
        n = self.data.shape[self.axis] - 2 * w
        return self.data[axis_index(self.axis, slice(w + m, w + m + n), self.data.ndim)]


def periodic_pad(a, width, axis):
    """``a`` copied once with ``width`` periodic images on both sides of ``axis``."""
    n, ndim = a.shape[axis], a.ndim
    return Padded(
        np.concatenate(
            (a[axis_index(axis, slice(n - width, n), ndim)], a,
             a[axis_index(axis, slice(0, width), ndim)]),
            axis=axis,
        ),
        width,
        axis,
    )


def neighbour_apply(ufunc, x, mx, y, my, d, out):
    """``out[k] = ufunc(x[(k+mx) % n], y[(k+my) % n])`` along axis ``d``.

    For shifts ``|mx|, |my| < n`` and a C-contiguous ``out`` that shares no
    memory with ``x`` or ``y``.  One call on
    the flattened arrays, where a step along ``d`` is ``stride`` entries,
    covers every ``k`` whose reads need no wrap (along the last axis it
    also writes, wrongly, the edge entries of each row); the entries next
    to the wrap are then written over one slice at a time.  Unlike views of
    a pad, every operand of the main call is contiguous.
    """
    if not out.flags.c_contiguous:
        raise ValueError("neighbour_apply needs a C-contiguous output array")
    if np.may_share_memory(out, x) or np.may_share_memory(out, y):
        raise ValueError("neighbour_apply cannot write over its operands")
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    n, ndim = out.shape[d], out.ndim
    stride = math.prod(out.shape[d + 1:])
    lo, hi = max(0, -mx, -my), min(n, n - mx, n - my)
    start, stop = lo * stride, out.size - (n - hi) * stride
    flat_x, flat_y = x.reshape(-1), y.reshape(-1)
    ufunc(flat_x[start + mx * stride:stop + mx * stride],
          flat_y[start + my * stride:stop + my * stride],
          out=out.reshape(-1)[start:stop])
    for k in (*range(lo), *range(hi, n)):
        ufunc(x[axis_index(d, slice((k + mx) % n, (k + mx) % n + 1), ndim)],
              y[axis_index(d, slice((k + my) % n, (k + my) % n + 1), ndim)],
              out=out[axis_index(d, slice(k, k + 1), ndim)])
    return out


def fill_ghosts(f):
    """Fill the ghost frame with periodic images of the interior, in place.

    Axis-by-axis assignment covers edges and corners; repeated application
    is bitwise idempotent because ghosts are plain copies of interior cells.
    """
    g, n = f.grid.ghost, f.grid.n
    data = f.data
    for axis in range(f.grid.dim):
        lo_ghost = tuple(
            slice(0, g) if ax == axis else slice(None) for ax in range(f.grid.dim)
        )
        lo_src = tuple(
            slice(n, n + g) if ax == axis else slice(None) for ax in range(f.grid.dim)
        )
        hi_ghost = tuple(
            slice(g + n, 2 * g + n) if ax == axis else slice(None)
            for ax in range(f.grid.dim)
        )
        hi_src = tuple(
            slice(g, 2 * g) if ax == axis else slice(None) for ax in range(f.grid.dim)
        )
        data[lo_ghost] = data[lo_src]
        data[hi_ghost] = data[hi_src]
    return f


def conserved_sum(f):
    """Total conserved content: sum of interior cell averages times h^dim.

    Uses compensated summation so the diagnostic itself contributes no
    meaningful roundoff.
    """
    return math.fsum(f.interior.ravel().tolist()) * f.grid.h ** f.grid.dim


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
    out.fill(0.0)
    for d, F in enumerate(fluxes):
        out += neighbour_apply(np.subtract, F, 1, F, 0, d, diff)
    out *= dt / grid.h
    return out
