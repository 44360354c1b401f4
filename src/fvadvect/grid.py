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
import itertools
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
        # a finite domain volume keeps h**dim, which scales the conserved sum, finite
        if not 0.0 < math.prod((hi - lo,) * dim) < math.inf:
            raise ValueError(f"domain extent must be positive and finite, and so must "
                             f"its volume in {dim}D, got [{lo}, {hi}]")
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

    def face_center_mesh(self, d, sparse=False):
        """Centroid coordinates of the faces normal to axis ``d``.

        Along axis ``d`` the coordinate is the face position; along the other
        axes it is the cell-center coordinate of the transverse row.  With
        ``sparse`` each coordinate has length 1 along the other axes, and
        the arrays broadcast to the face shape.
        """
        axes = [
            self.face_coords(ax) if ax == d else self.cell_centers(ax)
            for ax in range(self.dim)
        ]
        return (tuple(np.meshgrid(*axes, indexing="ij", sparse=sparse)) if self.dim > 1
                else (axes[0],))

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
    per axis: the high-order crop's cells, then the limiter's active
    faces.  From ``limiter_window`` to the end of a limited step,
    ``face`` and ``scratch`` also hold the limiter's window arrays
    (``window_buffers``).

    The float buffers are consecutive blocks of one flat ``pool``, the
    frames at its two ends, so the pool less the frame a step reads is
    one run of memory: ``crop`` carves the buffers of a smaller grid
    from it.  ``face`` and the two ``scratch`` are one run too.
    """

    def __init__(self, grid):
        self.pool = np.empty(self.buffers(grid.dim) * grid.n ** grid.dim)
        self._lay_out(self.pool, grid.shape)
        self.active = tuple(np.empty(grid.shape, bool) for _ in range(grid.dim))

    @staticmethod
    def buffers(dim):
        """Float buffers of a workspace: two frames, two fluxes per axis,
        ``face`` and two ``scratch``."""
        return 5 + 2 * dim

    def _lay_out(self, flat, shape, backwards=False):
        """Take the buffers of ``shape`` from ``flat``, in the order frame,
        ``flux_high``, ``flux``, ``face``, ``scratch``, frame: from its
        start, or ``backwards`` from its end."""
        size, dim = math.prod(shape), len(shape)
        starts = (flat.size - (k + 1) * size if backwards else k * size
                  for k in range(self.buffers(dim)))
        views = [flat[a:a + size].reshape(shape) for a in starts]
        self.frames = (views[0], views[-1])
        self.flux_high = tuple(views[1:1 + dim])
        self.flux = tuple(views[1 + dim:1 + 2 * dim])
        self.face = views[1 + 2 * dim]
        self.scratch = tuple(views[2 + 2 * dim:4 + 2 * dim])

    def next_frame(self, qn):
        """The frame a step from ``qn`` writes: whichever ``qn`` is not."""
        return self.frames[1] if qn is self.frames[0] else self.frames[0]

    def crop(self, qn, shape):
        """A workspace for a grid of ``shape`` inside this one's pool, or None
        where its buffers do not fit.

        Its room is the pool less one frame: ``qn`` where that is a frame,
        else ``frames[1]``, so a crop fits by its shape alone.  Its buffers
        are laid out backwards from the room's far end, so its ``flux_high``
        never meets this workspace's (which follows ``frames[0]``): a step
        can run on the crop and then write its fluxes into
        ``self.flux_high``.  It has no ``pool`` or ``active``.
        """
        lo = self.frames[0].size if qn is self.frames[0] else 0
        room = self.pool[lo:lo + self.pool.size - self.frames[0].size]
        if self.buffers(len(shape)) * math.prod(shape) > room.size:
            return None
        ws = object.__new__(Workspace)
        ws._lay_out(room, shape, backwards=True)
        ws.pool, ws.active = None, None
        return ws

    def window_buffers(self, shape, count):
        """``count`` C-contiguous float arrays of ``shape``, laid out in
        turn in the run ``face``, ``scratch[0]``, ``scratch[1]`` of the
        pool as far as they fit, and the rest in one fresh block.

        The limiter's window arrays live there: nothing else reads or
        writes that run from ``limiter_window`` to the end of the step.
        Needs the run's own workspace (a ``crop`` has no pool).
        """
        size, grid_size = math.prod(shape), self.face.size
        start = (1 + 2 * self.face.ndim) * grid_size  # see _lay_out
        run = self.pool[start:start + (1 + len(self.scratch)) * grid_size]
        fits = min(count, run.size // size)

        def carve(flat, k):
            return [flat[i * size:(i + 1) * size].reshape(shape) for i in range(k)]

        return carve(run, fits) + carve(np.empty((count - fits) * size), count - fits)


class Window:
    """A periodic window of the grid: per axis one run of grid indices.

    ``spans`` holds per axis the ``(grid slice, window slice)`` pairs that
    make up the window along it: one for an axis taken whole or cut
    without wrapping round, two for a cut that wraps.  ``core_spans``
    holds the same for the core, the run of indices the window was built
    around.  Every block is read and written through basic slices.
    """

    def __init__(self, spans, core_spans, grid_shape):
        self.spans = spans
        self.shape = tuple(pairs[-1][1].stop for pairs in spans)
        self.whole = self.shape == grid_shape
        self.blocks = [tuple(zip(*block)) for block in itertools.product(*spans)]
        self.core = [tuple(zip(*block)) for block in itertools.product(*core_spans)]

    def __call__(self, a, out):
        """The window of grid array ``a``, copied into ``out``."""
        for in_grid, in_window in self.blocks:
            out[in_window] = a[in_grid]
        return out

    def view(self, a):
        """The window of ``a``, which may have length 1 along an axis (a
        broadcast row, kept whole there): a basic-slice view where the
        window is one block, else a copy of the blocks."""
        def keep(index):
            return tuple(sl if m > 1 else slice(None) for sl, m in zip(index, a.shape))

        if len(self.blocks) == 1:
            return a[keep(self.blocks[0][0])]
        out = np.empty([w if m > 1 else 1 for w, m in zip(self.shape, a.shape)], a.dtype)
        for in_grid, in_window in self.blocks:
            out[keep(in_window)] = a[keep(in_grid)]
        return out

    def paste(self, a, w):
        """Write the window array ``w`` into the window of ``a``."""
        for in_grid, in_window in self.blocks:
            a[in_grid] = w[in_window]

    def subtract(self, a, w):
        """Subtract the window array ``w`` from the window of ``a``, in place."""
        for in_grid, in_window in self.blocks:
            a[in_grid] -= w[in_window]


def periodic_window(masks, reach):
    """The ``Window`` around every True entry of the grid arrays ``masks``,
    or None when there is none.

    Per axis the core is the shortest circular run of indices holding
    every True entry (the complement of the largest gap between them).
    The window is that run padded by exactly ``reach`` cells per side; an
    axis whose window reaches n is taken whole, where the periodic wrap
    is exact.
    """
    shape, spans, core = masks[0].shape, [], []
    for ax, n in enumerate(shape):
        others = tuple(x for x in range(len(shape)) if x != ax)
        hits = np.flatnonzero(np.any([m.any(axis=others) for m in masks], axis=0))
        if hits.size == 0:
            return None
        gaps = np.diff(hits, append=hits[0] + n)
        j = int(np.argmax(gaps))
        start, length = int(hits[(j + 1) % hits.size]), n + 1 - int(gaps[j])
        size = length + 2 * reach
        lo = (start - reach) % n if size < n else 0
        spans.append(_circular_run(lo, min(size, n), n, lo))
        core.append(_circular_run(start, length, n, lo))
    return Window(spans, core, shape)


def _circular_run(start, length, n, lo):
    """``(grid slice, window slice)`` pairs of the circular run of ``length``
    grid indices from ``start``: one, or two where the run wraps round.
    Grid index g sits at window index (g - lo) % n."""
    first = min(length, n - start)
    runs = [(start, first)] + ([(0, length - first)] if first < length else [])
    return [(slice(a, a + m), slice((a - lo) % n, (a - lo) % n + m)) for a, m in runs]


def axis_index(axis, sl, ndim, rest=slice(None)):
    """Index tuple taking ``sl`` along ``axis`` and ``rest`` along the others."""
    return tuple(sl if ax == axis else rest for ax in range(ndim))


@functools.lru_cache(maxsize=256)
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


def neighbour_apply(ufunc, x, mx, y, my, d, out):
    """``out[k] = ufunc(x[(k+mx) % n], y[(k+my) % n])`` along axis ``d``.

    ``x`` and ``y`` are C-contiguous arrays of ``out``'s shape or scalars
    (read as they are, with shift 0).  For shifts ``|mx|, |my| < n`` and a
    C-contiguous ``out`` that shares no memory with ``x`` or ``y`` (``x``
    or ``y`` itself as ``out`` is rejected).  The slices depend only on the shape, the axis and the
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
          y.reshape(-1)[sy] if isinstance(y, np.ndarray) else y, out=out.reshape(-1)[so])
    return fill_ghosts(ufunc, x, y, out, wraps)


def fill_ghosts(ufunc, x, y, out, wraps):
    """Write the entries of ``neighbour_apply``'s ``out`` whose reads wrap.

    ``wraps`` holds the ``(out, x, y)`` index tuples of each run of them:
    the indices below and above the unwrapped run along the read axis,
    the periodic images of the other edge.  A run is whole rows along
    axis 0 and an ``(n, width)`` block of columns along the last axis.
    """
    for so, sx, sy in wraps:
        ufunc(x[sx] if isinstance(x, np.ndarray) else x,
              y[sy] if isinstance(y, np.ndarray) else y, out=out[so])
    return out


def conserved_sum(grid, q):
    """Total conserved content: sum of the cell averages times h^dim.

    Uses compensated summation so the diagnostic itself contributes no
    meaningful roundoff.  The field is streamed to ``fsum`` one row at a
    time, never as one whole-grid list; ``fsum`` is correctly rounded, so
    the order of the terms does not change the result.
    """
    rows = map(np.ndarray.tolist, q.reshape(-1, q.shape[-1]))
    return math.fsum(itertools.chain.from_iterable(rows)) * grid.h ** grid.dim


def flux_divergence(grid, fluxes, dt, out, diff):
    """Conservative increment ``(dt/h) * sum_d [F_d(right) - F_d(left)]``.

    ``fluxes`` is a tuple of per-dimension face arrays in the shared-face
    layout described in the module docstring, on the grid or on a window of
    it.  The result, written into ``out``, is the array to SUBTRACT from a
    cell field; its sum telescopes to zero under periodicity.  ``diff`` is
    scratch.
    """
    # the sum starts at 0.0: the first difference plus 0.0 is that bitwise
    for d, F in enumerate(fluxes):
        neighbour_apply(np.subtract, F, 1, F, 0, d, diff if d else out)
        out += diff if d else 0.0
    out *= dt / grid.h
    return out
