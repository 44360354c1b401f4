"""High-order face interpolation stencils and face-flux product rules.

A face value is a weighted sum of cell averages along the face normal:

    q_face(i+1/2) = sum_s  a_s * q(i+s)        (upwind cell on the left)

The coefficient tables below are exact rationals; upwind stencils are given
in the orientation for positive normal velocity and mirrored about the face
(s -> 1-s) when the face velocity is negative.  Centered stencils are
symmetric about the face, so mirroring leaves them unchanged.

The velocity is frozen for a run, so what the face fluxes need from it (the
upwind orientation per axis and the product-rule weights) is computed once
into a ``FaceFlow`` and reused by every stage of every step.  Its arrays
are kept in their ``compact`` shape, of length 1 along every axis they do
not vary along, and read by broadcasting.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .grid import axis_index, neighbour_apply


@dataclass(frozen=True)
class StencilScheme:
    name: str
    offsets: tuple
    numerators: tuple
    denominator: int
    order: int
    is_upwind: bool

    @functools.cached_property
    def coefficients(self):
        return np.array(self.numerators, dtype=float) / self.denominator


_SCHEMES = {
    "c4": StencilScheme("c4", tuple(range(-1, 3)), (-1, 7, 7, -1), 12, 4, False),
    "u5": StencilScheme("u5", tuple(range(-2, 3)), (2, -13, 47, 27, -3), 60, 5, True),
    "c6": StencilScheme("c6", tuple(range(-2, 4)), (1, -8, 37, 37, -8, 1), 60, 6, False),
    "u7": StencilScheme(
        "u7", tuple(range(-3, 4)), (-3, 25, -101, 319, 214, -38, 4), 420, 7, True
    ),
    "u9": StencilScheme(
        "u9",
        tuple(range(-4, 5)),
        (4, -41, 199, -641, 1879, 1375, -305, 55, -5),
        2520,
        9,
        True,
    ),
}

SCHEME_NAMES = tuple(_SCHEMES)

# The upstream cell of each face, the first-order member of the upwind
# family: corner transport upwind's donor cell.  Not a named scheme.
DONOR = StencilScheme("donor", (0,), (1,), 1, 1, True)


def scheme_coefficients(name):
    """Look up a stencil scheme by name (c4, u5, c6, u7, u9)."""
    try:
        return _SCHEMES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheme {name!r}; expected one of {', '.join(_SCHEMES)}"
        ) from None


def default_product_order(scheme):
    """Product-rule order paired with a stencil: 4 for c4/u5, 6 for the rest."""
    return 4 if scheme.order <= 5 else 6


def compact(a):
    """``a`` cut to length 1 along every axis it does not vary along.

    An axis of stride 0 (a broadcast view) is cut unread; any other is cut
    where every entry equals the first one bit for bit.  The result
    broadcasts to ``a``'s shape and equals ``a`` bitwise there: a copy
    where anything was cut, ``a`` itself otherwise.
    """
    ndim = a.ndim
    cut = a[tuple(slice(0, 1) if stride == 0 else slice(None) for stride in a.strides)]
    for ax in range(ndim):
        first = axis_index(ax, slice(0, 1), ndim)
        bits = cut.view(f"u{cut.itemsize}")
        if cut.shape[ax] > 1 and np.all(bits == bits[first]):
            cut = cut[first]
    return a if cut.shape == a.shape else cut.copy()


class Orientation(NamedTuple):
    """The faces at ``index`` all take one stencil orientation."""

    index: tuple
    mirrored: bool


def upwind_orientation(u_face, d):
    """Blocks of the faces normal to ``d`` that share an upwind orientation.

    A face takes the positive orientation where u >= 0 (ties included) and
    the mirrored one elsewhere.  A uniform sign gives one block over every
    face; a sign that does not vary along the normal ``d`` (rotation) gives
    one block per run of whole rows of one sign.  Otherwise the result is
    None and each face chooses for itself.
    """
    plus = u_face >= 0.0
    ndim = plus.ndim
    if plus.all() or not plus.any():
        return (Orientation((slice(None),) * ndim, not plus.flat[0]),)
    row = plus.take([0], axis=d)
    if ndim == 1 or not np.array_equal(plus, np.broadcast_to(row, plus.shape)):
        return None
    (t,) = (ax for ax in range(ndim) if ax != d)
    signs = row.ravel()
    cuts = [0, *(np.flatnonzero(signs[1:] != signs[:-1]) + 1), signs.size]
    return tuple(
        Orientation(axis_index(t, slice(a, b), ndim), not signs[a])
        for a, b in zip(cuts[:-1], cuts[1:])
    )


# The order-4 and order-6 product-rule corrections are symmetric bilinear
# forms in the undivided transverse differences of the two factors,
#     D1 = f[+1] - f[-1],  D2 = f[+2] - f[-2],  L = f[+1] + f[-1] - 2 f.
# These coefficients are the exact expansion of the derivative forms that
# ``product_rule_flux`` describes; every power of h cancels.
_ORDER4_D1D1 = 1.0 / 48.0
_ORDER6_D1D1 = 1373.0 / 34560.0
_ORDER6_D1D2 = -389.0 / 69120.0
_ORDER6_D2D2 = 25.0 / 27648.0
_ORDER6_LL = 1.0 / 720.0


class ProductWeights(NamedTuple):
    """Weights of the product-rule correction along transverse ``axis``.

    The correction is ``w1*D1(q) + w2*D2(q) + w0*L(q)``; order 4 has ``w1``
    only, with ``w2`` and ``w0`` None.
    """

    axis: int
    w1: np.ndarray
    w2: Optional[np.ndarray] = None
    w0: Optional[np.ndarray] = None


def _differences(f, t):
    d1, d2, lap = (neighbour_apply(ufunc, f, m, f, -m, t, np.empty(f.shape))
                   for ufunc, m in ((np.subtract, 1), (np.subtract, 2), (np.add, 1)))
    lap -= 2.0 * f
    return d1, d2, lap


def product_rule_weights(u_face, order, d, grid):
    """Product-rule weights of the face velocities normal to axis ``d``.

    One ``ProductWeights`` per transverse axis, in the ``compact`` shape of
    ``u_face``: under rotation one broadcast row (length 1 along ``d``).
    A transverse axis along which ``u_face`` does not vary is skipped,
    since its differences are exactly zero there, and so is one whose
    weights are all exactly zero; the flux there is exactly
    ``q_face * u_face``.
    """
    if order not in (2, 4, 6):
        raise ValueError(f"product rule order must be 2, 4 or 6, got {order}")
    if order == 2 or grid.dim == 1:
        return ()
    u = compact(u_face)
    out = []
    for t in range(grid.dim):
        if t == d or u.shape[t] == 1:
            continue
        e1, e2, el = _differences(u, t)
        if order == 4:
            w = ProductWeights(t, _ORDER4_D1D1 * e1)
        else:
            w = ProductWeights(
                t,
                _ORDER6_D1D1 * e1 + _ORDER6_D1D2 * e2,
                _ORDER6_D1D2 * e1 + _ORDER6_D2D2 * e2,
                _ORDER6_LL * el,
            )
        if any(np.any(a) for a in w[1:] if a is not None):
            out.append(w)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class FaceFlow:
    """What the face fluxes of one run need from the frozen velocity.

    The ``grid``, and per axis: the face velocities, their
    ``upwind_orientation`` blocks, their ``product_rule_weights`` and,
    only where there are no orientation blocks, the mask ``negative`` of
    faces with u < 0 (None elsewhere).  ``face_flow`` builds it once per
    run.  Every array is in its ``compact`` shape and is read by
    broadcasting: a constant flow holds only ``(1, 1)`` arrays, and
    rotation ``(1, n)`` ones for u_x and ``(n, 1)`` ones for u_y.
    """

    grid: object
    u_faces: tuple
    orientations: tuple
    weights: tuple
    negative: tuple


def _upwind_blocks(u_faces):
    """Per axis the ``upwind_orientation`` blocks of the face velocities
    and, only where there are none, the ``compact`` mask of faces with
    u < 0 (None elsewhere)."""
    orientations = tuple(upwind_orientation(u, d) for d, u in enumerate(u_faces))
    negative = tuple(compact(u < 0.0) if o is None else None
                     for o, u in zip(orientations, u_faces))
    return orientations, negative


def face_flow(u_faces, grid, order):
    """The ``FaceFlow`` of per-axis face velocities for a product-rule order.

    ``u_faces`` may be whole face arrays or anything that broadcasts to
    them, such as the broadcast views ``face_average_velocity`` returns;
    each is kept in its ``compact`` shape, so for the constant and
    rotation flows the flow holds no array of more than n entries.
    """
    u_faces = tuple(map(compact, u_faces))
    orientations, negative = _upwind_blocks(u_faces)
    return FaceFlow(
        grid,
        u_faces,
        orientations,
        tuple(product_rule_weights(u, order, d, grid) for d, u in enumerate(u_faces)),
        negative,
    )


def crop_flow(flow, window):
    """The ``FaceFlow`` of a periodic window of the grid (``grid.Window``).

    The face velocities and weights keep their compact shape: along an
    axis of length 1 they are taken whole, along the others they are
    basic-slice views where the window is one block and block copies
    where it wraps round the grid, so a crop of the constant or rotation
    flow copies at most a window's row.  The orientation blocks and
    ``negative`` masks are built from the cropped velocities, as
    ``face_flow`` builds the grid's.
    """
    def crop_weights(w):
        return ProductWeights(w.axis, *(None if a is None else window.view(a) for a in w[1:]))

    u_faces = tuple(map(window.view, flow.u_faces))
    orientations, negative = _upwind_blocks(u_faces)
    weights = tuple(tuple(map(crop_weights, ws)) for ws in flow.weights)
    return FaceFlow(flow.grid, u_faces, orientations, weights, negative)


def _stencil_sum(q, scheme, d, mirrored, out, term):
    """The stencil along ``d`` in one orientation, summed into ``out``.

    Each stencil point is one ``neighbour_apply``, added in coefficient
    order to a sum that starts at 0.0.  The first point is formed in
    ``out`` itself and 0.0 added to it, which is ``0.0 + term`` bitwise
    (IEEE addition commutes); the others in the scratch ``term``.  A
    one-point stencil is its cell: nothing is added, so a -0.0 stays.
    """
    for i, (s, a) in enumerate(zip(scheme.offsets, scheme.coefficients)):
        neighbour_apply(np.multiply, q, -s if mirrored else s - 1, a, 0, d, term if i else out)
        if i or len(scheme.offsets) > 1:
            out += term if i else 0.0
    return out


def _prefix(a, shape, skip=0):
    """Contiguous entries of ``a`` after the first ``skip``, viewed with ``shape``."""
    return a.reshape(-1)[skip:skip + math.prod(shape)].reshape(shape)


def face_interpolate(q, scheme, d, flow, out, term, total):
    """Face values of the cell field ``q`` along axis ``d``.

    Face index k sits between cells k-1 and k, so the positive-velocity
    stencil reads cells (k-1)+s and the mirrored one reads cells k-s.
    Upwind schemes take the orientation from the ``FaceFlow``: each block
    of faces sharing one (see ``upwind_orientation``) is built once with
    that orientation only.  A block that is one contiguous run of the
    array (every face, or a run of rows) is built in place; a run of
    columns is built in pieces, each copied into a contiguous prefix of
    ``total``, summed in the rest of it and copied out once, because
    ufuncs on strided blocks take about twice as long.  Where the sign
    varies along the normal both orientations are built over every face,
    the mirrored one in ``total``, and copied in at the faces with u < 0.
    Centered schemes ignore ``flow``.  The values are written into
    ``out``, with ``term`` and ``total`` as scratch.
    """
    if not scheme.is_upwind:
        return _stencil_sum(q, scheme, d, False, out, term)
    blocks = flow.orientations[d]
    if blocks is None:
        _stencil_sum(q, scheme, d, False, out, term)
        np.copyto(out, _stencil_sum(q, scheme, d, True, total, term), where=flow.negative[d])
        return out
    for index, mirrored in blocks:
        if out[index].flags.c_contiguous:
            _stencil_sum(q[index], scheme, d, mirrored, out[index], term[index])
            continue
        # a run of columns (2D, d = 0), in pieces at most half the grid wide
        run, width = index[1], q.shape[1] // 2
        for a in range(run.start, run.stop, width):
            piece = (slice(None), slice(a, min(a + width, run.stop)))
            cells = out[piece].shape
            source = _prefix(total, cells)
            source[...] = q[piece]
            acc = _prefix(total, cells, source.size)
            out[piece] = _stencil_sum(source, scheme, d, mirrored, acc, _prefix(term, cells))
    return out


def product_rule_flux(q_face, flow, d, out, term, twice):
    """Face average of q*u from the face averages of the factors.

    order 2:  plain product.
    order 4:  adds (h^2/12) * sum over transverse axes of dq*du, both
              first derivatives by 2nd-order centered differences.
    order 6:  the h^2 term uses 4th-order first derivatives, plus the h^4
              correction with third/first and second/second derivative
              pairs at 2nd order.

    Transverse differences act on the face arrays, which hold transverse
    AVERAGES: a centered difference of averages converges to the averaged
    derivative, which is offset from the point derivative by h^2 f'''/24.
    For the h^2 term that offset would feed back at O(h^4), so the first
    derivatives there are deconvolved by subtracting h^2/24 times the
    third difference; the h^4-term derivatives only need the point values
    to second order, where the offset is already below the truncation.

    Each correction is linear in ``q_face`` with coefficients that depend on
    the velocity alone, so it is applied in weights form,
    ``q_face*u_face + w1*D1(q) + w2*D2(q) + w0*L(q)`` per transverse axis,
    with the weights of ``flow`` (see ``product_rule_weights``).  With no
    transverse axes (1D), at order 2, or where the weights vanish, the flux
    is exactly ``q_face * u_face``.  The flux is written into ``out``,
    with ``term`` and ``twice`` as scratch.
    """
    flux = np.multiply(q_face, flow.u_faces[d], out=out)
    for t, w1, w2, w0 in flow.weights[d]:
        d1 = neighbour_apply(np.subtract, q_face, 1, q_face, -1, t, term)
        flux += np.multiply(w1, d1, out=term)
        if w2 is not None:
            d2 = neighbour_apply(np.subtract, q_face, 2, q_face, -2, t, term)
            flux += np.multiply(w2, d2, out=term)
            np.multiply(2.0, q_face, out=twice)
            lap = neighbour_apply(np.add, q_face, 1, q_face, -1, t, term)
            lap -= twice
            flux += np.multiply(w0, lap, out=term)
    return flux
