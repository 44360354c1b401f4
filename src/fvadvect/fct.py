"""Flux-corrected transport hybridization of high- and low-order fluxes.

One limited step runs, in order: high-order RK4 fluxes (on a crop of the
grid around the cells that are not negligible); CTU fluxes and the
transported-diffused update; antidiffusive fluxes; pre-constraint; solution
bounds with parabolic relaxation at smooth extrema; oscillating-extremum
flags; the P/Q/R least-upper-bound machinery; per-face hybridization
coefficients; and the final conservative correction.

The limiter phases take plain periodic arrays and the spacing ``h``, so
they can run on a window of the grid (``limiter_window``).  Alignment
reminders (see grid.py): a neighbour at offset m along axis d is read as
shift m of ``neighbour_apply``.  Face index k along axis d lies between
cells k-1 and k, so at the face i+1/2 (k = i+1), for quantities stored
per cell,

    cell i   -> offset -1       (the face's left cell)
    cell i+1 -> offset 0        (the face's right cell)
    cell i-1 -> offset -2
    cell i+2 -> offset +1

while for face quantities seen from cell i, the left face is offset 0 and
the right face offset +1.
"""

import numpy as np

from .grid import flux_divergence, neighbour_apply, periodic_window
from .highorder import rk4_high_order_step, rk4_reach
from .loworder import ctu_fluxes, low_order_update
from .schemes import crop_flow

EXTREMUM_GROWTH_FACTOR = 2.0
TV_SAFETY_FACTOR = 1.25
CONSTANCY_TOL = 1e-14
# Curvature below this fraction of the field scale earns no bound
# relaxation.  Sub-scale wiggles carry no accuracy stakes, but relaxing
# bounds around them lets roundoff- and wake-level noise creep past the
# hard windowed bounds step after step.
CURVATURE_FLOOR_REL = 1e-6
LIMITER_MODES = ("on", "off", "off-low")
# The fraction of max|qn| below which a value does not matter.  Faces
# moving less than this in a step (|A| dt/h) are left out of the limiter
# and get eta = 0.  That is safe: any eta between 0 and the computed one
# keeps the update inside the bounds (Zalesak 1979).  The high-order
# fluxes are computed only on a crop around the cells holding more than
# this (``high_order_crop``).
ANTIDIFFUSION_TOL = 1e-14
# Cells of halo around the active faces.  Face k, between cells k-1 and k,
# takes R at those cells; R at cell i takes the preconstrained A at faces
# i and i+1 along each axis, whose d2 at shifts -2..1 reads qn at i-3 and
# i+3, and bounds and flags at i, which read 2 cells away (the radius-2
# boxes, the +-2 total-variation window, the minmod of d2, the 3^dim
# Laplacian box).  So eta reads at most 4 cells away along and across its
# axis; the halo keeps 2 cells to spare.
LIMITER_REACH = 6


def second_differences(q, out):
    """Per-axis centered second differences of a periodic array, written
    into the arrays of ``out``, one per axis."""
    twice, buf = np.multiply(2.0, q), np.empty(q.shape)
    for d, d2 in enumerate(out):
        neighbour_apply(np.subtract, q, 1, twice, 0, d, buf)
        neighbour_apply(np.add, buf, 0, q, -1, d, d2)
    return out


def antidiffusive(F_high, F_low, out):
    """High-order minus low-order flux, per dimension per face.

    Written into the arrays of ``out``, which may be ``F_high`` itself.
    """
    return tuple(np.subtract(fh, fl, out=o) for fh, fl, o in zip(F_high, F_low, out))


def preconstrain(A, q_td, d2q, u_faces, dt, h, out):
    """Zero antidiffusive fluxes that would steepen a detected discontinuity.

    A face is zeroed only when all three hold:
      1. the flux is directed down the local gradient of the transported-
         diffused solution (it would create or accentuate an extremum);
      2. the second difference changes sign among the four cells around
         the face (discontinuity signature, strict inequality);
      3. the flux magnitude is no larger than the low-order scheme's own
         modified-equation dissipation across the face, (|u| h / 2) *
         (1 - sigma_face) * |avg of adjacent second differences|.

    ``u_faces`` may be in their compact shape: the velocity factor of the
    dissipation is formed in it.  The fluxes are written into the arrays
    of ``out``, which may be ``A`` itself.
    """
    buf, kink, dissipation = (np.empty(q_td.shape) for _ in range(3))
    for d, o in enumerate(out):
        Ad = A[d]
        d2 = d2q[d]  # shifts -2, -1, 0, 1 are cells i-1, i, i+1, i+2
        # q_td(i+1) - q_td(i) at face k
        neighbour_apply(np.subtract, q_td, 0, q_td, -1, d, buf)
        buf *= Ad
        zeroed = buf <= 0.0  # downgradient
        neighbour_apply(np.multiply, d2, 0, d2, -1, d, kink)
        np.minimum(kink, neighbour_apply(np.multiply, d2, -1, d2, -2, d, buf), out=kink)
        np.minimum(kink, neighbour_apply(np.multiply, d2, 0, d2, 1, d, buf), out=kink)
        zeroed &= kink < 0.0
        speed = np.abs(u_faces[d])
        factor = speed * h / 2.0 * (1.0 - speed * dt / h)  # (|u| h/2)(1 - sigma_face)
        d2_sum = np.abs(neighbour_apply(np.add, d2, -1, d2, 0, d, buf), out=buf)
        np.multiply(factor, d2_sum, out=dissipation)
        dissipation /= 2.0
        zeroed &= np.abs(Ad, out=buf) <= dissipation
        if o is not Ad:
            np.copyto(o, Ad)
        np.copyto(o, 0.0, where=zeroed)
    return out


def _line_extremes(c, radius, reducer, axis):
    """Reductions of ``c`` over the windows [i-m, i+m] along ``axis``.

    One array per m = 1..radius, each built from the one before.
    """
    acc, out = c, []
    for m in range(1, radius + 1):
        pair = neighbour_apply(reducer, c, -m, c, m, axis, np.empty_like(c))
        acc = reducer(acc, pair, out=pair)
        out.append(acc)
    return out


def _box_extremes(c, radius, reducer):
    """Separable box reductions over the (2m+1)^dim blocks, m = 1..radius.

    The boxes share their first-axis pass: its radius-m line is the
    radius-(m-1) line reduced with one more pair.
    """
    boxes = _line_extremes(c, radius, reducer, 0)
    for axis in range(1, c.ndim):
        boxes = [_line_extremes(b, m, reducer, axis)[-1] for m, b in enumerate(boxes, 1)]
    return boxes


def bounds_stencil_size(u_faces, sigma):
    """Per-cell window radius: 2 where sigma*max_d|u_d| >= 0.5, else 1.

    ``u_faces`` are the face velocities, u_d read at the cell's left face
    along d (for both supported fields, the cell's own velocity), in any
    shapes that broadcast together; the radius takes their broadcast
    shape, so compact velocities give a compact radius.
    sigma*max_d|u_d| is the local Courant number only where the run's
    maximum speed is 1: under rotation on the unit square (maximum speed
    pi) radius 2 is taken where |u| dt/h >= 0.5/pi, about 0.16.

    Small windows near stagnation keep high CFL runs sharp; wide windows in
    fast regions keep low CFL runs from over-diffusing.
    """
    speed = np.abs(u_faces[0])
    for u in u_faces[1:]:
        speed = np.maximum(speed, np.abs(u))
    return np.where(sigma * speed >= 0.5, 2, 1)


def compute_bounds(qn, q_td, u_faces, sigma, out):
    """Windowed bounds from both the old and transported-diffused states.

    Returns ``(q_max, q_min)`` over the [2s+1]^dim block around each
    cell, s from ``bounds_stencil_size`` of the face velocities
    ``u_faces`` (which may be compact: s is read by broadcasting), with
    q_n and q_td together as the candidates.  They are written into the
    two arrays of ``out``.
    """
    wide = bounds_stencil_size(u_faces, sigma) == 2
    for reducer, bound in zip((np.maximum, np.minimum), out):
        narrow, broad = _box_extremes(reducer(qn, q_td), 2, reducer)
        np.copyto(narrow, broad, where=wide)
        np.copyto(bound, narrow)
        del narrow, broad  # before the next bound's boxes
    return out


def _directional_extremum_tests(q_td):
    """Per-dimension (smooth, constant) masks.

    smooth: the first difference changes sign within reach of cell i, and
    the total-variation test does not reject the neighborhood as a
    perturbed discontinuity.
    constant: the 3-point line along the dimension is flat to roundoff.
    """
    smooth, constant = [], []
    c = q_td
    dq, prod, buf, total = (np.empty(c.shape) for _ in range(4))
    for d in range(c.ndim):
        neighbour_apply(np.subtract, c, 0, c, -1, d, dq)  # q(i) - q(i-1)
        neighbour_apply(np.multiply, dq, 0, dq, 1, d, prod)
        neighbour_apply(np.multiply, dq, -1, dq, 2, d, buf)
        flips = np.minimum(prod, buf, out=prod) <= 0.0
        dqtot = np.abs(neighbour_apply(np.subtract, c, 2, c, -2, d, buf), out=buf)
        dqtot *= TV_SAFETY_FACTOR
        abs_dq = np.abs(dq, out=dq)
        tv = neighbour_apply(np.add, abs_dq, 2, abs_dq, 1, d, prod)
        tv += abs_dq
        tv = neighbour_apply(np.add, tv, 0, abs_dq, -1, d, total)
        smooth.append(flips & (dqtot < tv))
        line_max = neighbour_apply(np.maximum, c, -1, c, 0, d, buf)
        line_max = neighbour_apply(np.maximum, line_max, 0, c, 1, d, tv)
        line_min = neighbour_apply(np.minimum, c, -1, c, 0, d, prod)
        line_min = neighbour_apply(np.minimum, line_min, 0, c, 1, d, dq)
        line_max -= c
        line_min -= c
        flat = np.maximum(np.abs(line_max, out=line_max), np.abs(line_min, out=line_min),
                          out=line_max)
        constant.append(flat <= CONSTANCY_TOL)
    return smooth, constant


def smooth_extremum_flags(field):
    """Cells at a smoothly varying extremum of the given state.

    A cell qualifies when every dimension is either itself flagged smooth
    or constant along its 3-point line, and at least one dimension is
    flagged smooth.  The limited step intersects the masks of the old and
    transported-diffused states: the low-order diffusion can smear a
    nearby discontinuity's signature out of the total-variation window
    (most visibly at 2D corners), so a cell must look smooth in both
    states before its bounds are relaxed.
    """
    smooth, constant = _directional_extremum_tests(field)
    any_smooth = smooth[0].copy()
    all_ok = smooth[0] | constant[0]
    for d in range(1, field.ndim):
        any_smooth |= smooth[d]
        all_ok &= smooth[d] | constant[d]
    return all_ok & any_smooth


def _limited_curvature(d2, axis):
    """Minmod of the three second differences along an axis.

    Zero unless all three share a sign; magnitude is the smallest.  The
    parabolic extremum estimate extrapolates with this curvature, so a
    sign-inconsistent neighborhood (a jump foot, a short dispersive wave)
    contributes no relaxation at all, and a consistent one contributes at
    most its mildest curvature.
    """
    above, below = d2 > 0, d2 < 0
    pos = neighbour_apply(np.logical_and, above, -1, above, 1, axis, np.empty(d2.shape, bool))
    pos &= above
    neg = neighbour_apply(np.logical_and, below, -1, below, 1, axis, np.empty(d2.shape, bool))
    neg &= below
    mag = np.abs(d2)
    inner = neighbour_apply(np.minimum, mag, 0, mag, 1, axis, np.empty(d2.shape))
    out = neighbour_apply(np.minimum, mag, -1, inner, 0, axis, np.empty(d2.shape))
    np.negative(out, out=out, where=neg)
    np.copyto(out, 0.0, where=~(pos | neg))
    return out


def extremum_bound_correction(flags, qn, d2q, q_max, scale, out):
    """The upper bound relaxed at flagged cells using a local parabola.

    Per dimension, the parabola through the three old-time cell values is
    evaluated at its vertex (clamped to the cell) and deconvolved to a
    point estimate with the -d2q/24 term; concave dimensions propose a new
    upper bound of the cell value plus twice the distance to the extremum
    estimate.  Three safeguards keep the relaxation from outrunning the
    data: the curvature is minmod-limited (see above), curvature below
    CURVATURE_FLOOR_REL of the field scale ``scale`` (max|qn|, which a
    window of the grid must take from the whole grid) is ignored,
    and the grown bound is capped at the windowed bound plus the limited
    curvature magnitude,
    which is several times the real headroom a resolved extremum needs
    between steps.  The correction never tightens below the windowed
    bounds, and unflagged cells keep their bounds bitwise.

    The lower bound needs no correction: the augmentation formula adds
    min(0, 2|q_ext - q_n|) = 0, i.e. it replaces the lower bound with the
    old cell value, and under the never-tighten rule that is the windowed
    bound itself.  The asymmetry means smooth minima are not protected
    from clipping the way maxima are, and it is what makes undershoot
    growth below the running window floor structurally impossible.

    The bound is written into ``out``, which may be ``q_max`` itself.
    """
    c = qn
    floor = CURVATURE_FLOOR_REL * scale
    ext_hi = np.full(c.shape, -np.inf)
    margin = np.zeros(c.shape)
    any_concave = np.zeros(c.shape, dtype=bool)
    for d in range(c.ndim):
        _fold_axis_extremum(c, d2q[d], d, floor, ext_hi, margin, any_concave)
    grow = np.subtract(ext_hi, c, out=ext_hi)
    grow *= EXTREMUM_GROWTH_FACTOR
    np.maximum(0.0, grow, out=grow)
    grow += c
    np.minimum(grow, np.add(q_max, margin, out=margin), out=grow)
    np.maximum(q_max, grow, out=grow)
    if out is not q_max:
        np.copyto(out, q_max)
    np.copyto(out, grow, where=flags & any_concave)
    return out


def _fold_axis_extremum(c, d2, axis, floor, ext_hi, margin, any_concave):
    """One axis of ``extremum_bound_correction``, folded in place into its
    running extremum estimate ``ext_hi``, curvature ``margin`` and
    ``any_concave``; the axis's own arrays are released on return."""
    d2lim = _limited_curvature(d2, axis)
    slope = neighbour_apply(np.subtract, c, 1, c, -1, axis, np.empty(c.shape))
    slope *= 0.5
    buf = np.abs(d2lim)
    usable = buf > floor
    denom = np.multiply(2.0, d2lim, out=buf)
    np.copyto(denom, 1.0, where=~usable)
    xc = np.negative(slope)
    xc /= denom
    np.copyto(xc, 0.0, where=~usable)
    np.clip(xc, -0.5, 0.5, out=xc)
    q_ext = np.multiply(0.5, d2lim, out=buf)
    q_ext *= xc
    q_ext *= xc
    slope *= xc
    q_ext += slope
    q_ext += c
    q_ext -= np.divide(d2lim, 24.0, out=slope)
    concave = usable & (d2lim <= 0.0)
    np.copyto(q_ext, -np.inf, where=~concave)
    np.maximum(ext_hi, q_ext, out=ext_hi)
    curvature = np.abs(d2lim, out=d2lim)
    np.copyto(curvature, 0.0, where=~concave)
    np.maximum(margin, curvature, out=margin)
    any_concave |= concave


def laplacian_flags(d2q, h, q_td):
    """Oscillating-extremum mask: curvature flips sign across the extremum.

    A cell qualifies when the discrete Laplacian (summed second
    differences over h^2) takes both strict signs within the 3^dim block
    around it AND, in some dimension, the cell brackets a first-difference
    sign change of the transported solution with the second difference
    along that same dimension also taking both strict signs within one
    cell.  That is the signature of a curvature oscillation riding an
    extremum (dispersive ripples, staircasing) rather than a resolved
    smooth extremum; the limited step zeroes the least-upper-bound
    multipliers where this mask meets the smooth-extremum flags.

    The two extremum conditions keep the mask off smooth features whose
    Laplacian merely crosses zero nearby: without them, the benign
    inflection rings and ridge lines of a resolved bump are flagged every
    step and the repeated fallback to the low-order flux drags the feature
    to first order.
    """
    lap = d2q[0].copy()
    for d in range(1, q_td.ndim):
        lap += d2q[d]
    lap /= h * h
    (lap_pos,) = _box_extremes(lap > 0.0, 1, np.logical_or)
    (lap_neg,) = _box_extremes(lap < 0.0, 1, np.logical_or)
    del lap
    oscillating = np.zeros(q_td.shape, dtype=bool)
    dq, buf = np.empty(q_td.shape), np.empty(q_td.shape)
    for d in range(q_td.ndim):
        neighbour_apply(np.subtract, q_td, 0, q_td, -1, d, dq)
        dq *= neighbour_apply(np.subtract, q_td, 1, q_td, 0, d, buf)
        bracket = dq <= 0.0
        (any_pos,) = _line_extremes(d2q[d] > 0.0, 1, np.logical_or, d)
        (any_neg,) = _line_extremes(d2q[d] < 0.0, 1, np.logical_or, d)
        oscillating |= bracket & any_pos & any_neg
    return oscillating & lap_pos & lap_neg


def compute_pqr(A, q_td, q_max, q_min, flagged, dt, h, out):
    """Least-upper-bound multipliers for the antidiffusive correction.

    P gathers the antidiffusive flux into (+) and out of (-) each cell, Q
    measures the headroom to the bound scaled by h/dt, and R caps their
    ratio at one (zero where no inflow/outflow, and zero at flagged cells).
    ``(R_in, R_out)`` are written into the two arrays of ``out``, which may
    be ``(q_max, q_min)`` themselves.
    """
    P_in = np.zeros(q_td.shape)
    P_out = np.zeros(q_td.shape)
    buf, into, out_of = (np.empty(q_td.shape) for _ in range(3))
    for d in range(q_td.ndim):
        np.maximum(A[d], 0.0, out=into)
        np.minimum(A[d], 0.0, out=out_of)
        # shift 0 is the cell's left face and shift 1 its right face
        P_in += neighbour_apply(np.subtract, into, 0, out_of, 1, d, buf)
        P_out += neighbour_apply(np.subtract, into, 1, out_of, 0, d, buf)
    del buf, into, out_of
    R_in, R_out = out
    np.subtract(q_max, q_td, out=R_in)
    np.subtract(q_td, q_min, out=R_out)
    for P, R in ((P_in, R_in), (P_out, R_out)):
        active = P > 0.0
        np.copyto(P, 1.0, where=~active)
        R *= h / dt  # Q
        R /= P
        np.minimum(1.0, R, out=R)
        active &= ~flagged
        np.copyto(R, 0.0, where=~active)
    return R_in, R_out


def hybridize(A, R_in, R_out, out):
    """Per-face hybridization coefficients, the most restrictive choice.

    A positive antidiffusive flux raises the right cell and lowers the left
    one, so it is capped by min(R_in(right), R_out(left)); the opposite
    orientation swaps the roles.  Faces with A == 0 take the second branch,
    where the value is irrelevant.  The coefficients are written into the
    arrays of ``out``, one per axis.
    """
    raising = np.empty(R_in.shape)
    for d, eta in enumerate(out):
        # shift 0 is a face's right cell and shift -1 its left cell
        neighbour_apply(np.minimum, R_in, -1, R_out, 0, d, eta)
        neighbour_apply(np.minimum, R_in, 0, R_out, -1, d, raising)
        np.copyto(eta, raising, where=A[d] > 0.0)
    return out


def limiter_window(A, dt, h, scale, scratch, active):
    """The ``periodic_window`` of the faces the limiter must see, or None.

    A face is active where |A| dt/h > ANTIDIFFUSION_TOL * scale.  The
    window's core holds every active face, and it pads the core by
    LIMITER_REACH cells per side.  ``scratch`` is a grid array to work in
    and ``active`` one boolean grid array per axis, which receive the
    active faces.
    """
    for a, mask in zip(A, active):
        np.abs(a, out=scratch)
        scratch *= dt / h
        np.greater(scratch, ANTIDIFFUSION_TOL * scale, out=mask)
    return periodic_window(active, LIMITER_REACH)


def high_order_crop(abs_q, scale, scheme, mask):
    """The ``periodic_window`` the high-order fluxes are computed on, or None.

    Its core holds every cell with |q| > ANTIDIFFUSION_TOL * scale (from
    ``abs_q``, the grid array |q|, into the boolean ``mask``).  It is the
    core padded by exactly the RK4 reach R (``rk4_reach``) plus one face
    per side, sized as the limiter window is: a face more than R cells
    from every core cell gets a flux of the negligible cells alone, and
    the crop's own periodic wrap reads only padding cells, negligible too.
    """
    np.greater(abs_q, ANTIDIFFUSION_TOL * scale, out=mask)
    return periodic_window((mask,), rk4_reach(scheme) + 1)


def high_order_fluxes(qn, flow, dt, scheme, ws, crop):
    """``rk4_high_order_step``'s fluxes, on the window ``crop`` of the grid.

    The step runs on a copy of ``qn`` on the crop, with the crop's
    ``FaceFlow`` and buffers carved from ``ws`` (``Workspace.crop``); the
    fluxes are written into ``ws.flux_high``, 0 outside the crop.  With
    no crop, a crop that is the whole grid or one whose buffers do not
    fit, the step runs on the whole grid.
    """
    crop_ws = None if crop is None or crop.whole else ws.crop(qn, crop.shape)
    if crop_ws is None:
        return rk4_high_order_step(qn, flow, dt, scheme, ws)
    q_crop = crop(qn, out=crop_ws.frames[0])
    fluxes = rk4_high_order_step(q_crop, crop_flow(flow, crop), dt, scheme, crop_ws)
    for F, f in zip(ws.flux_high, fluxes):
        F.fill(0.0)
        crop.paste(F, f)
    return ws.flux_high


def fct_advance(qn, flow, dt, sigma, scheme, ws, limiter="on"):
    """One full time step.  Returns ``(q_new, etas)``.

    ``flow`` is the run's ``FaceFlow`` (face velocities, upwind signs and
    product-rule weights, see ``schemes.face_flow``), the only velocity
    the step reads.

    limiter="on"       hybridized update (the default method)
    limiter="off"      pure unlimited high-order update
    limiter="off-low"  pure CTU update (diagnostic)

    ``limiter`` is checked before any flux is computed.  In both modes
    with high-order fluxes, those run on ``high_order_crop``'s crop only
    (``high_order_fluxes``) and faces outside it get F_high = 0, which
    changes the step only at the level of the negligible cells.
    With the limiter on, the limiter phases run on ``limiter_window``'s
    window only; faces outside its core get eta = 0, and with no active
    face the step returns the transported-diffused state.

    Every whole-grid array of the step is a buffer of ``ws``, the run's
    ``Workspace``, and so is every window array that lives from one
    limiter phase to the next (``Workspace.window_buffers``, carved from
    ``ws.face`` and ``ws.scratch`` where they fit).  ``qn`` is only read;
    ``q_new`` is ``ws.next_frame(qn)`` and the whole-grid ``etas`` are
    ``ws.flux``, so both stay valid until the next step with the same
    workspace.
    """
    if limiter not in LIMITER_MODES:
        raise ValueError(
            f"unknown limiter mode {limiter!r}; expected one of {', '.join(LIMITER_MODES)}"
        )
    grid, h = flow.grid, flow.grid.h
    if limiter == "off-low":
        F_low = ctu_fluxes(qn, flow, dt, ws)
        return low_order_update(qn, F_low, dt, grid, ws), None
    scale = float(np.max(np.abs(qn, out=ws.face)))
    crop = high_order_crop(ws.face, scale, scheme, ws.active[0])
    F_high = high_order_fluxes(qn, flow, dt, scheme, ws, crop)
    if limiter == "off":
        return low_order_update(qn, F_high, dt, grid, ws), None

    F_low = ctu_fluxes(qn, flow, dt, ws)
    q_td = low_order_update(qn, F_low, dt, grid, ws)
    A = antidiffusive(F_high, F_low, F_high)
    # F_low's storage is free once A is formed
    etas = ws.flux
    for eta in etas:
        eta.fill(0.0)
    window = limiter_window(A, dt, h, scale, ws.face, ws.active)
    if window is None:
        return q_td, etas
    # d2q per axis, q_max, q_min and, unless the window is the whole grid
    # (which is read in place), the window's copies of qn, q_td and A;
    # later results take storage that is dead by then
    dim, grid_arrays = qn.ndim, (qn, q_td, *A)
    buffers = ws.window_buffers(window.shape, dim + 2 + (0 if window.whole else 2 + dim))
    d2q, (q_max, q_min), copies = buffers[:dim], buffers[dim:dim + 2], buffers[dim + 2:]
    qn_w, td_w, *A_w = map(window, grid_arrays, copies) if copies else grid_arrays
    u_w = tuple(map(window.view, flow.u_faces))
    second_differences(qn_w, out=d2q)
    A_w = preconstrain(A_w, td_w, d2q, u_w, dt, h, out=A_w)
    compute_bounds(qn_w, td_w, u_w, sigma, out=(q_max, q_min))
    flags = smooth_extremum_flags(td_w) & smooth_extremum_flags(qn_w)
    extremum_bound_correction(flags, qn_w, d2q, q_max, scale, out=q_max)
    oscillating = flags & laplacian_flags(d2q, h, td_w)
    R_in, R_out = compute_pqr(A_w, td_w, q_max, q_min, oscillating, dt, h, out=(q_max, q_min))
    # the limited antidiffusion on the window, in A_w: eta * A at the
    # core faces, zero elsewhere, as it is on the rest of the grid
    for a_w, eta, eta_w in zip(A_w, etas, hybridize(A_w, R_in, R_out, out=d2q)):
        for in_grid, in_window in window.core:
            core_eta = eta_w[in_window]
            if not np.all((core_eta >= 0.0) & (core_eta <= 1.0)):
                raise AssertionError("hybridization coefficient left [0, 1]")
            eta[in_grid] = core_eta
            core_eta *= a_w[in_window]
        a_w.fill(0.0)
        for _, in_window in window.core:
            a_w[in_window] = eta_w[in_window]
    # q_td's storage is free once the bounds are built; cells outside the
    # window keep q_td, and inside it each cell sees the same sum as on
    # the whole grid
    window.subtract(q_td, flux_divergence(grid, A_w, dt, R_in, R_out))
    return q_td, etas
