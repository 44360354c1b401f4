"""Flux-corrected transport hybridization of high- and low-order fluxes.

One limited step runs, in order: high-order RK4 fluxes; CTU fluxes and the
transported-diffused update; antidiffusive fluxes; pre-constraint; solution
bounds with parabolic relaxation at smooth extrema; oscillating-extremum
flags; the P/Q/R least-upper-bound machinery; per-face hybridization
coefficients; and the final conservative correction.

Alignment reminders (see grid.py): face array index k along axis d lies
between cells k-1 and k, so for quantities stored per cell,

    cell i   -> np.roll(c, 1, axis=d)        (the face's left cell)
    cell i+1 -> c                            (the face's right cell)
    cell i-1 -> np.roll(c, 2, axis=d)
    cell i+2 -> np.roll(c, -1, axis=d)

while for face quantities seen from cell i, the left face is the array
itself and the right face is np.roll(F, -1, axis=d).
"""

import numpy as np

from .grid import CellField, flux_divergence
from .highorder import rk4_high_order_step
from .loworder import ctu_fluxes, low_order_update

EXTREMUM_GROWTH_FACTOR = 2.0
TV_SAFETY_FACTOR = 1.25
CONSTANCY_TOL = 1e-14
# Curvature below this fraction of the field scale earns no bound
# relaxation.  Sub-scale wiggles carry no accuracy stakes, but relaxing
# bounds around them lets roundoff- and wake-level noise creep past the
# hard windowed bounds step after step.
CURVATURE_FLOOR_REL = 1e-6
LIMITER_MODES = ("on", "off", "off-low")


def second_differences(q):
    """Per-dimension centered second differences of a cell field."""
    c = q.interior
    return tuple(
        np.roll(c, -1, axis=d) - 2.0 * c + np.roll(c, 1, axis=d)
        for d in range(q.grid.dim)
    )


def antidiffusive(F_high, F_low):
    """High-order minus low-order flux, per dimension per face."""
    return tuple(fh - fl for fh, fl in zip(F_high, F_low))


def preconstrain(A, q_td, d2q, u_faces, dt, grid):
    """Zero antidiffusive fluxes that would steepen a detected discontinuity.

    A face is zeroed only when all three hold:
      1. the flux is directed down the local gradient of the transported-
         diffused solution (it would create or accentuate an extremum);
      2. the second difference changes sign among the four cells around
         the face (discontinuity signature, strict inequality);
      3. the flux magnitude is no larger than the low-order scheme's own
         modified-equation dissipation across the face, (|u| h / 2) *
         (1 - sigma_face) * |avg of adjacent second differences|.
    """
    td = q_td.interior
    out = []
    for d in range(grid.dim):
        Ad = A[d]
        d2 = d2q[d]
        d2_i = np.roll(d2, 1, axis=d)
        d2_ip1 = d2
        d2_im1 = np.roll(d2, 2, axis=d)
        d2_ip2 = np.roll(d2, -1, axis=d)
        jump = td - np.roll(td, 1, axis=d)  # q_td(i+1) - q_td(i) at face k
        downgradient = Ad * jump <= 0.0
        kinked = (
            np.minimum(
                np.minimum(d2_ip1 * d2_i, d2_i * d2_im1), d2_ip1 * d2_ip2
            )
            < 0.0
        )
        sigma_face = np.abs(u_faces[d]) * dt / grid.h
        dissipation = (
            (np.abs(u_faces[d]) * grid.h / 2.0)
            * (1.0 - sigma_face)
            * np.abs(d2_i + d2_ip1)
            / 2.0
        )
        small = np.abs(Ad) <= dissipation
        out.append(np.where(downgradient & kinked & small, 0.0, Ad))
    return tuple(out)


def _window_extreme(c, radius, reducer):
    """Separable box max/min over the (2*radius+1)^dim neighborhood."""
    out = c
    for axis in range(c.ndim):
        acc = out
        for m in range(1, radius + 1):
            acc = reducer(acc, reducer(np.roll(out, m, axis), np.roll(out, -m, axis)))
        out = acc
    return out


def bounds_stencil_size(u_cell, sigma):
    """Per-cell window radius: 2 where sigma*max_d|u_d| >= 0.5, else 1.

    Small windows near stagnation keep high CFL runs sharp; wide windows in
    fast regions keep low CFL runs from over-diffusing.
    """
    speed = np.abs(u_cell[0])
    for uc in u_cell[1:]:
        speed = np.maximum(speed, np.abs(uc))
    return np.where(sigma * speed >= 0.5, 2, 1)


def compute_bounds(qn, q_td, u_cell, sigma):
    """Windowed bounds from both the old and transported-diffused states.

    Returns ``(q_max, q_min, s)`` where the window is the [2s+1]^dim block
    around each cell and the candidates are q_n and q_td together.
    """
    hi = np.maximum(qn.interior, q_td.interior)
    lo = np.minimum(qn.interior, q_td.interior)
    s = bounds_stencil_size(u_cell, sigma)
    q_max = np.where(
        s == 2,
        _window_extreme(hi, 2, np.maximum),
        _window_extreme(hi, 1, np.maximum),
    )
    q_min = np.where(
        s == 2,
        _window_extreme(lo, 2, np.minimum),
        _window_extreme(lo, 1, np.minimum),
    )
    return q_max, q_min, s


def _directional_extremum_tests(q_td, grid):
    """Per-dimension (sign_change, smooth, constant) masks.

    sign_change: the first difference changes sign within reach of cell i.
    smooth: sign_change plus the total-variation test that rejects cells
    whose neighborhood looks like a perturbed discontinuity.
    constant: the 3-point line along the dimension is flat to roundoff.
    """
    td = q_td.interior
    sign_change, smooth, constant = [], [], []
    for d in range(grid.dim):
        dq = td - np.roll(td, 1, axis=d)  # q(i) - q(i-1), cell aligned
        dq_p1 = np.roll(dq, -1, axis=d)
        dq_m1 = np.roll(dq, 1, axis=d)
        dq_p2 = np.roll(dq, -2, axis=d)
        flips = np.minimum(dq * dq_p1, dq_m1 * dq_p2) <= 0.0
        dqtot = np.abs(np.roll(td, -2, axis=d) - np.roll(td, 2, axis=d))
        tv = np.abs(dq_p2) + np.abs(dq_p1) + np.abs(dq) + np.abs(dq_m1)
        sign_change.append(flips)
        smooth.append(flips & (TV_SAFETY_FACTOR * dqtot < tv))
        line_max = np.maximum(np.maximum(np.roll(td, 1, axis=d), td),
                              np.roll(td, -1, axis=d))
        line_min = np.minimum(np.minimum(np.roll(td, 1, axis=d), td),
                              np.roll(td, -1, axis=d))
        flat = np.maximum(np.abs(line_max - td), np.abs(line_min - td)) <= CONSTANCY_TOL
        constant.append(flat)
    return sign_change, smooth, constant


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
    grid = field.grid
    _, smooth, constant = _directional_extremum_tests(field, grid)
    any_smooth = smooth[0].copy()
    all_ok = smooth[0] | constant[0]
    for d in range(1, grid.dim):
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
    lo = np.roll(d2, 1, axis=axis)
    hi = np.roll(d2, -1, axis=axis)
    pos = (lo > 0) & (d2 > 0) & (hi > 0)
    neg = (lo < 0) & (d2 < 0) & (hi < 0)
    mag = np.minimum(np.abs(lo), np.minimum(np.abs(d2), np.abs(hi)))
    return np.where(pos, mag, np.where(neg, -mag, 0.0))


def extremum_bound_correction(flags, qn, d2q, q_max, q_min):
    """Relax the upper bound at flagged cells using a local parabola.

    Per dimension, the parabola through the three old-time cell values is
    evaluated at its vertex (clamped to the cell) and deconvolved to a
    point estimate with the -d2q/24 term; concave dimensions propose a new
    upper bound of the cell value plus twice the distance to the extremum
    estimate.  Three safeguards keep the relaxation from outrunning the
    data: the curvature is minmod-limited (see above), curvature below
    CURVATURE_FLOOR_REL of the field scale is ignored, and the grown bound
    is capped at the windowed bound plus the limited curvature magnitude,
    which is several times the real headroom a resolved extremum needs
    between steps.  The correction never tightens below the windowed
    bounds, and unflagged cells keep their bounds bitwise.

    The lower bound is returned unchanged: the augmentation formula adds
    min(0, 2|q_ext - q_n|) = 0, i.e. it replaces the lower bound with the
    old cell value, and under the never-tighten rule that is the windowed
    bound itself.  The asymmetry means smooth minima are not protected
    from clipping the way maxima are, and it is what makes undershoot
    growth below the running window floor structurally impossible.
    """
    grid = qn.grid
    c = qn.interior
    scale = float(np.max(np.abs(c))) if c.size else 0.0
    floor = CURVATURE_FLOOR_REL * scale
    ext_hi = np.full(grid.shape, -np.inf)
    margin = np.zeros(grid.shape)
    any_concave = np.zeros(grid.shape, dtype=bool)
    for d in range(grid.dim):
        d2lim = _limited_curvature(d2q[d], d)
        slope = 0.5 * (np.roll(c, -1, axis=d) - np.roll(c, 1, axis=d))
        usable = np.abs(d2lim) > floor
        denom = np.where(usable, 2.0 * d2lim, 1.0)
        xc = np.clip(np.where(usable, -slope / denom, 0.0), -0.5, 0.5)
        q_ext = 0.5 * d2lim * xc * xc + slope * xc + c - d2lim / 24.0
        concave = usable & (d2lim <= 0.0)
        ext_hi = np.maximum(ext_hi, np.where(concave, q_ext, -np.inf))
        margin = np.maximum(margin, np.where(concave, np.abs(d2lim), 0.0))
        any_concave |= concave
    grow = np.minimum(
        c + np.maximum(0.0, EXTREMUM_GROWTH_FACTOR * (ext_hi - c)),
        q_max + margin,
    )
    new_max = np.where(flags & any_concave, np.maximum(q_max, grow), q_max)
    return new_max, q_min


def laplacian_flags(qn, d2q, q_td=None):
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
    grid = qn.grid
    lap = d2q[0].copy()
    for d in range(1, grid.dim):
        lap += d2q[d]
    lap /= grid.h * grid.h
    lap_pos = _window_extreme(lap > 0.0, 1, np.logical_or)
    lap_neg = _window_extreme(lap < 0.0, 1, np.logical_or)
    probe = (q_td if q_td is not None else qn).interior
    oscillating = np.zeros(grid.shape, dtype=bool)
    for d in range(grid.dim):
        dq = probe - np.roll(probe, 1, axis=d)
        bracket = dq * np.roll(dq, -1, axis=d) <= 0.0
        pos = d2q[d] > 0.0
        neg = d2q[d] < 0.0
        any_pos = pos | np.roll(pos, 1, axis=d) | np.roll(pos, -1, axis=d)
        any_neg = neg | np.roll(neg, 1, axis=d) | np.roll(neg, -1, axis=d)
        oscillating |= bracket & any_pos & any_neg
    return oscillating & lap_pos & lap_neg


def compute_pqr(A, q_td, q_max, q_min, flagged, dt, grid):
    """Least-upper-bound multipliers for the antidiffusive correction.

    P gathers the antidiffusive flux into (+) and out of (-) each cell, Q
    measures the headroom to the bound scaled by h/dt, and R caps their
    ratio at one (zero where no inflow/outflow, and zero at flagged cells).
    """
    h, dim = grid.h, grid.dim
    P_in = np.zeros(grid.shape)
    P_out = np.zeros(grid.shape)
    for d in range(dim):
        left = A[d]
        right = np.roll(A[d], -1, axis=d)
        P_in += np.maximum(left, 0.0) - np.minimum(right, 0.0)
        P_out += np.maximum(right, 0.0) - np.minimum(left, 0.0)
    td = q_td.interior
    Q_in = (q_max - td) * (h / dt)
    Q_out = (td - q_min) * (h / dt)
    R_in = np.where(P_in > 0.0, np.minimum(1.0, Q_in / np.where(P_in > 0.0, P_in, 1.0)), 0.0)
    R_out = np.where(P_out > 0.0, np.minimum(1.0, Q_out / np.where(P_out > 0.0, P_out, 1.0)), 0.0)
    R_in = np.where(flagged, 0.0, R_in)
    R_out = np.where(flagged, 0.0, R_out)
    return R_in, R_out


def hybridize(A, R_in, R_out, grid):
    """Per-face hybridization coefficients, the most restrictive choice.

    A positive antidiffusive flux raises the right cell and lowers the left
    one, so it is capped by min(R_in(right), R_out(left)); the opposite
    orientation swaps the roles.  Faces with A == 0 take the second branch,
    where the value is irrelevant.
    """
    etas = []
    for d in range(grid.dim):
        r_in_right = R_in
        r_in_left = np.roll(R_in, 1, axis=d)
        r_out_right = R_out
        r_out_left = np.roll(R_out, 1, axis=d)
        eta = np.where(
            A[d] > 0.0,
            np.minimum(r_in_right, r_out_left),
            np.minimum(r_in_left, r_out_right),
        )
        etas.append(eta)
    return tuple(etas)


def fct_advance(
    qn,
    flow,
    u_cell,
    dt,
    sigma,
    scheme,
    limiter="on",
    preconstraint=True,
    force_eta=None,
):
    """One full time step.  Returns ``(q_new, etas)``.

    ``flow`` is the run's ``FaceFlow`` (face velocities, upwind signs and
    product-rule weights, see ``schemes.face_flow``).

    limiter="on"       hybridized update (the default method)
    limiter="off"      pure unlimited high-order update
    limiter="off-low"  pure CTU update (diagnostic)

    ``force_eta`` overrides the computed hybridization coefficient with a
    constant in [0, 1] (0 recovers CTU bitwise, 1 with
    ``preconstraint=False`` recovers the high-order update to roundoff).
    Both arguments are checked before any flux is computed.
    """
    if limiter not in LIMITER_MODES:
        raise ValueError(
            f"unknown limiter mode {limiter!r}; expected one of {', '.join(LIMITER_MODES)}"
        )
    if force_eta is not None and not 0.0 <= force_eta <= 1.0:
        raise ValueError(f"force_eta must lie in [0, 1], got {force_eta!r}")
    grid = qn.grid
    u_faces = flow.u_faces
    if limiter == "off-low":
        F_low = ctu_fluxes(qn, u_faces, dt, grid)
        return low_order_update(qn, F_low, dt), None
    q_high, F_high = rk4_high_order_step(qn, flow, dt, scheme)
    if limiter == "off":
        return q_high, None
    del q_high

    F_low = ctu_fluxes(qn, u_faces, dt, grid)
    q_td = low_order_update(qn, F_low, dt)
    A = antidiffusive(F_high, F_low)
    # the bounds and flags phases below set the step's memory peak
    del F_high, F_low
    d2q = second_differences(qn)
    if preconstraint:
        A = preconstrain(A, q_td, d2q, u_faces, dt, grid)

    if force_eta is not None:
        etas = tuple(np.full(grid.shape, float(force_eta)) for _ in range(grid.dim))
    else:
        q_max, q_min, _ = compute_bounds(qn, q_td, u_cell, sigma)
        flags = smooth_extremum_flags(q_td) & smooth_extremum_flags(qn)
        q_max, q_min = extremum_bound_correction(flags, qn, d2q, q_max, q_min)
        oscillating = flags & laplacian_flags(qn, d2q, q_td=q_td)
        R_in, R_out = compute_pqr(A, q_td, q_max, q_min, oscillating, dt, grid)
        etas = hybridize(A, R_in, R_out, grid)
    for eta in etas:
        if not np.all((eta >= 0.0) & (eta <= 1.0)):
            raise AssertionError("hybridization coefficient left [0, 1]")
    limited = tuple(etas[d] * A[d] for d in range(grid.dim))
    q_new = CellField.from_interior(
        grid, q_td.interior - flux_divergence(grid, limited, dt)
    )
    return q_new, etas
