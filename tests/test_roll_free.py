"""The limited step's kernels against their np.roll forms, bit for bit.

The package reads periodic neighbours through flat slices of plain arrays
plus the wrapped runs (``grid.neighbour_apply``) and does its arithmetic in
place.  The references below
are the earlier forms, which roll whole arrays and build every
intermediate afresh, in the same operation order.  Random fields include
signed zeros, flat runs and exact zero face velocities, so every branch
and tie rule is exercised.
"""

import numpy as np
import pytest

from fvadvect import fct, loworder, schemes
from fvadvect.grid import Grid, Workspace, flux_divergence
from fvadvect.schemes import face_flow, scheme_coefficients
from fvadvect.velocity import SolidBodyRotation, face_average_velocity
from buffers import nan_buffer, nan_buffers


# ---------------------------------------------------------------- references


def ref_flux_divergence(g, fluxes, dt):
    out = np.zeros(g.shape)
    for d, F in enumerate(fluxes):
        out += np.roll(F, -1, axis=d) - F
    out *= dt / g.h
    return out


def ref_donor(values, u_face, d):
    """The upstream cell of each face: the left one where u >= 0."""
    return np.where(u_face >= 0.0, np.roll(values, 1, axis=d), values)


def ref_ctu_fluxes(qn, u_faces, dt, g):
    q = qn
    upwind_flux = [u_faces[d] * ref_donor(q, u_faces[d], d) for d in range(g.dim)]
    out = []
    for d in range(g.dim):
        transverse = np.zeros(g.shape)
        for dp in range(g.dim):
            if dp == d:
                continue
            G = upwind_flux[dp]
            transverse += np.roll(G, -1, axis=dp) - G
        q_tilde = q - (dt / (2.0 * g.h)) * transverse
        out.append(u_faces[d] * ref_donor(q_tilde, u_faces[d], d))
    return tuple(out)


def ref_face_interpolate(q, scheme, d, u_face):
    """Both orientations built from rolled interiors, then chosen per face."""
    c = q

    def stencil(mirrored):
        out = np.zeros(q.shape)
        for s, a in zip(scheme.offsets, scheme.coefficients):
            m = -s if mirrored else s - 1
            out += a * np.roll(c, -m, axis=d)
        return out

    if not scheme.is_upwind:
        return stencil(False)
    return np.where(u_face >= 0.0, stencil(False), stencil(True))


def _ref_differences(f, t):
    up1, dn1 = np.roll(f, -1, t), np.roll(f, 1, t)
    return up1 - dn1, np.roll(f, -2, t) - np.roll(f, 2, t), up1 + dn1 - 2.0 * f


def ref_product_rule_flux(q_face, u_face, order, d, g):
    """Weights from rolled velocity differences, then the rolled correction."""
    flux = q_face * u_face
    if order == 2 or g.dim == 1:
        return flux
    row = u_face.take([0], axis=d)
    u = row if np.all(u_face == row) else u_face
    for t in range(g.dim):
        if t == d:
            continue
        e1, e2, el = _ref_differences(u, t)
        up1, dn1 = np.roll(q_face, -1, t), np.roll(q_face, 1, t)
        if order == 4:
            w1 = schemes._ORDER4_D1D1 * e1
            if np.any(w1):
                flux += w1 * (up1 - dn1)
            continue
        w1 = schemes._ORDER6_D1D1 * e1 + schemes._ORDER6_D1D2 * e2
        w2 = schemes._ORDER6_D1D2 * e1 + schemes._ORDER6_D2D2 * e2
        w0 = schemes._ORDER6_LL * el
        if np.any(w1) or np.any(w2) or np.any(w0):
            flux += w1 * (up1 - dn1)
            flux += w2 * (np.roll(q_face, -2, t) - np.roll(q_face, 2, t))
            flux += w0 * (up1 + dn1 - 2.0 * q_face)
    return flux


def ref_second_differences(c):
    return tuple(
        np.roll(c, -1, axis=d) - 2.0 * c + np.roll(c, 1, axis=d)
        for d in range(c.ndim)
    )


def ref_antidiffusive(F_high, F_low):
    return tuple(fh - fl for fh, fl in zip(F_high, F_low))


def ref_preconstrain(A, q_td, d2q, u_faces, dt, g):
    td = q_td
    out = []
    for d in range(g.dim):
        Ad = A[d]
        d2 = d2q[d]
        d2_i = np.roll(d2, 1, axis=d)
        d2_ip1 = d2
        d2_im1 = np.roll(d2, 2, axis=d)
        d2_ip2 = np.roll(d2, -1, axis=d)
        jump = td - np.roll(td, 1, axis=d)
        downgradient = Ad * jump <= 0.0
        kinked = (
            np.minimum(np.minimum(d2_ip1 * d2_i, d2_i * d2_im1), d2_ip1 * d2_ip2)
            < 0.0
        )
        sigma_face = np.abs(u_faces[d]) * dt / g.h
        dissipation = (
            (np.abs(u_faces[d]) * g.h / 2.0)
            * (1.0 - sigma_face)
            * np.abs(d2_i + d2_ip1)
            / 2.0
        )
        small = np.abs(Ad) <= dissipation
        out.append(np.where(downgradient & kinked & small, 0.0, Ad))
    return tuple(out)


def ref_window_extreme(c, radius, reducer):
    out = c
    for axis in range(c.ndim):
        acc = out
        for m in range(1, radius + 1):
            acc = reducer(acc, reducer(np.roll(out, m, axis), np.roll(out, -m, axis)))
        out = acc
    return out


def ref_compute_bounds(qn, q_td, u_faces, sigma):
    hi = np.maximum(qn, q_td)
    lo = np.minimum(qn, q_td)
    s = fct.bounds_stencil_size(u_faces, sigma)
    q_max = np.where(
        s == 2, ref_window_extreme(hi, 2, np.maximum), ref_window_extreme(hi, 1, np.maximum)
    )
    q_min = np.where(
        s == 2, ref_window_extreme(lo, 2, np.minimum), ref_window_extreme(lo, 1, np.minimum)
    )
    return q_max, q_min


def ref_smooth_extremum_flags(td):
    smooth, constant = [], []
    for d in range(td.ndim):
        dq = td - np.roll(td, 1, axis=d)
        dq_p1 = np.roll(dq, -1, axis=d)
        dq_m1 = np.roll(dq, 1, axis=d)
        dq_p2 = np.roll(dq, -2, axis=d)
        flips = np.minimum(dq * dq_p1, dq_m1 * dq_p2) <= 0.0
        dqtot = np.abs(np.roll(td, -2, axis=d) - np.roll(td, 2, axis=d))
        tv = np.abs(dq_p2) + np.abs(dq_p1) + np.abs(dq) + np.abs(dq_m1)
        smooth.append(flips & (fct.TV_SAFETY_FACTOR * dqtot < tv))
        line_max = np.maximum(np.maximum(np.roll(td, 1, axis=d), td), np.roll(td, -1, axis=d))
        line_min = np.minimum(np.minimum(np.roll(td, 1, axis=d), td), np.roll(td, -1, axis=d))
        flat = np.maximum(np.abs(line_max - td), np.abs(line_min - td)) <= fct.CONSTANCY_TOL
        constant.append(flat)
    any_smooth = smooth[0].copy()
    all_ok = smooth[0] | constant[0]
    for d in range(1, td.ndim):
        any_smooth |= smooth[d]
        all_ok &= smooth[d] | constant[d]
    return all_ok & any_smooth


def _ref_limited_curvature(d2, axis):
    lo = np.roll(d2, 1, axis=axis)
    hi = np.roll(d2, -1, axis=axis)
    pos = (lo > 0) & (d2 > 0) & (hi > 0)
    neg = (lo < 0) & (d2 < 0) & (hi < 0)
    mag = np.minimum(np.abs(lo), np.minimum(np.abs(d2), np.abs(hi)))
    return np.where(pos, mag, np.where(neg, -mag, 0.0))


def ref_extremum_bound_correction(flags, c, d2q, q_max, scale):
    floor = fct.CURVATURE_FLOOR_REL * scale
    ext_hi = np.full(c.shape, -np.inf)
    margin = np.zeros(c.shape)
    any_concave = np.zeros(c.shape, dtype=bool)
    for d in range(c.ndim):
        d2lim = _ref_limited_curvature(d2q[d], d)
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
        c + np.maximum(0.0, fct.EXTREMUM_GROWTH_FACTOR * (ext_hi - c)), q_max + margin
    )
    return np.where(flags & any_concave, np.maximum(q_max, grow), q_max)


def ref_laplacian_flags(d2q, g, q_td):
    lap = d2q[0].copy()
    for d in range(1, g.dim):
        lap += d2q[d]
    lap /= g.h * g.h
    lap_pos = ref_window_extreme(lap > 0.0, 1, np.logical_or)
    lap_neg = ref_window_extreme(lap < 0.0, 1, np.logical_or)
    oscillating = np.zeros(g.shape, dtype=bool)
    for d in range(g.dim):
        dq = q_td - np.roll(q_td, 1, axis=d)
        bracket = dq * np.roll(dq, -1, axis=d) <= 0.0
        pos = d2q[d] > 0.0
        neg = d2q[d] < 0.0
        any_pos = pos | np.roll(pos, 1, axis=d) | np.roll(pos, -1, axis=d)
        any_neg = neg | np.roll(neg, 1, axis=d) | np.roll(neg, -1, axis=d)
        oscillating |= bracket & any_pos & any_neg
    return oscillating & lap_pos & lap_neg


def ref_compute_pqr(A, q_td, q_max, q_min, flagged, dt, g):
    h, dim = g.h, g.dim
    P_in = np.zeros(g.shape)
    P_out = np.zeros(g.shape)
    for d in range(dim):
        left = A[d]
        right = np.roll(A[d], -1, axis=d)
        P_in += np.maximum(left, 0.0) - np.minimum(right, 0.0)
        P_out += np.maximum(right, 0.0) - np.minimum(left, 0.0)
    td = q_td
    Q_in = (q_max - td) * (h / dt)
    Q_out = (td - q_min) * (h / dt)
    R_in = np.where(P_in > 0.0, np.minimum(1.0, Q_in / np.where(P_in > 0.0, P_in, 1.0)), 0.0)
    R_out = np.where(P_out > 0.0, np.minimum(1.0, Q_out / np.where(P_out > 0.0, P_out, 1.0)), 0.0)
    R_in = np.where(flagged, 0.0, R_in)
    R_out = np.where(flagged, 0.0, R_out)
    return R_in, R_out


def ref_hybridize(A, R_in, R_out, g):
    etas = []
    for d in range(g.dim):
        eta = np.where(
            A[d] > 0.0,
            np.minimum(R_in, np.roll(R_out, 1, axis=d)),
            np.minimum(np.roll(R_in, 1, axis=d), R_out),
        )
        etas.append(eta)
    return tuple(etas)


# ---------------------------------------------------------------- data


def assert_bitwise(got, want):
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for a, b in zip(got, want):
            assert_bitwise(a, b)
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def rough(rng, shape):
    """Random values with signed zeros and a flat run mixed in."""
    a = rng.standard_normal(shape)
    a[rng.random(shape) < 0.1] = 0.0
    a[rng.random(shape) < 0.1] = -0.0
    a[(slice(2, 6),) * len(shape)] = 0.75
    return a


def face_velocities(rng, g, kind):
    """Face velocities with exact zeros: one sign, a sign across the normal
    only (rotation-like) or a sign varying along it."""
    out = []
    for d in range(g.dim):
        if kind == "across" and g.dim == 2:
            across = np.arange(g.n) - g.n // 2.0  # one row of exact zeros
            scale = rng.uniform(0.5, 1.5, g.n)
            u = across[None, :] * scale[:, None] if d == 0 else across[:, None] * scale
        else:
            lo = 0.5 if kind == "uniform" else -1.0
            u = rng.uniform(lo, 1.5, g.shape)
            u[rng.random(g.shape) < 0.1] = 0.0
        out.append(u)
    return tuple(out)


CASES = [(1, 16), (2, 16)]
VELOCITIES = ("uniform", "across", "mixed")


@pytest.fixture(params=CASES, ids=lambda c: f"{c[0]}d")
def state(request):
    dim, n = request.param
    rng = np.random.default_rng(100 + dim)
    g = Grid(dim, n)
    qn = rough(rng, g.shape)
    q_td = qn + 0.1 * rough(rng, g.shape)
    return g, rng, qn, q_td


# ---------------------------------------------------------------- tests


class TestGridAndLowOrder:
    def test_flux_divergence(self, state):
        g, rng, _, _ = state
        fluxes = tuple(rough(rng, g.shape) for _ in range(g.dim))
        got = flux_divergence(g, fluxes, 0.3, *nan_buffers(fluxes[0], 2))
        assert_bitwise(got, ref_flux_divergence(g, fluxes, 0.3))

    @pytest.mark.parametrize("kind", VELOCITIES)
    def test_ctu_fluxes(self, state, kind):
        g, rng, qn, _ = state
        u_faces = face_velocities(rng, g, kind)
        dt = 0.4 * g.h
        flow = face_flow(u_faces, g, 2)
        assert_bitwise(loworder.ctu_fluxes(qn, flow, dt, Workspace(g)),
                       ref_ctu_fluxes(qn, u_faces, dt, g))


class TestSchemes:
    @pytest.mark.parametrize("kind", VELOCITIES)
    @pytest.mark.parametrize("name", ("c4", "u5", "c6", "u7", "u9", "donor"))
    def test_face_interpolate(self, state, kind, name):
        g, rng, qn, _ = state
        u_faces = face_velocities(rng, g, kind)
        flow = face_flow(u_faces, g, 2)
        blocks = {"uniform": 1, "across": 2 if g.dim == 2 else None, "mixed": None}[kind]
        s = schemes.DONOR if name == "donor" else scheme_coefficients(name)
        for d in range(g.dim):
            assert (flow.orientations[d] and len(flow.orientations[d])) == blocks
            got = schemes.face_interpolate(qn, s, d, flow, *nan_buffers(qn, 3))
            if s is schemes.DONOR:
                # the donor cell is copied as it is, signed zeros included
                assert_bitwise(got, ref_donor(qn, u_faces[d], d))
                assert np.any(np.signbit(got) & (got == 0.0))
            else:
                assert_bitwise(got, ref_face_interpolate(qn, s, d, u_faces[d]))

    @pytest.mark.parametrize("kind", VELOCITIES)
    @pytest.mark.parametrize("order", (2, 4, 6))
    def test_product_rule_flux(self, state, kind, order):
        g, rng, qn, _ = state
        u_faces = face_velocities(rng, g, kind)
        flow = face_flow(u_faces, g, order)
        for d in range(g.dim):
            q_face = rough(rng, g.shape)
            assert_bitwise(
                schemes.product_rule_flux(q_face, flow, d, *nan_buffers(q_face, 3)),
                ref_product_rule_flux(q_face, u_faces[d], order, d, g),
            )


class TestFctPhases:
    def test_second_differences(self, state):
        _, _, qn, _ = state
        got = fct.second_differences(qn, out=nan_buffers(qn, qn.ndim))
        assert_bitwise(got, ref_second_differences(qn))

    def test_antidiffusive(self, state):
        g, rng, _, _ = state
        F_high = tuple(rough(rng, g.shape) for _ in range(g.dim))
        F_low = tuple(rough(rng, g.shape) for _ in range(g.dim))
        got = fct.antidiffusive(F_high, F_low, out=nan_buffers(F_high[0], g.dim))
        assert_bitwise(got, ref_antidiffusive(F_high, F_low))

    @pytest.mark.parametrize("kind", VELOCITIES)
    def test_preconstrain(self, state, kind):
        g, rng, qn, q_td = state
        u_faces = face_velocities(rng, g, kind)
        d2q = ref_second_differences(qn)
        # antidiffusive fluxes of the size of the dissipation, so all three
        # conditions are met on some faces and missed on others
        A = tuple(0.05 * g.h * rough(rng, g.shape) for _ in range(g.dim))
        dt = 0.4 * g.h
        got = fct.preconstrain(A, q_td, d2q, u_faces, dt, g.h, out=nan_buffers(q_td, g.dim))
        want = ref_preconstrain(A, q_td, d2q, u_faces, dt, g)
        assert_bitwise(got, want)
        zeroed = sum(int(np.sum((a != 0) & (w == 0))) for a, w in zip(A, want))
        assert zeroed > 0

    def test_compute_bounds(self, state):
        g, rng, qn, q_td = state
        u_faces = tuple(rng.uniform(-1.0, 1.0, g.shape) for _ in range(g.dim))
        got = fct.compute_bounds(qn, q_td, u_faces, 0.9, out=nan_buffers(qn, 2))
        assert_bitwise(got, ref_compute_bounds(qn, q_td, u_faces, 0.9))
        s = fct.bounds_stencil_size(u_faces, 0.9)
        assert 1 in s and 2 in s

    def test_smooth_extremum_flags(self, state):
        g, _, qn, q_td = state
        x = g.cell_center_mesh()
        bump = np.cos(2 * np.pi * sum(x))
        for field in (qn, q_td, bump):
            got = fct.smooth_extremum_flags(field)
            assert_bitwise(got, ref_smooth_extremum_flags(field))
        assert got.any()

    def test_extremum_bound_correction(self, state):
        g, rng, qn, q_td = state
        x = g.cell_center_mesh()
        for field in (qn, np.cos(2 * np.pi * sum(x))):
            d2q = ref_second_differences(field)
            q_max, _ = ref_compute_bounds(field, q_td, (np.ones(g.shape),) * g.dim, 0.3)
            flags = rng.random(g.shape) < 0.5
            scale = float(np.max(np.abs(field)))
            got = fct.extremum_bound_correction(flags, field, d2q, q_max, scale,
                                                out=nan_buffer(field))
            assert_bitwise(got, ref_extremum_bound_correction(flags, field, d2q, q_max, scale))

    def test_laplacian_flags(self, state):
        g, _, qn, q_td = state
        d2q = ref_second_differences(qn)
        for probe in (qn, q_td):
            got = fct.laplacian_flags(d2q, g.h, probe)
            assert_bitwise(got, ref_laplacian_flags(d2q, g, probe))
        assert got.any()

    def test_compute_pqr(self, state):
        g, rng, _, q_td = state
        A = tuple(rough(rng, g.shape) for _ in range(g.dim))
        q_max = q_td + rough(rng, g.shape)
        q_min = q_td - rough(rng, g.shape)
        flagged = rng.random(g.shape) < 0.2
        dt = 0.4 * g.h
        got = fct.compute_pqr(A, q_td, q_max, q_min, flagged, dt, g.h, out=nan_buffers(q_td, 2))
        assert_bitwise(got, ref_compute_pqr(A, q_td, q_max, q_min, flagged, dt, g))

    def test_hybridize(self, state):
        g, rng, _, _ = state
        A = tuple(rough(rng, g.shape) for _ in range(g.dim))
        R_in = np.abs(rough(rng, g.shape)).clip(max=1.0)
        R_out = np.abs(rough(rng, g.shape)).clip(max=1.0)
        R_in[rng.random(g.shape) < 0.2] = -0.0
        got = fct.hybridize(A, R_in, R_out, out=nan_buffers(R_in, g.dim))
        assert_bitwise(got, ref_hybridize(A, R_in, R_out, g))


# The flows the paper runs: a constant one (one component negative, so
# both one-sign masks are read) and solid-body rotation, 2D only.
COMPACT = [(1, "constant"), (2, "constant"), (2, "rotation")]


def compact_case(dim, kind, order=2):
    """Data, the whole face velocities of ``kind`` and the flow built from
    them, which keeps them in their compact shapes."""
    rng = np.random.default_rng(200 + dim)
    g = Grid(dim, 16)
    if kind == "constant":
        u_faces = tuple(np.full(g.shape, c) for c in (0.7, -1.3)[:dim])
    else:
        u_faces = tuple(np.array(u) for u in face_average_velocity(SolidBodyRotation(), g))
    flow = face_flow(u_faces, g, order)
    assert all(u.size <= g.n for u in flow.u_faces)
    qn = rough(rng, g.shape)
    return g, rng, qn, qn + 0.1 * rough(rng, g.shape), u_faces, flow


@pytest.mark.parametrize("dim, kind", COMPACT)
class TestCompactVelocities:
    """The kernels read the flow's compact velocities by broadcasting,
    bitwise as the references read the whole ones."""

    def test_ctu_fluxes(self, dim, kind):
        g, _, qn, _, u_faces, flow = compact_case(dim, kind)
        dt = 0.4 * g.h
        assert_bitwise(loworder.ctu_fluxes(qn, flow, dt, Workspace(g)),
                       ref_ctu_fluxes(qn, u_faces, dt, g))

    @pytest.mark.parametrize("order", (4, 6))
    def test_product_rule_flux(self, dim, kind, order):
        g, rng, _, _, u_faces, flow = compact_case(dim, kind, order)
        for d in range(g.dim):
            q_face = rough(rng, g.shape)
            assert_bitwise(schemes.product_rule_flux(q_face, flow, d, *nan_buffers(q_face, 3)),
                           ref_product_rule_flux(q_face, u_faces[d], order, d, g))

    def test_preconstrain(self, dim, kind):
        g, rng, qn, q_td, u_faces, flow = compact_case(dim, kind)
        d2q = ref_second_differences(qn)
        A = tuple(0.05 * g.h * rough(rng, g.shape) for _ in range(g.dim))
        dt = 0.4 * g.h
        got = fct.preconstrain(A, q_td, d2q, flow.u_faces, dt, g.h, out=nan_buffers(q_td, g.dim))
        assert_bitwise(got, ref_preconstrain(A, q_td, d2q, u_faces, dt, g))

    @pytest.mark.parametrize("sigma", (0.3, 0.9))
    def test_compute_bounds(self, dim, kind, sigma):
        g, _, qn, q_td, u_faces, flow = compact_case(dim, kind)
        assert_bitwise(fct.compute_bounds(qn, q_td, flow.u_faces, sigma, out=nan_buffers(qn, 2)),
                       ref_compute_bounds(qn, q_td, u_faces, sigma))


def _no_roll(*args, **kwargs):
    raise AssertionError("np.roll called in the limited step")


def _step_without_roll(monkeypatch, dim, limiter, n):
    """One u9 step with np.roll banned; returns the step's limiter windows."""
    rng = np.random.default_rng(7)
    g = Grid(dim, n)
    u_faces = face_velocities(rng, g, "across" if dim == 2 else "mixed")
    q = rough(rng, g.shape)
    if n > 16:  # zero outside a patch, so the window is cut from the grid
        patch = np.zeros(g.shape, dtype=bool)
        patch[(slice(24, 36),) * dim] = True
        q[~patch] = 0.0
    qn = q
    windows = []
    window = fct.limiter_window
    monkeypatch.setattr(fct, "limiter_window", lambda *a: windows.append(window(*a)) or windows[-1])
    monkeypatch.setattr(np, "roll", _no_roll)
    flow = face_flow(u_faces, g, 6)
    q_new, _ = fct.fct_advance(qn, flow, 0.3 * g.h, 0.3, scheme_coefficients("u9"),
                               Workspace(g), limiter)
    assert np.all(np.isfinite(q_new))
    return [window.shape for window in windows]


@pytest.mark.parametrize("limiter", fct.LIMITER_MODES)
@pytest.mark.parametrize("dim", (1, 2))
def test_step_calls_no_roll(monkeypatch, dim, limiter):
    """At n = 16 the limiter's window is the whole grid."""
    shapes = _step_without_roll(monkeypatch, dim, limiter, 16)
    assert shapes == ([(16,) * dim] if limiter == "on" else [])


@pytest.mark.parametrize("dim", (1, 2))
def test_windowed_step_calls_no_roll(monkeypatch, dim):
    (shape,) = _step_without_roll(monkeypatch, dim, "on", 64)
    assert shape != (64,) * dim
