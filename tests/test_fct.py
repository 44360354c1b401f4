import numpy as np
import pytest

from fvadvect import fct
from fvadvect.fct import (
    antidiffusive,
    bounds_stencil_size,
    compute_bounds,
    compute_pqr,
    extremum_bound_correction,
    fct_advance,
    hybridize,
    laplacian_flags,
    preconstrain,
    second_differences,
    smooth_extremum_flags,
)
from fvadvect.grid import Grid, Workspace, conserved_sum
from fvadvect.highorder import rk4_high_order_step
from fvadvect.loworder import ctu_fluxes, low_order_update
from fvadvect.problems import initial_condition, standard_problem
from fvadvect.schemes import face_flow, scheme_coefficients
from fvadvect.velocity import (
    ConstantDiagonal,
    face_average_velocity,
)
from buffers import nan_buffer, nan_buffers
from limiter_patches import force_eta, skip_preconstraint


def field_1d(values, n=None):
    values = np.asarray(values, dtype=float)
    g = Grid(1, n or len(values))
    return g, values


def square_setup(n=128, dim=1, scheme="u5"):
    g = Grid(dim, n)
    v = ConstantDiagonal(dim=dim)
    uf = face_average_velocity(v, g)
    spec = standard_problem("square", "constant", g)
    q = initial_condition(spec, g)
    return g, v, uf, q, scheme_coefficients(scheme)


def high_order_update(q, flow, dt, s):
    ws = Workspace(flow.grid)
    return low_order_update(q, rk4_high_order_step(q, flow, dt, s, ws), dt, flow.grid, ws)


def ctu_update(q, flow, dt):
    ws = Workspace(flow.grid)
    return low_order_update(q, ctu_fluxes(q, flow, dt, ws), dt, flow.grid, ws)


def max_abs(q):
    return float(np.max(np.abs(q)))


class TestAntidiffusive:
    def test_equal_fluxes(self):
        rng = np.random.default_rng(0)
        F = (rng.random(16),)
        A = antidiffusive(F, F, out=nan_buffers(F[0], 1))
        assert np.all(A[0] == 0.0)

    def test_definition_bitwise(self):
        rng = np.random.default_rng(1)
        FH = (rng.random(16), rng.random(16))
        FL = (rng.random(16), rng.random(16))
        A = antidiffusive(FH, FL, out=nan_buffers(FH[0], 2))
        for d in range(2):
            assert np.array_equal(FL[d] + A[d], FH[d])


def preconstrain_oracle_1d(A, q_td, d2, u, dt, h):
    """Independent loop over the three zeroing conditions."""
    n = len(A)
    out = A.copy()
    for k in range(n):
        i = (k - 1) % n          # left cell of face k
        ip1 = k
        im1 = (k - 2) % n
        ip2 = (k + 1) % n
        c1 = A[k] * (q_td[ip1] - q_td[i]) <= 0.0
        c2 = min(d2[ip1] * d2[i], d2[i] * d2[im1], d2[ip1] * d2[ip2]) < 0.0
        sig = abs(u[k]) * dt / h
        c3 = abs(A[k]) <= (abs(u[k]) * h / 2) * (1 - sig) * abs(d2[i] + d2[ip1]) / 2
        if c1 and c2 and c3:
            out[k] = 0.0
    return out


class TestPreconstrain:
    def test_zero_flux_stays_zero(self):
        g, q = field_1d(np.random.default_rng(2).random(32))
        A = (np.zeros(32),)
        d2 = second_differences(q, out=nan_buffers(q, 1))
        out = preconstrain(A, q, d2, (np.ones(32),), 0.8 * g.h, g.h, out=nan_buffers(q, 1))
        assert np.all(out[0] == 0.0)

    def test_sign_consistent_curvature_not_constrained(self):
        # second difference of one sign in a whole region: condition 2
        # fails there, so those faces pass through untouched
        n = 32
        vals = np.zeros(n)
        vals[10:20] = 0.1 * (np.arange(10) - 4.5) ** 2  # convex patch
        g, q = field_1d(vals)
        d2 = second_differences(q, out=nan_buffers(q, 1))
        rng = np.random.default_rng(3)
        A = (rng.standard_normal(n) * 1e-12,)  # small enough to satisfy c3
        out = preconstrain(A, q, d2, (np.ones(n),), 0.8 * g.h, g.h, out=nan_buffers(q, 1))
        inner = slice(13, 18)  # faces strictly inside the convex patch
        assert np.array_equal(out[0][inner], A[0][inner])

    def test_matches_oracle_on_square_first_step(self):
        g, v, uf, q, s = square_setup()
        dt = 0.8 * g.h
        flow, ws = face_flow(uf, g, 4), Workspace(g)
        FH = rk4_high_order_step(q, flow, dt, s, ws)
        FL = ctu_fluxes(q, flow, dt, ws)
        q_td = low_order_update(q, FL, dt, g, ws)
        A = antidiffusive(FH, FL, out=nan_buffers(q, 1))
        d2 = second_differences(q, out=nan_buffers(q, 1))
        got = preconstrain(A, q_td, d2, uf, dt, g.h, out=nan_buffers(q, 1))
        oracle = preconstrain_oracle_1d(
            A[0], q_td, d2[0], uf[0], dt, g.h
        )
        assert np.array_equal(got[0], oracle)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(4)
        g, q = field_1d(rng.random(64))
        q_td = rng.random(64)
        A = (rng.standard_normal(64) * 1e-4,)
        d2 = second_differences(q, out=nan_buffers(q, 1))
        u = (rng.uniform(0.5, 1.0, 64),)
        dt = 0.5 * g.h
        got = preconstrain(A, q_td, d2, u, dt, g.h, out=nan_buffers(q, 1))
        oracle = preconstrain_oracle_1d(A[0], q_td, d2[0], u[0], dt, g.h)
        assert np.array_equal(got[0], oracle)

    def test_output_unchanged_or_zero(self):
        g, v, uf, q, s = square_setup(n=64)
        dt = 0.8 * g.h
        flow, ws = face_flow(uf, g, 4), Workspace(g)
        FH = rk4_high_order_step(q, flow, dt, s, ws)
        FL = ctu_fluxes(q, flow, dt, ws)
        q_td = low_order_update(q, FL, dt, g, ws)
        A = antidiffusive(FH, FL, out=nan_buffers(q, 1))
        d2 = second_differences(q, out=nan_buffers(q, 1))
        out = preconstrain(A, q_td, d2, uf, dt, g.h, out=nan_buffers(q, 1))
        changed = out[0] != A[0]
        assert np.all(out[0][changed] == 0.0)


class TestBounds:
    def test_constant_field(self):
        g, q = field_1d(np.full(16, 2.0))
        q_max, q_min = compute_bounds(q, q, (np.ones(16),), 0.8, out=nan_buffers(q, 2))
        assert np.all(q_max == 2.0)
        assert np.all(q_min == 2.0)

    def test_windowed_max_radius_one(self):
        vals = np.zeros(16)
        vals[5] = 1.0
        g, q = field_1d(vals)
        # slow flow: sigma * |u| < 0.5 so the window radius is 1
        q_max, q_min = compute_bounds(q, q, (np.full(16, 0.1),), 0.8, out=nan_buffers(q, 2))
        assert np.all(bounds_stencil_size((np.full(16, 0.1),), 0.8) == 1)
        assert q_max[4] == 1.0
        assert q_max[5] == 1.0
        assert q_max[3] == 0.0

    def test_stencil_size_boundary_case(self):
        # the switch to the wide window uses >= at exactly 0.5
        s = bounds_stencil_size((np.array([0.625]),), 0.8)
        assert s[0] == 2
        s = bounds_stencil_size((np.array([0.6249]),), 0.8)
        assert s[0] == 1

    def test_uses_both_states(self):
        vals_n = np.zeros(16)
        vals_td = np.zeros(16)
        vals_n[4] = 1.0
        vals_td[8] = -1.0
        g = Grid(1, 16)
        qn = vals_n
        qtd = vals_td
        q_max, q_min = compute_bounds(qn, qtd, (np.ones(16),), 0.8, out=nan_buffers(qn, 2))
        assert q_max[4] == 1.0          # from q_n
        assert q_min[8] == -1.0         # from q_td

    def test_td_within_own_bounds(self):
        rng = np.random.default_rng(5)
        g = Grid(2, 16)
        qn = rng.random((16, 16))
        qtd = rng.random((16, 16))
        u_faces = face_average_velocity(ConstantDiagonal(dim=2), g)
        q_max, q_min = compute_bounds(qn, qtd, u_faces, 0.8, out=nan_buffers(qn, 2))
        assert np.all(qtd <= q_max)
        assert np.all(qtd >= q_min)


def extremum_oracle_1d(td):
    """Direct evaluation of the smooth-extremum criterion in 1D."""
    n = len(td)
    dq = td - np.roll(td, 1)
    flags = np.zeros(n, dtype=bool)
    for i in range(n):
        sign_change = min(
            dq[i] * dq[(i + 1) % n], dq[(i - 1) % n] * dq[(i + 2) % n]
        ) <= 0.0
        dqtot = abs(td[(i + 2) % n] - td[(i - 2) % n])
        tv = (
            abs(dq[(i + 2) % n]) + abs(dq[(i + 1) % n])
            + abs(dq[i]) + abs(dq[(i - 1) % n])
        )
        flags[i] = sign_change and (1.25 * dqtot < tv)
    return flags


class TestSmoothExtremumFlags:
    def test_cos8_peak_flagged(self):
        g = Grid(1, 128)
        spec = standard_problem("cosine8", "constant", g, radius=15 / 128)
        q = initial_condition(spec, g)
        flags = smooth_extremum_flags(q)
        peak = int(np.argmax(q))
        assert flags[peak]
        # monotone flank cells are not extrema
        assert not flags[peak - 8]
        assert not flags[peak + 8]

    def test_square_jump_not_flagged(self):
        g, v, uf, q, s = square_setup()
        flags = smooth_extremum_flags(q)
        jump = int(np.argmax(np.abs(np.diff(q))))
        assert not flags[jump]
        assert not flags[jump + 1]

    def test_matches_oracle(self):
        rng = np.random.default_rng(6)
        g = Grid(1, 64)
        q = rng.random(64)
        assert np.array_equal(smooth_extremum_flags(q), extremum_oracle_1d(q))

    def test_2d_constancy_path(self):
        # extremum along x, exactly constant along y: flagged
        g = Grid(2, 32)
        x = g.cell_centers(0)
        profile = np.exp(-40 * (x - 0.5) ** 2)
        q = np.tile(profile[:, None], (1, 32))
        flags = smooth_extremum_flags(q)
        peak = int(np.argmax(profile))
        assert flags[peak, 10]

    def test_2d_requires_all_dimensions(self):
        # extremum along x but varying (non-extremal) along y: not flagged
        g = Grid(2, 32)
        x = g.cell_centers(0)
        y = g.cell_centers(1)
        vals = np.exp(-40 * (x[:, None] - 0.5) ** 2) * (1.0 + 0.5 * np.sin(2 * np.pi * y[None, :]))
        q = vals
        flags = smooth_extremum_flags(q)
        peak = int(np.argmax(np.exp(-40 * (x - 0.5) ** 2)))
        j_slope = 4  # a y where sin has a steep slope
        assert not flags[peak, j_slope]


class TestExtremumBoundCorrection:
    def test_hand_worked_parabola(self):
        # constant curvature -0.08 around the peak: vertex at the cell
        # center, deconvolved point estimate 1 + 0.08/24, bound grows to
        # 1 + 2*(q_ext - 1) ~ 1.006667
        n = 32
        k = np.arange(n, dtype=float) - 16.0
        vals = np.where(np.abs(k) <= 4, 1.0 - 0.04 * k**2, 1.0 - 0.04 * 16.0)
        g, q = field_1d(vals)
        d2 = second_differences(q, out=nan_buffers(q, 1))
        q_max, _ = compute_bounds(q, q, (np.full(n, 0.1),), 0.8, out=nan_buffers(q, 2))
        flags = np.zeros(n, dtype=bool)
        flags[16] = True
        new_max = extremum_bound_correction(flags, q, d2, q_max, max_abs(q), out=nan_buffer(q))
        q_ext = 1.0 + 0.08 / 24.0
        assert new_max[16] == pytest.approx(1.0 + 2 * (q_ext - 1.0), rel=1e-12)
        assert new_max[16] == pytest.approx(1.00667, abs=5e-6)

    def test_zero_curvature_skipped(self):
        g, q = field_1d(np.zeros(32))
        d2 = second_differences(q, out=nan_buffers(q, 1))
        q_max = np.zeros(32)
        flags = np.ones(32, dtype=bool)
        new_max = extremum_bound_correction(flags, q, d2, q_max, max_abs(q), out=nan_buffer(q))
        assert np.array_equal(new_max, q_max)

    def test_unflagged_cells_bitwise_unchanged(self):
        rng = np.random.default_rng(7)
        g, q = field_1d(rng.random(32))
        d2 = second_differences(q, out=nan_buffers(q, 1))
        q_max, _ = compute_bounds(q, q, (np.ones(32),), 0.8, out=nan_buffers(q, 2))
        flags = np.zeros(32, dtype=bool)
        flags[10] = True
        new_max = extremum_bound_correction(flags, q, d2, q_max, max_abs(q), out=nan_buffer(q))
        keep = ~flags
        assert np.array_equal(new_max[keep], q_max[keep])

    def test_never_tightens(self):
        rng = np.random.default_rng(8)
        g, q = field_1d(rng.random(64))
        d2 = second_differences(q, out=nan_buffers(q, 1))
        q_max, _ = compute_bounds(q, q, (np.ones(64),), 0.8, out=nan_buffers(q, 2))
        flags = np.ones(64, dtype=bool)
        new_max = extremum_bound_correction(flags, q, d2, q_max, max_abs(q), out=nan_buffer(q))
        assert np.all(new_max >= q_max)

    def test_sign_inconsistent_curvature_no_growth(self):
        # alternating curvature (a short wave) earns no relaxation
        n = 32
        vals = 0.5 + 0.1 * np.cos(np.pi * np.arange(n))  # 2-cell wave
        g, q = field_1d(vals)
        d2 = second_differences(q, out=nan_buffers(q, 1))
        q_max, _ = compute_bounds(q, q, (np.ones(n),), 0.8, out=nan_buffers(q, 2))
        flags = np.ones(n, dtype=bool)
        new_max = extremum_bound_correction(flags, q, d2, q_max, max_abs(q), out=nan_buffer(q))
        assert np.array_equal(new_max, q_max)


class TestLaplacianFlags:
    def test_zero_field_no_flags(self):
        g, q = field_1d(np.zeros(32))
        d2 = second_differences(q, out=nan_buffers(q, 1))
        assert not laplacian_flags(d2, g.h, q).any()

    def test_smooth_extremum_not_flagged(self):
        g = Grid(1, 128)
        spec = standard_problem("cosine8", "constant", g, radius=15 / 128)
        q = initial_condition(spec, g)
        d2 = second_differences(q, out=nan_buffers(q, 1))
        flags = laplacian_flags(d2, g.h, q)
        peak = int(np.argmax(q))
        assert not flags[peak]

    def test_oscillating_extremum_flagged(self):
        # dispersive-looking ripple: curvature alternates cell to cell
        n = 32
        vals = 0.5 + 0.01 * np.cos(np.pi * np.arange(n) / 2)  # 4-cell wave
        g, q = field_1d(vals)
        d2 = second_differences(q, out=nan_buffers(q, 1))
        flags = laplacian_flags(d2, g.h, q)
        assert flags.any()
        # every flagged cell brackets a first-difference sign change
        dq = q - np.roll(q, 1)
        bracket = dq * np.roll(dq, -1) <= 0
        assert np.all(bracket[flags])


class TestPQRAndHybridize:
    def test_zero_antidiffusion_gives_zero_r(self):
        g, q = field_1d(np.linspace(0, 1, 32))
        A = (np.zeros(32),)
        R_in, R_out = compute_pqr(A, q, np.ones(32), np.zeros(32), np.zeros(32, bool),
                                  0.01, g.h, out=nan_buffers(q, 2))
        assert np.all(R_in == 0.0)
        assert np.all(R_out == 0.0)

    def test_large_headroom_clamps_to_one(self):
        g, q = field_1d(np.full(32, 0.5))
        A = (np.full(32, 1e-8),)
        R_in, R_out = compute_pqr(A, q, np.full(32, 1e6), np.full(32, -1e6),
                                  np.zeros(32, bool), 0.01, g.h, out=nan_buffers(q, 2))
        assert np.all(R_in == 1.0)
        assert np.all(R_out == 1.0)

    def test_flagged_cells_zeroed(self):
        g, q = field_1d(np.full(32, 0.5))
        A = (np.full(32, 0.1),)
        flagged = np.zeros(32, dtype=bool)
        flagged[7] = True
        R_in, R_out = compute_pqr(A, q, np.ones(32), np.zeros(32), flagged, 0.01, g.h,
                                  out=nan_buffers(q, 2))
        assert R_in[7] == 0.0
        assert R_out[7] == 0.0
        assert R_in[8] > 0.0

    def test_hybridize_unit_and_zero(self):
        g = Grid(1, 16)
        A = (np.ones(16),)
        ones = np.ones(16)
        zeros = np.zeros(16)
        assert np.all(hybridize(A, ones, ones, out=nan_buffers(ones, 1))[0] == 1.0)
        assert np.all(hybridize(A, zeros, zeros, out=nan_buffers(zeros, 1))[0] == 0.0)

    def test_hybridize_directional_selection(self):
        # positive antidiffusive flux at face k: receiving cell is k, donor
        # is k-1, so eta = min(R_in[k], R_out[k-1])
        g = Grid(1, 16)
        A = (np.ones(16),)
        R_in = np.full(16, 0.3)
        R_out = np.full(16, 0.7)
        eta = hybridize(A, R_in, R_out, out=nan_buffers(R_in, 1))[0]
        assert np.all(eta == 0.3)
        A_neg = (-np.ones(16),)
        eta = hybridize(A_neg, R_in, R_out, out=nan_buffers(R_in, 1))[0]
        assert np.all(eta == 0.3)  # min(R_in[k-1], R_out[k]) = 0.3

    def test_hybridize_mixed_values(self):
        g = Grid(1, 16)
        R_in = np.zeros(16)
        R_out = np.zeros(16)
        R_in[5] = 0.3    # cell 5 may receive up to 0.3
        R_out[4] = 0.7   # cell 4 may give up to 0.7
        A = (np.zeros(16),)
        A[0][5] = 1.0    # face 5 sits between cells 4 and 5, A > 0
        eta = hybridize(A, R_in, R_out, out=nan_buffers(R_in, 1))[0]
        assert eta[5] == 0.3


class TestFctAdvance:
    def test_eta_one_matches_high_order(self, monkeypatch):
        rng = np.random.default_rng(9)
        g = Grid(2, 32)
        v = ConstantDiagonal(dim=2)
        uf = face_average_velocity(v, g)
        q = rng.random((32, 32))
        s = scheme_coefficients("u5")
        dt = 0.8 * g.h
        flow = face_flow(uf, g, 4)
        q_high = high_order_update(q, flow, dt, s)
        force_eta(monkeypatch, 1.0)
        skip_preconstraint(monkeypatch)
        q_forced, _ = fct_advance(q, flow, dt, 0.8, s, Workspace(g))
        assert np.max(np.abs(q_forced - q_high)) <= 1e-13

    def test_eta_zero_matches_ctu_bitwise(self, monkeypatch):
        rng = np.random.default_rng(10)
        g = Grid(2, 32)
        v = ConstantDiagonal(dim=2)
        uf = face_average_velocity(v, g)
        q = rng.random((32, 32))
        s = scheme_coefficients("u5")
        dt = 0.8 * g.h
        flow = face_flow(uf, g, 4)
        q_td = ctu_update(q, flow, dt)
        force_eta(monkeypatch, 0.0)
        q_forced, _ = fct_advance(q, flow, dt, 0.8, s, Workspace(g))
        assert np.array_equal(q_forced, q_td)

    @pytest.mark.parametrize("dim", (1, 2))
    def test_degeneracy_on_a_window(self, monkeypatch, dim):
        """eta forced to 0 and to 1 on a limiter window smaller than the grid."""
        rng = np.random.default_rng(12)
        g = Grid(dim, 64)
        q = np.zeros(g.shape)
        q[(slice(20, 30),) * dim] = rng.random((10,) * dim)
        uf = (np.full(g.shape, 0.8),) * dim
        flow, s, dt = face_flow(uf, g, 6), scheme_coefficients("u9"), 0.5 * g.h
        windows = []
        window = fct.limiter_window
        monkeypatch.setattr(fct, "limiter_window",
                            lambda *a: windows.append(window(*a)) or windows[-1])
        force_eta(monkeypatch, 0.0)
        q_zero, _ = fct_advance(q, flow, dt, 0.4, s, Workspace(g))
        assert np.array_equal(q_zero, ctu_update(q, flow, dt))
        force_eta(monkeypatch, 1.0)
        skip_preconstraint(monkeypatch)
        q_one, _ = fct_advance(q, flow, dt, 0.4, s, Workspace(g))
        assert np.max(np.abs(q_one - high_order_update(q, flow, dt, s))) <= 1e-13
        assert len(windows) == 2
        assert all(n < g.n for w in windows for n in w.shape)

    def test_limiter_off_modes(self):
        rng = np.random.default_rng(11)
        g = Grid(1, 32)
        uf = (np.ones(32),)
        q = rng.random(32)
        s = scheme_coefficients("u9")
        dt = 0.8 * g.h
        flow = face_flow(uf, g, 6)
        q_off, etas = fct_advance(q, flow, dt, 0.8, s, Workspace(g), limiter="off")
        assert etas is None
        assert np.array_equal(q_off, high_order_update(q, flow, dt, s))
        q_low, etas = fct_advance(q, flow, dt, 0.8, s, Workspace(g), limiter="off-low")
        assert etas is None
        assert np.array_equal(q_low, ctu_update(q, flow, dt))
        with pytest.raises(ValueError):
            fct_advance(q, flow, dt, 0.8, s, Workspace(g), limiter="sometimes")

    @pytest.mark.parametrize("bad", [{"limiter": "sometimes"}])
    def test_bad_arguments_rejected_before_flux_work(self, monkeypatch, bad):
        def no_flux_work(*args, **kwargs):
            raise AssertionError("flux work started before the arguments were checked")

        monkeypatch.setattr(fct, "rk4_high_order_step", no_flux_work)
        monkeypatch.setattr(fct, "ctu_fluxes", no_flux_work)
        g, v, uf, q, s = square_setup(n=32)
        with pytest.raises(ValueError):
            fct_advance(q, face_flow(uf, g, 4), 0.8 * g.h, 0.8, s, Workspace(g), **bad)

    def test_eta_in_unit_interval(self):
        g, v, uf, q, s = square_setup(n=64)
        dt = 0.8 * g.h
        flow, ws = face_flow(uf, g, 4), Workspace(g)
        for _ in range(5):
            q, etas = fct_advance(q, flow, dt, 0.8, s, ws)
            for eta in etas:
                assert np.all((eta >= 0.0) & (eta <= 1.0))

    def test_conservation_each_step(self):
        g, v, uf, q, s = square_setup(n=64, dim=2)
        dt = 0.8 * g.h
        flow, ws = face_flow(uf, g, 4), Workspace(g)
        before = conserved_sum(g, q)
        for _ in range(3):
            q, _ = fct_advance(q, flow, dt, 0.8, s, ws)
            assert conserved_sum(g, q) == pytest.approx(before, rel=1e-13)

    def test_bounds_enforced_outside_corrections(self):
        # at cells without relaxed bounds and without the oscillation flag,
        # the update stays inside the windowed bounds
        g, v, uf, q, s = square_setup(n=64)
        dt = 0.8 * g.h
        flow, ws = face_flow(uf, g, 4), Workspace(g)
        for _ in range(10):
            q_td = ctu_update(q, flow, dt)
            q_max, q_min = compute_bounds(q, q_td, uf, 0.8, out=nan_buffers(q, 2))
            flags = smooth_extremum_flags(q_td) & smooth_extremum_flags(q)
            q_new, _ = fct_advance(q, flow, dt, 0.8, s, ws)
            plain = ~flags
            assert np.all(q_new[plain] <= q_max[plain] + 1e-12)
            assert np.all(q_new[plain] >= q_min[plain] - 1e-12)
            q = q_new

    def test_square_wave_stays_bounded(self):
        g, v, uf, q, s = square_setup(n=128, scheme="u5")
        dt = 0.8 * g.h
        flow, ws = face_flow(uf, g, 4), Workspace(g)
        for _ in range(40):  # quarter transit
            q, _ = fct_advance(q, flow, dt, 0.8, s, ws)
        assert q.min() >= -1e-10
        assert q.max() <= 1.0 + 1e-10
