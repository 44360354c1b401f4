import re
import tracemalloc
import warnings

import numpy as np
import pytest

from closed_forms import (
    allocating_amplification,
    plain_max_stable_sigma,
    rk4_amplification_parts,
    scheme_eigenvalue,
)
from fvadvect import analysis
from fvadvect.analysis import (
    max_amplification,
    max_stable_sigma,
    phase_dissipation_curve,
    phase_modes,
    rk4_amplification,
    stability_table,
    stencil_eigenvalue,
)
from fvadvect.schemes import SCHEME_NAMES

PAPER_SIGMA_1D = {"c4": 2.06, "u5": 1.73, "c6": 1.78, "u7": 1.69, "u9": 1.60}


class TestEigenvalues:
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_zero_mode(self, name):
        assert scheme_eigenvalue(name, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert stencil_eigenvalue(name, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_c4_at_pi(self):
        # 16 sin(pi) - 2 sin(2 pi) = 0
        assert abs(scheme_eigenvalue("c4", np.pi)) <= 1e-14

    def test_u5_at_pi_real_negative(self):
        lam_closed = scheme_eigenvalue("u5", np.pi)
        lam_stencil = stencil_eigenvalue("u5", np.pi)
        assert lam_closed.real == pytest.approx(-64.0 / 60.0, abs=1e-14)
        assert abs(lam_closed.imag) <= 1e-14
        assert abs(lam_closed - lam_stencil) <= 1e-14

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_closed_form_matches_stencil_transfer(self, name):
        beta = np.linspace(-np.pi, np.pi, 1024)
        a = scheme_eigenvalue(name, beta)
        b = stencil_eigenvalue(name, beta)
        assert np.max(np.abs(a - b)) <= 1e-14

    @pytest.mark.parametrize("name", ["c4", "c6"])
    def test_centered_purely_imaginary(self, name):
        beta = np.linspace(-np.pi, np.pi, 1024)
        lam = stencil_eigenvalue(name, beta)
        assert np.max(np.abs(lam.real)) <= 1e-14

    @pytest.mark.parametrize("name", ["u5", "u7", "u9"])
    def test_upwind_dissipative(self, name):
        beta = np.linspace(-np.pi, np.pi, 1024)
        lam = stencil_eigenvalue(name, beta)
        assert np.max(lam.real) <= 1e-14

    def test_multidimensional_sum(self):
        bx, by = 0.7, -1.3
        total = scheme_eigenvalue("u5", (bx, by), (1.0, 2.0), h=0.5)
        single = scheme_eigenvalue("u5", bx, h=0.5) + 2.0 * scheme_eigenvalue(
            "u5", by, h=0.5
        )
        assert abs(total - single) <= 1e-14

    def test_speed_and_spacing_scaling(self):
        lam = scheme_eigenvalue("u9", 1.1, h=1.0)
        assert scheme_eigenvalue("u9", 1.1, (3.0,), h=0.5) == pytest.approx(6 * lam)


class TestAmplification:
    def test_at_zero(self):
        assert rk4_amplification(0.0) == 1.0

    def test_at_minus_one(self):
        # 1 - 1 + 1/2 - 1/6 + 1/24
        assert rk4_amplification(-1.0) == pytest.approx(0.375)

    def test_real_axis_stability_boundary(self):
        # bisect |P(x)| = 1 on the negative real axis; the RK4 boundary
        # sits near -2.7853
        lo, hi = -3.0, -2.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if abs(rk4_amplification(mid)) <= 1.0:
                hi = mid
            else:
                lo = mid
        assert 0.5 * (lo + hi) == pytest.approx(-2.7853, abs=2e-3)

    def test_expanded_parts_match_horner(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-2, 2, 256) + 1j * rng.uniform(-3, 3, 256)
        g = rk4_amplification(z)
        re, im = rk4_amplification_parts(z.real, z.imag)
        assert np.max(np.abs(re - g.real)) <= 1e-15 * np.max(np.abs(g))
        assert np.max(np.abs(im - g.imag)) <= 1e-15 * np.max(np.abs(g))

    def test_imaginary_axis_limit(self):
        # |P(iy)| <= 1 exactly up to y = 2 sqrt(2)
        y = 2 * np.sqrt(2)
        assert abs(rk4_amplification(1j * (y - 1e-9))) <= 1.0
        assert abs(rk4_amplification(1j * (y + 1e-6))) > 1.0


class TestMaxStableSigma:
    def test_c4_matches_table(self):
        assert max_stable_sigma("c4", 1) == pytest.approx(2.06, abs=0.03)

    def test_u9_matches_table(self):
        assert max_stable_sigma("u9", 1) == pytest.approx(1.60, abs=0.03)

    def test_u9_2d_is_half(self):
        assert max_stable_sigma("u9", 2) == pytest.approx(0.80, abs=0.02)

    def test_dimension_scaling(self):
        s1 = max_stable_sigma("u5", 1)
        s2 = max_stable_sigma("u5", 2)
        assert s1 / s2 == pytest.approx(2.0, abs=0.01)

    def test_table_helper(self):
        rows = stability_table(dims=(1,), n_beta=256, tol=1e-3)
        assert len(rows) == 5
        names = [r[0] for r in rows]
        assert names == list(SCHEME_NAMES)


def full_phase_modes(scheme, n_beta=1024):
    """The whole 2D mode grid mu[i] + mu[j], both orders of every pair."""
    mu = phase_modes(scheme, 1, n_beta)
    return mu[:, None] + mu[None, :]


def bits_sorted(z):
    """The (real, imag) bit patterns of ``z``, in a canonical order."""
    bits = np.ascontiguousarray(z, dtype=complex).reshape(-1).view(np.int64).reshape(-1, 2)
    return bits[np.lexsort((bits[:, 1], bits[:, 0]))]


class TestFoldedPhaseModes:
    @pytest.mark.parametrize("n_beta", [16, 17, 255, 1024])
    def test_fold_is_the_upper_triangle(self, n_beta):
        fold = phase_modes("u9", 2, n_beta)
        assert fold.shape == ((n_beta + 1) // 2, n_beta + 1)
        values = fold.reshape(-1)
        if n_beta % 2:
            # the middle row pairs with itself: its second half repeats
            # its first, bit for bit, and is the only padding
            middle = fold[n_beta // 2]
            half = (n_beta + 1) // 2
            assert np.array_equal(middle[:half].view(np.int64), middle[half:].view(np.int64))
            values = np.concatenate([fold[: n_beta // 2].reshape(-1), middle[:half]])
        upper = full_phase_modes("u9", n_beta)[np.triu_indices(n_beta)]
        assert np.array_equal(bits_sorted(values), bits_sorted(upper))

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_max_amplification_equals_full_grid(self, name):
        fold = phase_modes(name, 2)
        full = full_phase_modes(name)
        for sigma in (0.3, 0.79, 0.8, 1.7, 4.0):
            assert max_amplification(fold, sigma) == max_amplification(full, sigma)

    def test_bisection_equals_full_grid(self, monkeypatch):
        folded = stability_table(n_beta=256, tol=1e-3), max_stable_sigma("u9", 2)
        monkeypatch.setattr(
            analysis, "phase_modes",
            lambda scheme, dim=1, n_beta=1024: (
                full_phase_modes(scheme, n_beta) if dim == 2
                else phase_modes(scheme, dim, n_beta)
            ),
        )
        full = stability_table(n_beta=256, tol=1e-3), max_stable_sigma("u9", 2)
        assert folded == full

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_one_2d_probe_per_bisection_step_and_no_cache(self, name, monkeypatch):
        # 17 probes: the bracket check at sigma = 4, a full scan, then 16
        # halvings of 4 down to 1e-4, each one lone mode (L) that may be
        # followed by one full scan of the 2D fold (F)
        calls = []
        original = analysis.rk4_amplification

        def recorded(z, *args, **kwargs):
            calls.append((np.shape(z), np.asarray(z).flat[0]))
            return original(z, *args, **kwargs)

        monkeypatch.setattr(analysis, "rk4_amplification", recorded)
        first = max_stable_sigma(name, 2)
        kinds = "".join({0: "L", 2: "F"}[len(shape)] for shape, _ in calls)
        assert re.fullmatch(r"F(LF?){16}", kinds), kinds
        # a stable probe always takes the full scan; the table's 2D rows
        # take 7 to 12, the other unstable probes are settled by one mode
        assert kinds.count("F") <= 12
        assert all(shape == (512, 1025) for shape, _ in calls if shape)
        once = list(calls)
        calls.clear()
        assert max_stable_sigma(name, 2) == first
        assert calls == once

    def test_bad_dim_raises_before_any_eigenvalue(self, monkeypatch):
        def no_eigenvalues(*args, **kwargs):
            raise AssertionError("eigenvalues computed for a bad dim")

        monkeypatch.setattr(analysis, "stencil_eigenvalue", no_eigenvalues)
        with pytest.raises(ValueError, match="dim must be 1 or 2"):
            phase_modes("u9", 3)


SIGMAS = (0.3, 0.8, 1.7, 4.0)


class TestBufferedAmplification:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_out_is_bitwise_the_allocating_form(self, name, dim):
        modes = phase_modes(name, dim)
        buf = np.empty_like(modes)
        for sigma in SIGMAS:
            z = sigma * modes
            fresh = rk4_amplification(z)
            assert rk4_amplification(z, out=buf) is buf
            assert np.array_equal(buf.view(np.int64), fresh.view(np.int64))
            if dim == 2:
                # numpy's temporary elision runs the one-line expression in
                # the same order on arrays this large
                old = allocating_amplification(z)
                assert np.array_equal(buf.view(np.int64), old.view(np.int64))

    @pytest.mark.parametrize("sigma", [1e-300, 1e300])
    def test_out_is_bitwise_the_allocating_form_at_extremes(self, sigma):
        for name in SCHEME_NAMES:
            for dim in (1, 2):
                modes = phase_modes(name, dim, 64)
                buf = np.empty_like(modes)
                with np.errstate(all="ignore"):
                    z = sigma * modes
                    fresh = rk4_amplification(z)
                    rk4_amplification(z, out=buf)
                assert np.array_equal(buf.view(np.int64), fresh.view(np.int64))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_lone_mode_rounds_within_the_margin(self, dim):
        # a lone mode's |g| against the same mode's in a full scan, on 256
        # modes per case plus each scan's worst
        rng = np.random.default_rng(dim)
        worst_gap = 0.0
        for name in SCHEME_NAMES:
            modes = phase_modes(name, dim)
            picks = rng.integers(0, modes.size, 256)
            for sigma in np.linspace(0.05, 2.0, 8):
                mag = np.abs(rk4_amplification(sigma * modes))
                _, worst = analysis._worst_mode(mag)
                for index in (*picks, worst):
                    full = mag.flat[index]
                    if full <= 1.01:
                        lone = analysis._lone_amplification(modes, index, sigma)
                        worst_gap = max(worst_gap, abs(lone - full))
        assert worst_gap <= 1e-12
        assert 1e-12 + worst_gap < analysis._LONE_MODE_MARGIN

    def test_worst_mode_is_the_maximum_and_its_index(self):
        mag = np.abs(phase_modes("u7", 2, 64)).copy()
        mag[5, 7] = mag[20, 3] = 99.0
        assert analysis._worst_mode(mag) == (99.0, 5 * mag.shape[1] + 7)
        assert analysis._worst_mode(mag[:, 1]) == (float(mag[:, 1].max()),
                                                  int(np.argmax(mag[:, 1])))


def whole_array_amplification(z):
    """``rk4_amplification``'s passes over the whole array at once, into a
    fresh array: the form before the blocks."""
    z = np.asarray(z)
    g = np.multiply(z, 1.0 / 24.0, out=np.empty(z.shape, np.result_type(z, 1.0)))
    g += 1.0 / 6.0
    for c in (0.5, 1.0, 1.0):
        g *= z
        g += c
    return g


def bits(a):
    a = np.ascontiguousarray(np.atleast_1d(a))
    return a.dtype, a.shape, a.view(np.int64).tobytes()


def traced_peak(call, *args):
    """Peak bytes allocated by ``call(*args)`` above the start."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedAmplification:
    """The full scan runs in blocks of rows, in place: no value moves."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(22)
        yield np.asarray(0.3 - 1.7j)
        yield np.asarray(-1.0)
        yield 3.0 * rng.standard_normal(1000)
        yield 1.3 * phase_modes("u9", 1)
        for n_beta in (17, 64, 1001, 1023, 1024):
            for name, sigma in (("c6", 1.7), ("u7", 0.8)):
                yield sigma * phase_modes(name, 2, n_beta)

    def test_blocks_are_bitwise_the_whole_array_passes(self):
        for z in self.cases():
            want = bits(whole_array_amplification(z))
            assert bits(rk4_amplification(z)) == want
            inplace = z.astype(np.result_type(z, 1.0))
            assert rk4_amplification(inplace, out=inplace) is inplace
            assert bits(inplace) == want
            if z.ndim == 2:
                # a strided z, and a strided out
                assert bits(rk4_amplification(z[:, ::3])) == bits(
                    whole_array_amplification(z[:, ::3]))
                assert bits(rk4_amplification(z.T)) == bits(whole_array_amplification(z.T))
                out = np.empty(z.shape[::-1], z.dtype).T
                rk4_amplification(z, out=out)
                assert bits(out) == want

    @pytest.mark.parametrize("n_beta", [1001, 1024])
    def test_folds_take_several_blocks_and_no_short_one(self, n_beta):
        blocks, rows = analysis._row_blocks(phase_modes("u5", 2, n_beta))
        sizes = [b.stop - b.start for b in blocks]
        assert len(blocks) > 1 and rows == max(sizes) and max(sizes) - min(sizes) <= 1
        assert blocks[0].start == 0 and blocks[-1].stop == (n_beta + 1) // 2
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))

    def test_reciprocal_multiply_is_the_division_at_every_table_probe(self, monkeypatch):
        # the first step at every probe of the default table, lone modes
        # included; on a 2D fold the whole polynomial equals the one-line
        # form that starts with z / 24 (numpy's temporary elision runs it
        # in the same order on arrays this large)
        original = analysis.rk4_amplification
        probes = []

        def checked(z, out=None):
            first = bits(z * (1.0 / 24.0)) == bits(z / 24.0)
            whole = bits(allocating_amplification(z)) if np.ndim(z) == 2 else None
            got = original(z, out=out)
            probes.append(first and whole in (None, bits(got)))
            return got

        monkeypatch.setattr(analysis, "rk4_amplification", checked)
        stability_table()
        assert len(probes) > 200 and all(probes)

    def test_reciprocal_multiply_differs_only_at_subnormal_z(self):
        modes = phase_modes("c4", 2, 64)
        for sigma, equal in ((1e-300, True), (0.8, True), (1e300, True), (1e-310, False)):
            with np.errstate(all="ignore"):
                z = sigma * modes
                assert (bits(z * (1.0 / 24.0)) == bits(z / 24.0)) == equal

    def test_nan_in_the_last_block(self, monkeypatch):
        modes = phase_modes("u9", 2).copy()
        blocks, _ = analysis._row_blocks(modes)
        modes[blocks[-1].start + 1, 7] = complex(np.nan, 0.0)
        monkeypatch.setattr(analysis, "phase_modes", lambda scheme, dim=1, n_beta=1024: modes)
        assert np.isnan(max_amplification(modes, 0.5))
        assert max_stable_sigma("u9", 2) == plain_max_stable_sigma("u9", 2)

    def test_worst_mode_across_blocks(self, monkeypatch):
        monkeypatch.setattr(analysis, "_BLOCK_ITEMS", 3 * 65)
        mag = np.abs(phase_modes("u7", 2, 64)).copy()  # 32 x 65, 11 blocks
        mag[5, 7] = mag[20, 3] = 99.0
        assert analysis._worst_mode(mag) == (99.0, 5 * 65 + 7)
        mag[25, 0] = mag[30, 1] = np.nan
        worst, index = analysis._worst_mode(mag)
        assert np.isnan(worst) and index == 25 * 65 == int(np.argmax(mag))

    def test_a_2d_bisection_holds_two_fold_sized_arrays(self):
        fold = phase_modes("u9", 2).nbytes
        assert traced_peak(max_stable_sigma, "u9", 2) < 2 * fold + 1_000_000

    def test_max_amplification_makes_one_fold_sized_array(self):
        modes = phase_modes("u9", 2)
        assert traced_peak(max_amplification, modes, 0.8) < modes.nbytes + 1_000_000


def _real_mode(growth):
    """A negative real eigenvalue m with |g(2 m)| = ``growth`` > 1, found by
    bisection on the real axis past the RK4 boundary near -2.785."""
    lo, hi = -3.0, -2.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abs(rk4_amplification(mid)) > growth:
            lo = mid
        else:
            hi = mid
    return complex(lo / 2.0)


class TestLoneModeDecision:
    def probes(self, monkeypatch, mode):
        """The calls of one bisection on a mode set whose worst mode at
        sigma = 4 is ``mode``, as L (lone) and F (full) letters."""
        modes = np.array([mode, 0.1 * mode, -0.01j], dtype=complex)
        monkeypatch.setattr(analysis, "phase_modes", lambda scheme, dim=1, n_beta=1024: modes)
        calls = []
        original = analysis.rk4_amplification

        def recorded(z, *args, **kwargs):
            calls.append("F" if np.ndim(z) else "L")
            return original(z, *args, **kwargs)

        monkeypatch.setattr(analysis, "rk4_amplification", recorded)
        sigma = max_stable_sigma("u5")
        return "".join(calls), sigma

    def test_suspect_inside_the_margin_takes_the_full_scan(self, monkeypatch):
        # at sigma = 2 the suspect's |g| is 1 + 5e-10: unstable, but within
        # the margin, so the lone mode leaves the decision to the full scan
        mode = _real_mode(1.0 + 5e-10)
        assert 1.0 + analysis.STABILITY_TOL < abs(rk4_amplification(2.0 * mode)) \
            <= 1.0 + analysis.STABILITY_TOL + analysis._LONE_MODE_MARGIN
        calls, sigma = self.probes(monkeypatch, mode)
        assert calls.startswith("FLF")
        assert sigma < 2.0  # the full scan found sigma = 2 unstable

    def test_suspect_past_the_margin_settles_the_probe(self, monkeypatch):
        calls, sigma = self.probes(monkeypatch, _real_mode(1.0 + 1e-6))
        assert calls.startswith("FLL")
        assert sigma < 2.0


class TestReferenceBisection:
    """The lone-mode shortcut changes no decision: the table equals the
    plain bisection with a full scan at every probe."""

    def test_default_table(self):
        expected = [(name, dim, plain_max_stable_sigma(name, dim))
                    for name in SCHEME_NAMES for dim in (1, 2)]
        assert stability_table() == expected

    @pytest.mark.parametrize("n_beta", [17, 256])
    def test_coarse_tables(self, n_beta):
        expected = [(name, dim, plain_max_stable_sigma(name, dim, n_beta, 1e-3))
                    for name in SCHEME_NAMES for dim in (1, 2)]
        assert stability_table(n_beta=n_beta, tol=1e-3) == expected

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_every_lone_verdict_is_the_full_scans(self, name, dim, monkeypatch):
        verdicts = []
        original = analysis._lone_amplification

        def recorded(modes, index, sigma):
            growth = original(modes, index, sigma)
            verdicts.append((modes, sigma, growth))
            return growth

        monkeypatch.setattr(analysis, "_lone_amplification", recorded)
        assert max_stable_sigma(name, dim) == plain_max_stable_sigma(name, dim)
        threshold = 1.0 + analysis.STABILITY_TOL
        for modes, sigma, growth in verdicts:
            if growth > threshold + analysis._LONE_MODE_MARGIN:
                assert max_amplification(modes, sigma) > threshold


class TestPhaseDissipationCurve:
    def test_low_wavenumber_limits(self):
        table = phase_dissipation_curve("u5", 0.8, samples=512)
        beta, diss, phase = table[0]
        assert beta > 0.0
        assert abs(diss) <= 1e-6
        assert phase <= 1e-4

    def test_centered_dissipation_from_time_integrator_only(self):
        # centered schemes have purely imaginary eigenvalues, so all
        # dissipation is RK4's |P(iy)|
        table = phase_dissipation_curve("c6", 0.8, samples=64)
        beta = table[:, 0]
        z = 0.8 * stencil_eigenvalue("c6", beta)
        expected = 1.0 - np.abs(rk4_amplification(1j * z.imag))
        assert np.max(np.abs(table[:, 1] - expected)) <= 1e-14

    def test_upwind_dissipates_more_at_nyquist(self):
        d_u9 = phase_dissipation_curve("u9", 0.8, samples=64)[-1, 1]
        d_c6 = phase_dissipation_curve("c6", 0.8, samples=64)[-1, 1]
        assert d_u9 > d_c6

    def test_upwind_dissipation_nonnegative(self):
        table = phase_dissipation_curve("u7", 0.8, samples=512)
        assert np.min(table[:, 1]) >= -1e-12

    def test_shape_and_finite(self):
        table = phase_dissipation_curve("c4", 0.5, samples=128)
        assert table.shape == (128, 3)
        assert np.all(np.isfinite(table[:, :2]))

    @pytest.mark.parametrize("sigma", [1e300, 1e100])
    def test_overflowing_sigma_rejected(self, sigma):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"sigma={sigma}")):
                phase_dissipation_curve("u9", sigma, samples=8)

    def test_zero_real_part_still_reports_nan(self, monkeypatch):
        # |g| is finite where Re(g) = 0: the phase error there is NaN, as
        # documented, and the curve is not rejected
        monkeypatch.setattr(analysis, "rk4_amplification", lambda z: 1j * np.ones_like(z))
        table = phase_dissipation_curve("u5", 0.8, samples=8)
        assert np.all(np.isnan(table[:, 2]))
        assert np.all(table[:, 1] == 0.0)
