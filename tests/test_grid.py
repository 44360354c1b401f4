import math
import tracemalloc

import numpy as np
import pytest

from fvadvect.grid import (
    Grid,
    conserved_sum,
    fill_ghosts,
    flux_divergence,
    neighbour_apply,
)
from buffers import nan_buffers


def periodic_image(a, m, axis):
    """The array whose entry k along ``axis`` is entry (k+m) % n of ``a``."""
    out = np.empty(a.shape)
    return neighbour_apply(np.add, a, m, 0.0, 0, axis, out)


def kahan_sum(values):
    total = 0.0
    comp = 0.0
    for v in values:
        y = v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


class TestGrid:
    def test_spacing(self):
        g = Grid(1, 16)
        assert g.h == pytest.approx(1.0 / 16)
        assert g.shape == (16,)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(3, 32)
        with pytest.raises(ValueError):
            Grid(1, 8)  # fewer cells than the widest read spans
        with pytest.raises(ValueError, match=f"at least {Grid.MIN_CELLS} "):
            Grid(2, Grid.MIN_CELLS - 1)
        with pytest.raises(ValueError):
            Grid(1, 32, lo=1.0, hi=0.0)
        assert Grid(1, Grid.MIN_CELLS).n == 2 * 5 + 1

    @pytest.mark.parametrize("lo, hi", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0),
                                        (0.0, np.nan), (0.5, 0.5), (-1e308, 1e308)])
    def test_domain_must_be_finite(self, lo, hi):
        with pytest.raises(ValueError, match="domain extent must be positive and finite"):
            Grid(1, 16, lo=lo, hi=hi)

    def test_volume_must_be_finite(self):
        # 1e300 is a finite 1D extent, but its square overflows, and so
        # would the conserved sum's cell volume h**2
        assert Grid(1, 16, hi=1e300).h == 6.25e298
        with pytest.raises(ValueError, match="its volume in 2D"):
            Grid(2, 16, hi=1e300)

    def test_coordinates(self):
        g = Grid(2, 16, lo=0.0, hi=2.0)
        assert g.h == pytest.approx(0.125)
        assert g.cell_centers(0)[0] == pytest.approx(0.0625)
        assert g.face_coords(0)[0] == 0.0
        x, y = g.face_center_mesh(0)
        assert x.shape == (16, 16)
        assert x[3, 0] == pytest.approx(3 * 0.125)       # face coordinate
        assert y[3, 2] == pytest.approx(2.5 * 0.125)     # transverse center


class TestFillGhosts:
    """The periodic images a read wraps onto, through ``neighbour_apply``."""

    def test_constant_field(self):
        vals = np.full(16, 3.0)
        for m in range(-5, 6):
            assert np.all(periodic_image(vals, m, 0) == 3.0)

    def test_periodic_wrap_1d(self):
        vals = np.arange(16, dtype=float)
        # the read just left of cell 0 is the periodic image of cell N-1
        assert periodic_image(vals, -1, 0)[0] == 15.0
        assert periodic_image(vals, 1, 0)[15] == 0.0

    def test_2d_matches_index_arithmetic(self):
        rng = np.random.default_rng(0)
        n = 16
        vals = rng.random((n, n))
        for axis in (0, 1):
            for m in (-5, -2, 3, 5):
                image = periodic_image(vals, m, axis)
                for i in (0, 3, 11, n - 1):
                    for j in (0, 7, 10, n - 1):
                        k = (i + m) % n if axis == 0 else i
                        l = (j + m) % n if axis == 1 else j
                        assert image[i, j] == vals[k, l]

    def test_idempotent_bitwise(self):
        # writing the wrapped entries again leaves the result unchanged
        rng = np.random.default_rng(1)
        vals = rng.random((20, 20))
        for axis in (0, 1):
            out = np.empty((20, 20))
            neighbour_apply(np.add, vals, -3, 0.0, 0, axis, out)
            once = out.copy()
            wraps = [(axis_cut(axis, slice(0, 3)), axis_cut(axis, slice(17, 20)), None)]
            fill_ghosts(np.add, vals, 0.0, out, wraps)
            assert np.array_equal(once, out)

    def test_shifted_matches_roll(self):
        rng = np.random.default_rng(2)
        vals = rng.random((16, 16))
        for off in ((1, 0), (-2, 3), (5, -5)):
            rolled = np.roll(np.roll(vals, -off[0], axis=0), -off[1], axis=1)
            shifted = periodic_image(periodic_image(vals, off[0], 0), off[1], 1)
            assert np.array_equal(shifted, rolled)


def axis_cut(axis, sl):
    return (sl, slice(None)) if axis == 0 else (slice(None), sl)


class TestNeighbourReads:
    def test_pad_and_ghost_views_match_roll(self):
        # every shift a kernel reads, in 1D and along both axes in 2D
        rng = np.random.default_rng(6)
        for dim in (1, 2):
            g = Grid(dim, 16)
            vals = rng.random(g.shape)
            for axis in range(dim):
                for m in range(-5, 6):
                    rolled = np.roll(vals, -m, axis=axis)
                    assert np.array_equal(periodic_image(vals, m, axis), rolled)

    def test_neighbour_apply_matches_roll(self):
        rng = np.random.default_rng(7)
        for dim in (1, 2):
            g = Grid(dim, 16)
            x, y = rng.random(g.shape), rng.random(g.shape)
            for d in range(dim):
                for mx in range(-5, 6):
                    for my in range(-5, 6):
                        got = neighbour_apply(np.subtract, x, mx, y, my, d, np.empty(g.shape))
                        want = np.roll(x, -mx, axis=d) - np.roll(y, -my, axis=d)
                        assert np.array_equal(got, want)

    def test_neighbour_apply_rejects_unusable_output(self):
        # a strided output cannot be flattened in place, and writing over an
        # operand would corrupt the wrapped entries along the last axis
        x = np.ones((16, 16))
        with pytest.raises(ValueError):
            neighbour_apply(np.add, x, 1, x, 0, 1, np.empty((16, 32))[:, ::2])
        with pytest.raises(ValueError):
            neighbour_apply(np.add, x, 1, np.ones((16, 16)), 0, 1, x)


class TestConservedSum:
    def test_uniform(self):
        g = Grid(1, 16, hi=4.0)  # h = 0.25
        assert conserved_sum(g, np.ones(16)) == pytest.approx(4.0)

    def test_arithmetic(self):
        # four cells of h=0.25 would give (1+2+3+4)*0.25 = 2.5; use the
        # same values tiled to satisfy the minimum grid size
        g = Grid(1, 16, hi=4.0)
        assert conserved_sum(g, np.tile([1.0, 2.0, 3.0, 4.0], 4)) == pytest.approx(4 * 2.5)

    def test_matches_compensated_oracle(self):
        rng = np.random.default_rng(3)
        g = Grid(2, 24)
        vals = rng.standard_normal((24, 24)) * 1e3
        oracle = kahan_sum(vals.ravel().tolist()) * g.h ** 2
        assert conserved_sum(g, vals) == pytest.approx(oracle, rel=1e-15)

    @pytest.mark.parametrize("dim, n", [(1, 97), (2, 33)])
    def test_equals_whole_list_sum_bitwise(self, dim, n):
        # wide exponents make the order of a naive sum matter; fsum is
        # correctly rounded, so the row-by-row stream gives the same bits
        rng = np.random.default_rng(5)
        shape = (n,) * dim
        vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-200, 200, shape)
        g = Grid(dim, n)
        assert conserved_sum(g, vals) == math.fsum(vals.ravel().tolist()) * g.h ** dim

    def test_streams_without_a_whole_grid_list(self):
        # one Python float list of 256^2 cells takes about 2.1 MB
        g = Grid(2, 256)
        vals = np.random.default_rng(6).standard_normal((256, 256))
        tracemalloc.start()
        try:
            conserved_sum(g, vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6


class TestFluxDivergence:
    def test_constant_flux_telescopes(self):
        g = Grid(2, 16)
        fluxes = (np.full((16, 16), 2.5), np.full((16, 16), -1.0))
        assert np.all(flux_divergence(g, fluxes, 0.01, *nan_buffers(fluxes[0], 2)) == 0.0)

    def test_unit_difference(self):
        # face value equal to the face index: every interior difference is
        # one; the wrap face picks up the compensating -(n-1) so the total
        # still telescopes to zero
        g = Grid(1, 16)
        F = np.arange(16, dtype=float)
        inc = flux_divergence(g, (F,), g.h, *nan_buffers(F, 2))  # dt/h = 1
        assert np.all(inc[:-1] == 1.0)
        assert inc[-1] == -(16 - 1)
        assert abs(inc.sum()) == 0.0

    def test_telescoping_random(self):
        rng = np.random.default_rng(4)
        g = Grid(2, 32)
        fluxes = tuple(rng.standard_normal((32, 32)) for _ in range(2))
        dt = 0.37
        inc = flux_divergence(g, fluxes, dt, *nan_buffers(fluxes[0], 2))
        scale = sum(np.abs(F).sum() for F in fluxes) * dt / g.h
        assert abs(inc.sum()) <= 1e-13 * scale

    def test_update_conserves(self):
        rng = np.random.default_rng(5)
        g = Grid(1, 32)
        f = rng.random(32)
        before = conserved_sum(g, f)
        F = (rng.standard_normal(32),)
        after = conserved_sum(g, f - flux_divergence(g, F, 0.01, *nan_buffers(F[0], 2)))
        assert after == pytest.approx(before, rel=1e-13, abs=1e-15)
