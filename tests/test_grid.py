import math

import numpy as np
import pytest

from fvadvect.grid import (
    CellField,
    Grid,
    conserved_sum,
    fill_ghosts,
    flux_divergence,
    neighbour_apply,
    periodic_pad,
)


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
        assert g.padded_shape == (28,)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(3, 32)
        with pytest.raises(ValueError):
            Grid(1, 8)  # fewer than 2*ghost cells
        with pytest.raises(ValueError):
            Grid(1, 32, ghost=4)
        with pytest.raises(ValueError):
            Grid(1, 32, lo=1.0, hi=0.0)

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
    def test_constant_field(self):
        g = Grid(1, 16)
        f = CellField.from_interior(g, np.full(16, 3.0))
        assert np.all(f.data == 3.0)

    def test_periodic_wrap_1d(self):
        g = Grid(1, 16)
        f = CellField.from_interior(g, np.arange(16, dtype=float))
        # ghost just left of the interior is the periodic image of cell N-1
        assert f.data[g.ghost - 1] == 15.0
        assert f.data[g.ghost + 16] == 0.0

    def test_2d_matches_index_arithmetic(self):
        rng = np.random.default_rng(0)
        g = Grid(2, 16)
        vals = rng.random((16, 16))
        f = CellField.from_interior(g, vals)
        n, ghost = g.n, g.ghost
        for i in (0, 3, ghost + 5, n + ghost, 2 * ghost + n - 1):
            for j in (0, 7, ghost, n + ghost + 2):
                assert f.data[i, j] == vals[(i - ghost) % n, (j - ghost) % n]

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(1)
        g = Grid(2, 20)
        f = CellField.from_interior(g, rng.random((20, 20)))
        once = f.data.copy()
        fill_ghosts(f)
        assert np.array_equal(once, f.data)

    def test_shifted_matches_roll(self):
        rng = np.random.default_rng(2)
        g = Grid(2, 16)
        vals = rng.random((16, 16))
        f = CellField.from_interior(g, vals)
        for off in ((1, 0), (-2, 3), (5, -5)):
            rolled = np.roll(np.roll(vals, -off[0], axis=0), -off[1], axis=1)
            assert np.array_equal(f.shifted(off), rolled)


class TestNeighbourReads:
    def test_pad_and_ghost_views_match_roll(self):
        rng = np.random.default_rng(6)
        for dim in (1, 2):
            g = Grid(dim, 16)
            vals = rng.random(g.shape)
            f = CellField.from_interior(g, vals)
            for axis in range(dim):
                pad, ghosts = periodic_pad(vals, 3, axis), f.along(axis)
                for m in range(-3, 4):
                    rolled = np.roll(vals, -m, axis=axis)
                    assert np.array_equal(pad.at(m), rolled)
                    assert np.array_equal(ghosts.at(m), rolled)

    def test_neighbour_apply_matches_roll(self):
        rng = np.random.default_rng(7)
        for dim in (1, 2):
            g = Grid(dim, 16)
            x, y = rng.random(g.shape), rng.random(g.shape)
            for d in range(dim):
                for mx in range(-2, 3):
                    for my in range(-2, 3):
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
        f = CellField.from_interior(g, np.ones(16))
        assert conserved_sum(f) == pytest.approx(4.0)

    def test_arithmetic(self):
        # four cells of h=0.25 would give (1+2+3+4)*0.25 = 2.5; use the
        # same values tiled to satisfy the minimum grid size
        g = Grid(1, 16, hi=4.0)
        f = CellField.from_interior(g, np.tile([1.0, 2.0, 3.0, 4.0], 4))
        assert conserved_sum(f) == pytest.approx(4 * 2.5)

    def test_matches_compensated_oracle(self):
        rng = np.random.default_rng(3)
        g = Grid(2, 24)
        vals = rng.standard_normal((24, 24)) * 1e3
        f = CellField.from_interior(g, vals)
        oracle = kahan_sum(vals.ravel().tolist()) * g.h ** 2
        assert conserved_sum(f) == pytest.approx(oracle, rel=1e-15)


class TestFluxDivergence:
    def test_constant_flux_telescopes(self):
        g = Grid(2, 16)
        fluxes = (np.full((16, 16), 2.5), np.full((16, 16), -1.0))
        assert np.all(flux_divergence(g, fluxes, 0.01) == 0.0)

    def test_unit_difference(self):
        # face value equal to the face index: every interior difference is
        # one; the wrap face picks up the compensating -(n-1) so the total
        # still telescopes to zero
        g = Grid(1, 16)
        F = np.arange(16, dtype=float)
        inc = flux_divergence(g, (F,), g.h)  # dt/h = 1
        assert np.all(inc[:-1] == 1.0)
        assert inc[-1] == -(16 - 1)
        assert abs(inc.sum()) == 0.0

    def test_telescoping_random(self):
        rng = np.random.default_rng(4)
        g = Grid(2, 32)
        fluxes = tuple(rng.standard_normal((32, 32)) for _ in range(2))
        dt = 0.37
        inc = flux_divergence(g, fluxes, dt)
        scale = sum(np.abs(F).sum() for F in fluxes) * dt / g.h
        assert abs(inc.sum()) <= 1e-13 * scale

    def test_update_conserves(self):
        rng = np.random.default_rng(5)
        g = Grid(1, 32)
        f = CellField.from_interior(g, rng.random(32))
        before = conserved_sum(f)
        F = (rng.standard_normal(32),)
        g2 = CellField.from_interior(g, f.interior - flux_divergence(g, F, 0.01))
        assert conserved_sum(g2) == pytest.approx(before, rel=1e-13, abs=1e-15)
