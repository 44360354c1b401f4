import numpy as np
import pytest

from fvadvect.grid import Grid, Workspace, conserved_sum, flux_divergence
from fvadvect.loworder import ctu_fluxes, low_order_update
from fvadvect.schemes import face_flow
from fvadvect.velocity import ConstantDiagonal, face_average_velocity
from buffers import nan_buffers


def ctu(q, uf, dt, grid):
    """The CTU fluxes for face velocities ``uf``."""
    return ctu_fluxes(q, face_flow(uf, grid, 2), dt, Workspace(grid))


def ctu_update(q, uf, dt, grid):
    """One CTU step."""
    ws = Workspace(grid)
    return low_order_update(q, ctu_fluxes(q, face_flow(uf, grid, 2), dt, ws), dt, grid, ws)


def donor_cell_update(q, u_faces, dt, grid):
    """Plain donor-cell scheme (no transverse coupling), as a test oracle."""
    c = q
    fluxes = []
    for d in range(grid.dim):
        up = np.where(u_faces[d] >= 0.0, np.roll(c, 1, axis=d), c)
        fluxes.append(u_faces[d] * up)
    return c - flux_divergence(grid, tuple(fluxes), dt, *nan_buffers(c, 2))


def bilinear_remap_oracle(c, sx, sy):
    """Exact constant-velocity remap: overlap fractions of the shifted cell."""
    return (
        (1 - sx) * (1 - sy) * c
        + sx * (1 - sy) * np.roll(c, 1, axis=0)
        + (1 - sx) * sy * np.roll(c, 1, axis=1)
        + sx * sy * np.roll(np.roll(c, 1, axis=0), 1, axis=1)
    )


class TestCTU1D:
    def test_donor_cell_equivalence_bitwise(self):
        rng = np.random.default_rng(0)
        g = Grid(1, 32)
        q = rng.random(32)
        uf = (np.ones(32),)
        (F,) = ctu(q, uf, 0.8 * g.h, g)
        assert np.array_equal(F, np.roll(q, 1))

    def test_negative_velocity_donor(self):
        rng = np.random.default_rng(1)
        g = Grid(1, 32)
        q = rng.random(32)
        uf = (-np.ones(32),)
        (F,) = ctu(q, uf, 0.8 * g.h, g)
        assert np.array_equal(F, -q)

    def test_square_wave_monotone(self):
        g = Grid(1, 64)
        x = g.cell_centers(0)
        q = np.where(np.abs(x - 0.5) <= 0.15, 1.0, 0.0)
        uf = (np.ones(64),)
        dt = 0.8 * g.h
        q1 = ctu_update(q, uf, dt, g)
        assert q1.max() <= q.max() + 1e-13
        assert q1.min() >= q.min() - 1e-13


class TestCTU2D:
    def test_constant_field(self):
        g = Grid(2, 16)
        uf = face_average_velocity(ConstantDiagonal(dim=2), g)
        q = np.full((16, 16), 3.0)
        q1 = ctu_update(q, uf, 0.5 * g.h, g)
        assert np.array_equal(q1, q)

    @pytest.mark.parametrize("speeds", [(1.0, 1.0), (1.0, 0.5), (0.6, 1.0)])
    def test_matches_remap_oracle(self, speeds):
        rng = np.random.default_rng(2)
        g = Grid(2, 16)
        v = ConstantDiagonal(components=speeds)
        uf = face_average_velocity(v, g)
        q = rng.random((16, 16))
        dt = 0.8 * g.h / max(speeds)
        q1 = ctu_update(q, uf, dt, g)
        sx = speeds[0] * dt / g.h
        sy = speeds[1] * dt / g.h
        oracle = bilinear_remap_oracle(q, sx, sy)
        assert np.max(np.abs(q1 - oracle)) <= 1e-12

    def test_monotone_no_new_extrema(self):
        rng = np.random.default_rng(3)
        g = Grid(2, 16)
        uf = face_average_velocity(ConstantDiagonal(dim=2), g)
        q = rng.random((16, 16))
        dt = 0.9 * g.h
        q1 = ctu_update(q, uf, dt, g)
        assert q1.max() <= q.max() + 1e-13
        assert q1.min() >= q.min() - 1e-13

    def test_stable_where_donor_cell_diverges(self):
        # per-direction CFL 0.9 on diagonal flow: the summed donor-cell CFL
        # is 1.8, so donor-cell blows up while the corner-coupled update
        # stays bounded (20-step smoke version of the full criterion)
        g = Grid(2, 32)
        x, y = g.cell_center_mesh()
        vals = ((np.abs(x - 0.5) <= 0.15) & (np.abs(y - 0.5) <= 0.15)).astype(float)
        uf = face_average_velocity(ConstantDiagonal(dim=2), g)
        dt = 0.9 * g.h
        q_ctu = vals
        q_dc = vals
        m0 = np.abs(vals).max()
        for _ in range(20):
            q_ctu = ctu_update(q_ctu, uf, dt, g)
            q_dc = donor_cell_update(q_dc, uf, dt, g)
        assert np.abs(q_ctu).max() <= m0 + 1e-12
        assert np.abs(q_dc).max() > 10 * m0

    def test_conservation(self):
        rng = np.random.default_rng(4)
        g = Grid(2, 24)
        uf = face_average_velocity(ConstantDiagonal(dim=2), g)
        q = rng.random((24, 24))
        before = conserved_sum(g, q)
        dt = 0.7 * g.h
        q1 = ctu_update(q, uf, dt, g)
        assert conserved_sum(g, q1) == pytest.approx(before, rel=1e-13)
