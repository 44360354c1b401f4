import numpy as np
import pytest

from fvadvect.grid import Grid
from fvadvect.velocity import (
    ConstantDiagonal,
    SolidBodyRotation,
    cell_average_velocity,
    face_average_velocity,
    make_velocity,
    max_speed,
)


def gauss5_face_average(v, d, grid, i, j):
    """Quadrature oracle for the face average of component d."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(5)
    # face normal to d at (i - 1/2): fixed coordinate along d, integrate over
    # the transverse extent of cell j
    if d == 0:
        xf = grid.lo + i * grid.h
        ys = grid.lo + j * grid.h + (x + 1) * grid.h / 2
        vals = v.component(0, (np.full_like(ys, xf), ys))
    else:
        xs = grid.lo + i * grid.h + (x + 1) * grid.h / 2
        yf = grid.lo + j * grid.h
        vals = v.component(1, (xs, np.full_like(xs, yf)))
    return float((vals * w).sum() / 2.0)


class TestConstantDiagonal:
    def test_components(self):
        g = Grid(2, 16)
        v = make_velocity("constant", g)
        uf = face_average_velocity(v, g)
        assert np.all(uf[0] == 1.0)
        assert np.all(uf[1] == 1.0)

    def test_max_speed(self):
        g = Grid(2, 16)
        assert max_speed(make_velocity("constant", g), g) == 1.0

    def test_zero_field_errors(self):
        g = Grid(1, 16)
        with pytest.raises(ValueError):
            max_speed(ConstantDiagonal(components=(0.0,)), g)


class TestSolidBodyRotation:
    def test_center_is_stagnant(self):
        v = SolidBodyRotation(center=(0.5, 0.5))
        assert v.component(0, (np.array([0.5]), np.array([0.5])))[0] == 0.0
        assert v.component(1, (np.array([0.5]), np.array([0.5])))[0] == 0.0

    def test_face_value_quarter_height(self):
        # horizontal velocity at height y = 0.75 is a quarter turn per unit
        # time: 2*pi*0.25
        v = SolidBodyRotation(center=(0.5, 0.5))
        u = v.component(0, (np.array([0.25]), np.array([0.75])))[0]
        assert u == pytest.approx(2 * np.pi * 0.25)

    def test_requires_2d(self):
        g = Grid(1, 16)
        with pytest.raises(ValueError):
            make_velocity("rotation", g)

    def test_max_speed_unit_domain(self):
        g = Grid(2, 32)
        assert max_speed(make_velocity("rotation", g), g) == pytest.approx(np.pi)

    def test_face_averages_exact(self):
        g = Grid(2, 16)
        v = make_velocity("rotation", g)
        uf = face_average_velocity(v, g)
        for d in range(2):
            for (i, j) in ((0, 0), (3, 7), (15, 4)):
                assert uf[d][i, j] == pytest.approx(
                    gauss5_face_average(v, d, g, i, j), abs=1e-14
                )

    def test_trace_back_full_period(self):
        v = SolidBodyRotation(center=(0.5, 0.5))
        pts = (np.array([0.1, 0.7]), np.array([0.9, 0.4]))
        back = v.trace_back(pts, 1.0)
        assert np.allclose(back[0], pts[0], atol=1e-14)
        assert np.allclose(back[1], pts[1], atol=1e-14)

    def test_trace_back_inverts_forward(self):
        # forward flow by t then trace_back by t returns the start
        v = SolidBodyRotation(center=(0.5, 0.5))
        t = 0.23
        th = 2 * np.pi * t
        x0, y0 = 0.3, 0.8
        dx, dy = x0 - 0.5, y0 - 0.5
        # forward rotation is clockwise
        xf = 0.5 + np.cos(th) * dx + np.sin(th) * dy
        yf = 0.5 - np.sin(th) * dx + np.cos(th) * dy
        bx, by = v.trace_back((np.array([xf]), np.array([yf])), t)
        assert bx[0] == pytest.approx(x0, abs=1e-14)
        assert by[0] == pytest.approx(y0, abs=1e-14)


def face_divergence(u_faces, grid):
    """Discrete divergence of the face velocities (diagnostic, ~0 exactly)."""
    out = np.zeros(grid.shape)
    for d, uf in enumerate(u_faces):
        out += np.roll(uf, -1, axis=d) - uf
    return out / grid.h


@pytest.mark.parametrize("kind", ["constant", "rotation"])
def test_discrete_divergence_free(kind):
    g = Grid(2, 32)
    v = make_velocity(kind, g)
    uf = face_average_velocity(v, g)
    div = face_divergence(uf, g)
    assert np.max(np.abs(div)) <= 1e-14 * max_speed(v, g)


def test_cell_averages_affine_exact():
    g = Grid(2, 16)
    v = make_velocity("rotation", g)
    uc = cell_average_velocity(v, g)
    xc = g.cell_centers(0)
    yc = g.cell_centers(1)
    assert uc[0][2, 5] == pytest.approx(2 * np.pi * (yc[5] - 0.5))
    assert uc[1][2, 5] == pytest.approx(2 * np.pi * (0.5 - xc[2]))


@pytest.mark.parametrize("n, extent", [(256, 1.0), (37, 3.7)])
@pytest.mark.parametrize("dim, kind", [(1, "constant"), (2, "constant"), (2, "rotation")])
def test_face_velocity_is_the_cell_velocity(dim, kind, n, extent):
    """Each supported field's u_d does not vary along x_d, and a face
    centroid has its cell centre's transverse coordinates, so the face
    velocities along d are the cell velocities bit for bit."""
    g = Grid(dim, n, hi=extent)
    v = make_velocity(kind, g)
    for u_face, u_cell in zip(face_average_velocity(v, g), cell_average_velocity(v, g)):
        assert u_face.tobytes() == u_cell.tobytes()


def test_unknown_kind():
    g = Grid(2, 16)
    with pytest.raises(ValueError):
        make_velocity("swirl", g)
