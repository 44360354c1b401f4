from fractions import Fraction

import numpy as np
import pytest

from fvadvect.grid import Grid
from fvadvect.schemes import (
    DONOR,
    SCHEME_NAMES,
    Orientation,
    default_product_order,
    face_flow,
    face_interpolate,
    product_rule_flux,
    scheme_coefficients,
)
from fvadvect.velocity import SolidBodyRotation, face_average_velocity
from buffers import nan_buffers

def exact_coefficients(scheme):
    return [Fraction(n, scheme.denominator) for n in scheme.numerators]


EXPECTED = {
    "c4": ((-1, 7, 7, -1), 12, 4),
    "u5": ((2, -13, 47, 27, -3), 60, 5),
    "c6": ((1, -8, 37, 37, -8, 1), 60, 6),
    "u7": ((-3, 25, -101, 319, 214, -38, 4), 420, 7),
    "u9": ((4, -41, 199, -641, 1879, 1375, -305, 55, -5), 2520, 9),
}


class TestCoefficientTables:
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_exact_values(self, name):
        nums, den, order = EXPECTED[name]
        s = scheme_coefficients(name)
        assert s.numerators == nums
        assert s.denominator == den
        assert s.order == order

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_rational_sum_is_one(self, name):
        s = scheme_coefficients(name)
        assert sum(exact_coefficients(s)) == Fraction(1)

    def test_offsets(self):
        assert scheme_coefficients("u5").offsets == (-2, -1, 0, 1, 2)
        assert scheme_coefficients("c4").offsets == (-1, 0, 1, 2)
        assert scheme_coefficients("u9").offsets == tuple(range(-4, 5))

    def test_unknown_name(self):
        # CTU's one-point donor stencil is internal: no option or lookup names it
        for name in ("u11", DONOR.name):
            with pytest.raises(ValueError):
                scheme_coefficients(name)

    def test_product_order_pairing(self):
        assert default_product_order(scheme_coefficients("c4")) == 4
        assert default_product_order(scheme_coefficients("u5")) == 4
        assert default_product_order(scheme_coefficients("c6")) == 6
        assert default_product_order(scheme_coefficients("u7")) == 6
        assert default_product_order(scheme_coefficients("u9")) == 6


def polynomial_cell_averages(coeffs, cells, h=1.0):
    """Exact averages of sum(c_k x^k) over unit-h cells starting at ``cells``."""
    out = []
    for a in cells:
        total = 0.0
        for k, c in enumerate(coeffs):
            total += c * ((a + h) ** (k + 1) - a ** (k + 1)) / (k + 1)
        out.append(total / h)
    return np.array(out)


class TestPolynomialExactness:
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_reproduces_face_values(self, name):
        # stencil applied to exact cell averages of a polynomial of degree
        # order-1 returns the exact face point value
        rng = np.random.default_rng(42)
        s = scheme_coefficients(name)
        coeffs = rng.uniform(-1, 1, size=s.order)
        # face at x = 0 with left cell spanning [-1, 0]
        cells = np.array([s_ - 1.0 for s_ in s.offsets])
        avg = polynomial_cell_averages(coeffs, cells)
        face = float(np.dot(s.coefficients, avg))
        exact = sum(c * 0.0 ** k for k, c in enumerate(coeffs))
        assert face == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_linear_data_any_scheme(self, name):
        # averages of f(x) = x with h = 1 and centers at i + 1/2: every face
        # value is the face coordinate
        s = scheme_coefficients(name)
        cells = np.array([float(s_ - 1) for s_ in s.offsets])
        avg = polynomial_cell_averages([0.0, 1.0], cells)
        assert float(np.dot(s.coefficients, avg)) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_constant_field(self, name):
        g = Grid(1, 16)
        q = np.full(16, 1.7)
        u = np.ones(16)
        faces = face_interpolate(q, scheme_coefficients(name), 0, face_flow((u,), g, 2),
                                 *nan_buffers(q, 3))
        assert np.allclose(faces, 1.7, rtol=0, atol=1e-14)


def two_orientation_faces(q, scheme, d, u_face):
    """Reference: both stencil orientations built, then chosen per face."""
    plus = np.zeros(q.shape)
    minus = np.zeros(q.shape)
    for s, a in zip(scheme.offsets, scheme.coefficients):
        plus += a * np.roll(q, 1 - s, axis=d)
        minus += a * np.roll(q, s, axis=d)
    return np.where(u_face >= 0.0, plus, minus)


class TestUpwindOrientation:
    @pytest.mark.parametrize("name", ("u5", "u7", "u9"))
    @pytest.mark.parametrize("sign", (1.0, -1.0))
    def test_uniform_sign_matches_two_orientations(self, name, sign):
        # one orientation built for a uniform flow sign gives bitwise the
        # per-face choice between both
        rng = np.random.default_rng(14)
        g = Grid(2, 24)
        q = rng.random((24, 24))
        u_faces = tuple(sign * rng.uniform(0.5, 2.0, (24, 24)) for _ in range(2))
        if sign > 0:
            u_faces[0][3, 5] = 0.0  # a tie takes the positive orientation
        flow = face_flow(u_faces, g, 2)
        whole = (Orientation((slice(None),) * 2, sign < 0),)
        assert flow.orientations == (whole, whole)
        s = scheme_coefficients(name)
        for d in range(2):
            assert np.array_equal(
                face_interpolate(q, s, d, flow, *nan_buffers(q, 3)),
                two_orientation_faces(q, s, d, u_faces[d]),
            )

    def test_rotation_builds_two_row_blocks(self):
        # u_x changes sign with y only and u_y with x only: one block of
        # whole rows per sign on each axis, bitwise the per-face choice
        rng = np.random.default_rng(15)
        g = Grid(2, 24)
        q = rng.random((24, 24))
        u_faces = face_average_velocity(SolidBodyRotation(), g)
        flow = face_flow(u_faces, g, 6)
        for d in range(2):
            blocks = flow.orientations[d]
            assert len(blocks) == 2
            assert {b.mirrored for b in blocks} == {False, True}
            for name in ("u5", "u7", "u9"):
                s = scheme_coefficients(name)
                assert np.array_equal(
                    face_interpolate(q, s, d, flow, *nan_buffers(q, 3)),
                    two_orientation_faces(q, s, d, u_faces[d]),
                )

    def test_sign_varying_along_normal_chooses_per_face(self):
        rng = np.random.default_rng(16)
        g = Grid(2, 24)
        q = rng.random((24, 24))
        u_faces = face_average_velocity(SolidBodyRotation(), g)[::-1]  # u_y(x) along x
        flow = face_flow(u_faces, g, 2)
        assert flow.orientations == (None, None)
        s = scheme_coefficients("u9")
        for d in range(2):
            assert np.array_equal(
                face_interpolate(q, s, d, flow, *nan_buffers(q, 3)),
                two_orientation_faces(q, s, d, u_faces[d]),
            )

    def test_mirror_symmetry(self):
        # reflecting the data about face 0 and flipping the velocity gives
        # the reflected face values exactly
        rng = np.random.default_rng(7)
        g = Grid(1, 32)
        vals = rng.random(32)
        for name in ("u5", "u7", "u9"):
            s = scheme_coefficients(name)
            q = vals
            f_plus = face_interpolate(q, s, 0, face_flow((np.ones(32),), g, 2), *nan_buffers(q, 3))
            q_ref = vals[::-1]
            f_minus = face_interpolate(q_ref, s, 0, face_flow((-np.ones(32),), g, 2),
                                       *nan_buffers(q_ref, 3))
            mirrored = np.roll(f_plus[::-1], 1)  # face k -> face -k mod n
            assert np.array_equal(f_minus, mirrored)

    def test_centered_direction_independent(self):
        rng = np.random.default_rng(8)
        g = Grid(1, 32)
        q = rng.random(32)
        for name in ("c4", "c6"):
            s = scheme_coefficients(name)
            f1 = face_interpolate(q, s, 0, face_flow((np.ones(32),), g, 2), *nan_buffers(q, 3))
            f2 = face_interpolate(q, s, 0, face_flow((-np.ones(32),), g, 2), *nan_buffers(q, 3))
            assert np.array_equal(f1, f2)

    def test_sign_selects_stencil(self):
        rng = np.random.default_rng(9)
        g = Grid(1, 32)
        q = rng.random(32)
        s = scheme_coefficients("u5")
        f_plus = face_interpolate(q, s, 0, face_flow((np.ones(32),), g, 2), *nan_buffers(q, 3))
        f_minus = face_interpolate(q, s, 0, face_flow((-np.ones(32),), g, 2), *nan_buffers(q, 3))
        u_mixed = np.where(np.arange(32) % 2 == 0, 1.0, -1.0)
        f_mixed = face_interpolate(q, s, 0, face_flow((u_mixed,), g, 2), *nan_buffers(q, 3))
        assert np.array_equal(f_mixed[::2], f_plus[::2])
        assert np.array_equal(f_mixed[1::2], f_minus[1::2])

    def test_zero_velocity_takes_positive_branch(self):
        rng = np.random.default_rng(10)
        g = Grid(1, 32)
        q = rng.random(32)
        s = scheme_coefficients("u9")
        f_plus = face_interpolate(q, s, 0, face_flow((np.ones(32),), g, 2), *nan_buffers(q, 3))
        f_zero = face_interpolate(q, s, 0, face_flow((np.zeros(32),), g, 2), *nan_buffers(q, 3))
        assert np.array_equal(f_plus, f_zero)


class TestProductRule:
    def test_order2_is_plain_product(self):
        rng = np.random.default_rng(11)
        g = Grid(2, 16)
        qf = rng.random((16, 16))
        uf = rng.random((16, 16))
        got = product_rule_flux(qf, face_flow((uf, uf), g, 2), 0, *nan_buffers(qf, 3))
        assert np.array_equal(got, qf * uf)

    def test_1d_reduces_to_product(self):
        rng = np.random.default_rng(12)
        g = Grid(1, 16)
        qf = rng.random(16)
        uf = rng.random(16)
        for order in (2, 4, 6):
            got = product_rule_flux(qf, face_flow((uf,), g, order), 0, *nan_buffers(qf, 3))
            assert np.array_equal(got, qf * uf)

    def test_transverse_constant_velocity(self):
        # constant u in the transverse direction kills every correction term
        rng = np.random.default_rng(13)
        g = Grid(2, 16)
        qf = rng.random((16, 16))
        uf = np.full((16, 16), 1.3)
        for order in (4, 6):
            got = product_rule_flux(qf, face_flow((uf, uf), g, order), 0, *nan_buffers(qf, 3))
            assert np.array_equal(got, qf * uf)

    def test_invalid_order(self):
        g = Grid(2, 16)
        z = np.zeros((16, 16))
        with pytest.raises(ValueError):
            face_flow((z, z), g, 3)

    def test_correction_orders_converge(self):
        # face-averaged product of two smooth periodic factors: the order-4
        # and order-6 formulas must approach the quadrature oracle at their
        # nominal rates
        from numpy.polynomial.legendre import leggauss

        def run(n, order):
            g = Grid(2, n)
            xf = g.face_coords(0)
            yc = g.cell_centers(1)
            gx, gw = leggauss(12)

            def favg(f):
                # average of f(x_face, y) over each y cell
                out = np.zeros((n, n))
                for t, w in zip(gx, gw):
                    ys = yc + t * g.h / 2
                    out += w / 2 * f(xf[:, None], ys[None, :])
                return out

            q = lambda x, y: np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y) + 2.0
            u = lambda x, y: np.cos(2 * np.pi * y) + 3.0
            qf, uf = favg(q), favg(u)
            exact = favg(lambda x, y: q(x, y) * u(x, y))
            got = product_rule_flux(qf, face_flow((uf, uf), g, order), 0, *nan_buffers(qf, 3))
            return float(np.max(np.abs(got - exact)))

        for order, min_rate in ((4, 3.5), (6, 5.0)):
            e1, e2 = run(32, order), run(64, order)
            assert np.log2(e1 / e2) >= min_rate
