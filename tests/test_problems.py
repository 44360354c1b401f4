import numpy as np
import pytest

from fvadvect.grid import Grid
from fvadvect.problems import (
    ProblemSpec,
    convergence_study,
    exact_solution,
    initial_condition,
    max_norm_error,
    point_value,
    standard_problem,
    _averaged,
    _gauss_rule,
)
from fvadvect.velocity import make_velocity


class TestSquareIC:
    def test_interior_cells_exactly_one(self):
        g = Grid(1, 128)
        q = initial_condition(standard_problem("square", "constant", g), g)
        x = g.cell_centers(0)
        fully_inside = np.abs(x - 0.5) <= 0.15 - g.h
        assert np.all(q[fully_inside] == 1.0)

    def test_outside_cells_exactly_zero(self):
        g = Grid(1, 128)
        q = initial_condition(standard_problem("square", "constant", g), g)
        x = g.cell_centers(0)
        outside = np.abs(x - 0.5) >= 0.15 + g.h
        assert np.all(q[outside] == 0.0)

    def test_half_overlap(self):
        # halfwidth of 4.5 cells puts the edge exactly mid-cell
        g = Grid(1, 32)
        spec = ProblemSpec(kind="square", center=(0.5,), halfwidth=4.5 * g.h)
        q = initial_condition(spec, g)
        straddle = np.isclose(q, 0.5)
        assert straddle.sum() == 2

    def test_total_mass_exact(self):
        g = Grid(1, 64)
        q = initial_condition(standard_problem("square", "constant", g), g)
        assert q.sum() * g.h == pytest.approx(0.3, rel=1e-14)

    def test_2d_product_structure(self):
        g = Grid(2, 64)
        q = initial_condition(standard_problem("square", "constant", g), g)
        gx = Grid(1, 64)
        qx = initial_condition(standard_problem("square", "constant", gx), gx)
        assert np.allclose(q, np.outer(qx, qx), atol=1e-15)


class TestCosine8IC:
    def test_peak_cell_below_point_and_above_corner(self):
        g = Grid(1, 128)
        spec = standard_problem("cosine8", "constant", g, radius=15 / 128)
        q = initial_condition(spec, g)
        peak = int(np.argmax(q))
        x = g.cell_centers(0)
        corner = abs(x[peak] - 0.5) + g.h / 2
        corner_val = point_value(spec, (np.array([0.5 + corner]),), g)[0]
        assert q[peak] < 1.0
        assert q[peak] >= corner_val

    def test_quadrature_converged(self):
        g = Grid(1, 64)
        spec = standard_problem("cosine8", "constant", g, radius=15 / 128)
        offs10, w10 = _gauss_rule(10)
        offs20, w20 = _gauss_rule(20)
        a10 = _averaged(spec, g, offs10, w10)
        a20 = _averaged(spec, g, offs20, w20)
        assert np.max(np.abs(a10 - a20)) <= 1e-10

    def test_default_radius_is_fifteen_cells(self):
        g = Grid(1, 64)
        spec = standard_problem("cosine8", "constant", g)
        assert spec.resolved_radius(g) == pytest.approx(15 * g.h)

    def test_range(self):
        g = Grid(2, 64)
        q = initial_condition(standard_problem("cosine8", "constant", g, radius=15 / 128), g)
        assert q.min() >= 0.0
        assert q.max() < 1.0


class TestOtherICs:
    def test_semiellipse_range_and_radius(self):
        g = Grid(1, 64)
        spec = standard_problem("semiellipse", "constant", g)
        assert spec.resolved_radius(g) == 0.25
        q = initial_condition(spec, g)
        assert q.min() >= 0.0
        assert q.max() <= 1.0

    def test_slotted_requires_rotation(self):
        g = Grid(2, 64)
        with pytest.raises(ValueError):
            standard_problem("slotted", "constant", g)
        with pytest.raises(ValueError):
            standard_problem("slotted", "rotation", Grid(1, 64))

    def test_slotted_geometry(self):
        g = Grid(2, 256)
        spec = standard_problem("slotted", "rotation", g)
        # center of the cylinder body (off slot) is 1, slot interior is 0
        inside = point_value(spec, (np.array([0.58]), np.array([0.75])), g)[0]
        in_slot = point_value(spec, (np.array([0.5]), np.array([0.7])), g)[0]
        outside = point_value(spec, (np.array([0.9]), np.array([0.75])), g)[0]
        assert inside == 1.0
        assert in_slot == 0.0
        assert outside == 0.0
        q = initial_condition(spec, g)
        assert q.min() >= 0.0
        assert q.max() <= 1.0

    def test_rotation_center_convention(self):
        g = Grid(2, 64)
        spec = standard_problem("cosine8", "rotation", g)
        assert spec.center == (0.5, 0.75)

    @pytest.mark.parametrize("radius", [0.0, -0.1, np.nan, np.inf, -np.inf])
    def test_radius_must_be_finite_and_positive(self, radius):
        g = Grid(1, 64)
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            standard_problem("cosine8", "constant", g, radius=radius)

    def test_unknown_kind(self):
        g = Grid(1, 64)
        with pytest.raises(ValueError):
            standard_problem("blob", "constant", g)


class TestExactSolution:
    def test_t_zero_bitwise(self):
        g = Grid(1, 64)
        v = make_velocity("constant", g)
        spec = standard_problem("square", "constant", g)
        a = initial_condition(spec, g)
        b = exact_solution(spec, v, 0.0, g)
        assert np.array_equal(a, b)

    def test_constant_full_transit(self):
        g = Grid(1, 64)
        v = make_velocity("constant", g)
        spec = standard_problem("cosine8", "constant", g, radius=15 / 128)
        a = initial_condition(spec, g)
        b = exact_solution(spec, v, 1.0, g)
        assert max_norm_error(a, b) <= 1e-12

    def test_square_half_transit_shifts_center(self):
        g = Grid(1, 64)
        v = make_velocity("constant", g)
        spec = standard_problem("square", "constant", g)
        moved = exact_solution(spec, v, 0.25, g)
        shifted = initial_condition(
            ProblemSpec(kind="square", center=(0.75,), halfwidth=0.15), g
        )
        assert np.array_equal(moved, shifted)

    def test_square_periodic_wrap(self):
        g = Grid(1, 64)
        v = make_velocity("constant", g)
        spec = standard_problem("square", "constant", g)
        moved = exact_solution(spec, v, 0.5, g)  # center wraps to 0.0
        x = g.cell_centers(0)
        near_zero = np.minimum(x, 1.0 - x) <= 0.15 - g.h
        assert np.all(moved[near_zero] == 1.0)

    def test_rotation_full_period(self):
        g = Grid(2, 32)
        v = make_velocity("rotation", g)
        spec = standard_problem("cosine8", "rotation", g, radius=15 / 128)
        a = initial_condition(spec, g)
        b = exact_solution(spec, v, 1.0, g)
        assert max_norm_error(a, b) <= 1e-9

    def test_rotation_quarter_turn(self):
        g = Grid(2, 64)
        v = make_velocity("rotation", g)
        spec = standard_problem("cosine8", "rotation", g, radius=15 / 128)
        # forward flow is clockwise: the bump starting at (0.5, 0.75) sits
        # at (0.75, 0.5) after a quarter period
        b = exact_solution(spec, v, 0.25, g)
        i, j = np.unravel_index(np.argmax(b), b.shape)
        x = g.cell_centers(0)
        assert abs(x[i] - 0.75) <= g.h
        assert abs(x[j] - 0.5) <= g.h


class TestMaxNormError:
    def test_identical(self):
        g = Grid(1, 64)
        q = initial_condition(standard_problem("square", "constant", g), g)
        assert max_norm_error(q, q) == 0.0

    def test_single_cell_difference(self):
        g = Grid(1, 64)
        a = initial_condition(standard_problem("square", "constant", g), g)
        b = a.copy()
        b[10] += 1e-3
        assert max_norm_error(a, b) == pytest.approx(1e-3)

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.random((24, 24))
        b = rng.random((24, 24))
        oracle = max(
            abs(a[i, j] - b[i, j])
            for i in range(24)
            for j in range(24)
        )
        assert max_norm_error(a, b) == oracle

    def test_grid_mismatch(self):
        g1 = Grid(1, 64)
        g2 = Grid(1, 32)
        a = initial_condition(standard_problem("square", "constant", g1), g1)
        b = initial_condition(standard_problem("square", "constant", g2), g2)
        with pytest.raises(ValueError):
            max_norm_error(a, b)


class TestConvergenceStudy:
    def test_smooth_orders_fourth_order_asymptotically(self):
        recs = convergence_study(
            "cosine8", "constant", "u5", 0.8, [128, 256], limiter="on", dim=1
        )
        assert recs[0].order is None
        assert recs[1].order >= 3.7

    def test_limiter_transparent_on_smooth(self):
        on = convergence_study("cosine8", "constant", "u5", 0.8, [128], limiter="on")
        off = convergence_study("cosine8", "constant", "u5", 0.8, [128], limiter="off")
        assert on[0].error <= 2.0 * off[0].error

    def test_square_order_capped_by_discontinuity(self):
        recs = convergence_study(
            "square", "constant", "u5", 0.8, [64, 128], limiter="on", dim=1
        )
        assert recs[1].order < 1.5
