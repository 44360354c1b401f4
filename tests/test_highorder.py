import tracemalloc

import numpy as np
import pytest

from fvadvect import highorder
from fvadvect.grid import Grid, Workspace, conserved_sum, flux_divergence
from fvadvect.highorder import rk4_high_order_step, spatial_flux
from fvadvect.loworder import low_order_update
from fvadvect.schemes import (
    SCHEME_NAMES,
    compact,
    default_product_order,
    face_flow,
    product_rule_flux,
    scheme_coefficients,
)
from fvadvect.velocity import (
    ConstantDiagonal,
    SolidBodyRotation,
    face_average_velocity,
    make_velocity,
)
from buffers import nan_buffers


def sine_cell_averages(grid, k=1):
    """Exact averages of sin(2 pi k x) over the cells of a 1D grid."""
    edges = grid.lo + np.arange(grid.n + 1) * grid.h
    anti = -np.cos(2 * np.pi * k * edges) / (2 * np.pi * k)
    return np.diff(anti) / grid.h


def rk4_update(q, flow, dt, scheme):
    """The unlimited high-order step: q less the divergence of F_high."""
    ws = Workspace(flow.grid)
    return low_order_update(q, rk4_high_order_step(q, flow, dt, scheme, ws), dt, flow.grid, ws)


def face_fluxes(q, flow, scheme):
    """``spatial_flux`` into the flux arrays of a fresh workspace."""
    ws = Workspace(flow.grid)
    return spatial_flux(q, flow, scheme, ws, ws.flux)


def fft_rk4_oracle(q0, nsteps, sigma, scheme):
    """Exact propagation of the linear periodic scheme, mode by mode.

    Unit velocity along every axis of ``q0``; the semi-discrete
    eigenvalue of a mode is the sum of its per-axis eigenvalues.
    """
    betas = np.meshgrid(
        *(2 * np.pi * np.fft.fftfreq(n) for n in q0.shape), indexing="ij"
    )
    mu = 0.0
    for beta in betas:
        phi = sum(
            a * np.exp(1j * s * beta)
            for s, a in zip(scheme.offsets, scheme.coefficients)
        )
        mu = mu - phi * (1.0 - np.exp(-1j * beta))
    z = sigma * mu
    g = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    return np.real(np.fft.ifftn(np.fft.fftn(q0) * g**nsteps))


def _d1_c2(f, axis, h):
    return (np.roll(f, -1, axis) - np.roll(f, 1, axis)) / (2.0 * h)


def _d1_c4(f, axis, h):
    return (
        -np.roll(f, -2, axis)
        + 8.0 * np.roll(f, -1, axis)
        - 8.0 * np.roll(f, 1, axis)
        + np.roll(f, 2, axis)
    ) / (12.0 * h)


def _d2_c2(f, axis, h):
    return (np.roll(f, -1, axis) - 2.0 * f + np.roll(f, 1, axis)) / (h * h)


def _d3_c2(f, axis, h):
    return (
        np.roll(f, -2, axis)
        - 2.0 * np.roll(f, -1, axis)
        + 2.0 * np.roll(f, 1, axis)
        - np.roll(f, 2, axis)
    ) / (2.0 * h ** 3)


def derivative_product_rule(q_face, u_face, order, d, grid):
    """Reference: the product rule in its derivative form.

    order 4 adds (h^2/12) dq du per transverse axis with 2nd-order first
    derivatives; order 6 uses deconvolved 4th-order first derivatives in
    the h^2 term and adds the h^4 term of third/first and second/second
    derivative pairs.
    """
    flux = q_face * u_face
    if order == 2 or grid.dim == 1:
        return flux
    h = grid.h
    for t in range(grid.dim):
        if t == d:
            continue
        if order == 4:
            flux += (h * h / 12.0) * _d1_c2(q_face, t, h) * _d1_c2(u_face, t, h)
        else:
            dq3 = _d3_c2(q_face, t, h)
            du3 = _d3_c2(u_face, t, h)
            dq1 = _d1_c4(q_face, t, h) - (h * h / 24.0) * dq3
            du1 = _d1_c4(u_face, t, h) - (h * h / 24.0) * du3
            flux += (h * h / 12.0) * dq1 * du1
            flux += (h ** 4 / 1440.0) * (
                3.0 * dq3 * _d1_c2(u_face, t, h)
                + 3.0 * du3 * _d1_c2(q_face, t, h)
                + 2.0 * _d2_c2(u_face, t, h) * _d2_c2(q_face, t, h)
            )
    return flux


def rk4_stage_combination(qn, flow, dt, scheme):
    """Reference: the update as the k-weighted RK4 stage combination.

    Algebraically identical to applying the divergence of the combined
    flux that ``rk4_high_order_step`` returns.
    """
    grid = flow.grid
    q0 = qn.copy()
    ks = []
    state = qn
    for stage in range(4):
        F = face_fluxes(state, flow, scheme)
        k = -flux_divergence(grid, F, dt, *nan_buffers(F[0], 2))
        ks.append(k)
        if stage == 3:
            break
        frac = 0.5 if stage < 2 else 1.0
        state = q0 + frac * k
    return q0 + (ks[0] + 2.0 * ks[1] + 2.0 * ks[2] + ks[3]) / 6.0


class TestProductRuleWeights:
    @pytest.mark.parametrize("order", (4, 6))
    @pytest.mark.parametrize("velocity", ("rotation", "random"))
    def test_matches_derivative_form(self, order, velocity):
        rng = np.random.default_rng(20)
        g = Grid(2, 32)
        if velocity == "rotation":
            uf = face_average_velocity(SolidBodyRotation(), g)
        else:
            uf = tuple(rng.uniform(-1.0, 1.0, g.shape) for _ in range(2))
        flow = face_flow(uf, g, order)
        for d in range(2):
            # rotation's normal velocity is constant along its own axis, so
            # its weights are one broadcast row; random ones are full arrays
            compact = tuple(1 if (ax == d and velocity == "rotation") else 32 for ax in range(2))
            assert all(w.w1.shape == compact for w in flow.weights[d])
            qf = rng.random(g.shape)
            got = product_rule_flux(qf, flow, d, *nan_buffers(qf, 3))
            want = derivative_product_rule(qf, uf[d], order, d, g)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_constant_velocity_drops_the_correction(self):
        g = Grid(2, 16)
        uf = face_average_velocity(ConstantDiagonal(components=(0.7, -1.3)), g)
        for order in (2, 4, 6):
            assert face_flow(uf, g, order).weights == ((), ())


def flow_arrays(flow):
    """Every array a ``FaceFlow`` holds."""
    weights = (a for ws in flow.weights for w in ws for a in w[1:] if a is not None)
    masks = (m for m in flow.negative if m is not None)
    return [*flow.u_faces, *masks, *weights]


class TestCompactFlow:
    """The flow keeps each velocity-only array in its compact shape, of
    length 1 along every axis it does not vary along, and that shape
    broadcasts back to the face arrays bit for bit."""

    @pytest.mark.parametrize("order", (2, 4, 6))
    @pytest.mark.parametrize("dim", (1, 2))
    def test_constant_flow_is_all_one_by_one(self, dim, order):
        g = Grid(dim, 32)
        uf = face_average_velocity(ConstantDiagonal(components=(0.7, -1.3)[:dim]), g)
        flow = face_flow(uf, g, order)
        assert all(a.shape == (1,) * dim for a in flow_arrays(flow))
        assert flow.negative == (None,) * dim

    @pytest.mark.parametrize("order", (2, 4, 6))
    def test_rotation_is_a_row_and_a_column(self, order):
        n = 32
        g = Grid(2, n)
        v = SolidBodyRotation()
        flow = face_flow(face_average_velocity(v, g), g, order)
        shapes = ((1, n), (n, 1))
        for d, shape in enumerate(shapes):
            assert flow.u_faces[d].shape == shape
            assert all(a.shape == shape for w in flow.weights[d] for a in w[1:] if a is not None)
            whole = v.component(d, g.face_center_mesh(d))
            assert np.broadcast_to(flow.u_faces[d], g.shape).tobytes() == whole.tobytes()
        assert flow.negative == (None, None)

    def test_field_varying_along_both_axes_stays_whole(self):
        g = Grid(2, 32)
        x, y = g.face_center_mesh(0)
        uf = (np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y), np.cos(2 * np.pi * (x + y)))
        flow = face_flow(uf, g, 6)
        for d in range(2):
            assert flow.u_faces[d].shape == flow.negative[d].shape == g.shape
            assert flow.u_faces[d].tobytes() == uf[d].tobytes()

    def test_compact_compares_bits(self):
        # 0.0 == -0.0, but the two are different velocities bit for bit
        signed = np.array([[0.0, -0.0], [0.0, -0.0]])
        assert compact(signed).shape == (1, 2)
        assert compact(signed.T).shape == (2, 1)
        assert compact(np.full((3, 4), np.nan)).shape == (1, 1)
        whole = np.arange(6.0).reshape(2, 3)
        assert compact(whole) is whole

    @pytest.mark.parametrize("order", (4, 6))
    @pytest.mark.parametrize("kind", ("constant", "rotation"))
    def test_building_the_flow_makes_no_whole_grid_array(self, kind, order):
        # a whole N = 256 float array is 512 KB, a boolean one 64 KB; the
        # flow keeps at most n entries per array, and three weight rows
        # per axis at order 6
        n = 256
        g = Grid(2, n)
        v = make_velocity(kind, g)
        face_flow(face_average_velocity(v, g), g, order)  # fills the slice-plan cache
        tracemalloc.start()
        try:
            flow = face_flow(face_average_velocity(v, g), g, order)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(a.size <= n for a in flow_arrays(flow))
        assert retained < (16 if order == 4 else 24) * 1024
        assert peak < 64 * 1024


class TestSpatialFlux:
    def test_constant_field(self):
        g = Grid(2, 16)
        v = ConstantDiagonal(dim=2)
        uf = face_average_velocity(v, g)
        q = np.full((16, 16), 2.5)
        fx, fy = face_fluxes(q, face_flow(uf, g, 4), scheme_coefficients("u5"))
        assert np.allclose(fx, 2.5, rtol=0, atol=1e-14)
        assert np.allclose(fy, 2.5, rtol=0, atol=1e-14)

    def test_zero_velocity(self):
        g = Grid(1, 16)
        uf = (np.zeros(16),)
        q = np.random.default_rng(0).random(16)
        (f,) = face_fluxes(q, face_flow(uf, g, 6), scheme_coefficients("u9"))
        assert np.all(f == 0.0)

    def test_sine_face_flux_fifth_order(self):
        # u = 1 so the flux equals the interpolated face value; against the
        # exact point values of sin, u5 converges at fifth order (ratio
        # about 32 per doubling)
        def err(n):
            g = Grid(1, n)
            q = sine_cell_averages(g)
            flow = face_flow((np.ones(n),), g, 4)
            (f,) = face_fluxes(q, flow, scheme_coefficients("u5"))
            exact = np.sin(2 * np.pi * g.face_coords(0))
            return np.max(np.abs(f - exact))

        ratio = err(64) / err(128)
        assert ratio >= 24.0


class TestRK4Step:
    def test_constant_preserved(self):
        g = Grid(2, 16)
        uf = face_average_velocity(ConstantDiagonal(dim=2), g)
        q = np.full((16, 16), 1.25)
        flow, s = face_flow(uf, g, 4), scheme_coefficients("u5")
        F_high = rk4_high_order_step(q, flow, 0.8 * g.h, s, Workspace(g))
        q_high = rk4_update(q, flow, 0.8 * g.h, s)
        assert np.array_equal(q_high, q)
        assert np.allclose(F_high[0], 1.25, rtol=0, atol=1e-14)

    def test_matches_fft_oracle(self):
        # 50 steps of the real time loop against exact modal propagation
        g = Grid(1, 64)
        s = scheme_coefficients("u5")
        flow = face_flow((np.ones(64),), g, 4)
        sigma = 0.8
        dt = sigma * g.h
        q = sine_cell_averages(g, k=3)
        q0 = q.copy()
        for _ in range(50):
            q = rk4_update(q, flow, dt, s)
        oracle = fft_rk4_oracle(q0, 50, sigma, s)
        assert np.max(np.abs(q - oracle)) <= 1e-12

    def test_matches_fft_oracle_2d(self):
        # unlimited u9 with its order-6 product rule on the diagonal
        # velocity: the transverse corrections vanish, so the 2D time loop
        # is the sum of the two 1D operators and propagates mode by mode
        g = Grid(2, 32)
        s = scheme_coefficients("u9")
        uf = face_average_velocity(ConstantDiagonal(dim=2), g)
        flow = face_flow(uf, g, default_product_order(s))
        sigma = 0.4
        dt = sigma * g.h
        q0 = np.random.default_rng(3).random((32, 32))
        q = q0
        for _ in range(10):
            q = rk4_update(q, flow, dt, s)
        oracle = fft_rk4_oracle(q0, 10, sigma, s)
        assert np.max(np.abs(q - oracle)) <= 1e-12

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_one_step_translation_accuracy(self, name):
        # single step against the exactly translated sine; error drops by
        # at least 2^4 per refinement (RK4 floor)
        def err(n):
            g = Grid(1, n)
            s = scheme_coefficients(name)
            dt = 0.8 * g.h
            q = sine_cell_averages(g)
            q1 = rk4_update(q, face_flow((np.ones(n),), g, 4), dt, s)
            edges = g.lo + np.arange(n + 1) * g.h - dt
            anti = -np.cos(2 * np.pi * edges) / (2 * np.pi)
            exact = np.diff(anti) / g.h
            return np.max(np.abs(q1 - exact))

        assert err(32) / err(64) >= 16.0

    def test_streamed_sum_matches_stage_formula(self, monkeypatch):
        # the combined flux equals (F0 + 2 F1 + 2 F2 + F3) / 6 of the four
        # stage fluxes bitwise
        stages = []

        def recorded(*args):
            F = spatial_flux(*args)
            stages.append(tuple(f.copy() for f in F))
            return F

        monkeypatch.setattr(highorder, "spatial_flux", recorded)
        rng = np.random.default_rng(4)
        g = Grid(2, 24)
        uf = face_average_velocity(SolidBodyRotation(), g)
        q = rng.random((24, 24))
        flow = face_flow(uf, g, 6)
        F_high = rk4_high_order_step(q, flow, 0.3 * g.h, scheme_coefficients("u9"), Workspace(g))
        assert len(stages) == 4
        for d in range(2):
            F0, F1, F2, F3 = (F[d] for F in stages)
            assert np.array_equal(F_high[d], (F0 + 2.0 * F1 + 2.0 * F2 + F3) / 6.0)

    def test_conservation(self):
        rng = np.random.default_rng(1)
        g = Grid(2, 24)
        uf = face_average_velocity(ConstantDiagonal(dim=2), g)
        q = rng.random((24, 24))
        before = conserved_sum(g, q)
        q1 = rk4_update(q, face_flow(uf, g, 6), 0.8 * g.h, scheme_coefficients("u9"))
        assert conserved_sum(g, q1) == pytest.approx(before, rel=1e-13)

    def test_flux_form_matches_stage_combination(self):
        rng = np.random.default_rng(2)
        g = Grid(2, 24)
        uf = face_average_velocity(ConstantDiagonal(dim=2), g)
        q = rng.random((24, 24))
        dt = 0.7 * g.h
        s = scheme_coefficients("u7")
        flow = face_flow(uf, g, 6)
        q_flux = rk4_update(q, flow, dt, s)
        q_stage = rk4_stage_combination(q, flow, dt, s)
        assert np.max(np.abs(q_flux - q_stage)) <= 1e-13

    def test_linearity(self):
        rng = np.random.default_rng(3)
        g = Grid(1, 32)
        uf = (np.ones(32),)
        s = scheme_coefficients("u5")
        dt = 0.8 * g.h
        a, b = 2.0, -0.5
        q1 = rng.random(32)
        q2 = rng.random(32)
        flow = face_flow(uf, g, 4)
        lhs = rk4_update(a * q1 + b * q2, flow, dt, s)
        r1 = rk4_update(q1, flow, dt, s)
        r2 = rk4_update(q2, flow, dt, s)
        rhs = a * r1 + b * r2
        assert np.max(np.abs(lhs - rhs)) <= 1e-13
