"""The limiter's active window against the full-grid limiter, bit for bit.

``fct_advance`` runs the limiter phases only on a halo-padded window
around the faces whose antidiffusive flux is not negligible, and gives
every face outside the window's core eta = 0.  The oracle here runs the
same phases on the whole grid and zeroes eta outside a core found by
brute force.  The field is a wave with seeded noise everywhere, and the
velocity points along one axis and is zero outside a box, so the
antidiffusive flux vanishes exactly outside a patch whose edge faces
carry a full flux, while the limiter's bounds and flags still read noisy
data in the halo: a halo too short for the limiter's reach reads the
wrong cells across the window's edge and shows up as a mismatch.
"""

import warnings

import numpy as np
import pytest

from fvadvect import fct
from fvadvect.grid import Grid, Workspace, flux_divergence
from fvadvect.highorder import rk4_high_order_step
from fvadvect.loworder import ctu_fluxes, low_order_update
from fvadvect.schemes import face_flow, scheme_coefficients
from buffers import nan_buffer, nan_buffers
from limiter_patches import skip_preconstraint

N = 64
SCHEME = scheme_coefficients("u9")
PHASES = ("second_differences", "preconstrain", "compute_bounds", "smooth_extremum_flags",
          "extremum_bound_correction", "laplacian_flags", "compute_pqr", "hybridize")

# The axis the velocity points along, and per axis the run of cells where
# it is nonzero; None means the whole axis.  Runs past n wrap across the
# periodic edge.
BOXES = {
    "inside": (0, ((20, 32), (24, 36))),
    "straddle-0": (0, ((58, 70), (24, 36))),
    "straddle-1": (1, ((20, 32), (56, 66))),
    "full-axis": (0, (None, (24, 36))),
    "everywhere": (0, (None, None)),
}
# In 1D only the first axis's run counts: "full-axis" is "everywhere" there.
CASES = [(case, dim) for case in BOXES for dim in (1, 2)
         if dim == 2 or case in ("inside", "straddle-0", "everywhere")]
STRADDLING = [(case, dim) for case, dim in CASES if case.startswith("straddle")]


def box_mask(g, box):
    mask = np.ones(g.shape, dtype=bool)
    for ax, run in enumerate(box[:g.dim]):
        if run is None:
            continue
        line = np.zeros(g.n, dtype=bool)
        line[np.arange(*run) % g.n] = True
        mask &= line.reshape([-1 if a == ax else 1 for a in range(g.dim)])
    return mask


def setup(dim, case, rough=True):
    """Noisy wave (or zeros); velocity 0.8 along the case's axis inside its
    box and 0 elsewhere (0 everywhere for case None).

    One cell far outside every box's window holds the largest value, so
    the whole grid's max|q| is not a window's.
    """
    rng = np.random.default_rng(10 * dim)
    g = Grid(dim, N)
    q = np.zeros(g.shape)
    if rough:
        wave = np.prod([np.sin(2 * np.pi * (x + 0.1 * d))
                        for d, x in enumerate(g.cell_center_mesh())], axis=0)
        q = 0.5 + 0.3 * wave + 0.05 * rng.random(g.shape)
        q[(50, 5)[:dim]] = 10.0
    axis, box = BOXES[case] if case else (0, None)
    u = np.where(box_mask(g, box), 0.8, 0.0) if box else np.zeros(g.shape)
    u_faces = tuple(u if d == axis else np.zeros(g.shape) for d in range(dim))
    return g, q, face_flow(u_faces, g, 6)


def shortest_covering_run(hits, n):
    """(start, length) of the shortest circular run of indices holding
    every hit, by trying every start; the run must be unique."""
    if len(hits) == n:
        return 0, n
    best = []
    for start in range(n):
        length = 1 + max((k - start) % n for k in hits)
        best.append((length, start))
    length = min(best)[0]
    starts = [s for ln, s in best if ln == length]
    assert len(starts) == 1, "ambiguous core: choose data with one largest gap"
    return starts[0], length


def core_mask(A, dt, g, scale):
    """Faces in the product of the per-axis covering runs of active faces."""
    active = [np.abs(a) * (dt / g.h) > fct.ANTIDIFFUSION_TOL * scale for a in A]
    mask = np.ones(g.shape, dtype=bool)
    for ax in range(g.dim):
        others = tuple(x for x in range(g.dim) if x != ax)
        hits = np.flatnonzero(np.any([m.any(axis=others) for m in active], axis=0))
        start, length = shortest_covering_run(hits, g.n)
        line = np.zeros(g.n, dtype=bool)
        line[(start + np.arange(length)) % g.n] = True
        mask &= line.reshape([-1 if a == ax else 1 for a in range(g.dim)])
    return mask


def transported_diffused(qn, flow, dt):
    ws = Workspace(flow.grid)
    return low_order_update(qn, ctu_fluxes(qn, flow, dt, ws), dt, flow.grid, ws)


def masked_full_grid_step(qn, flow, dt, sigma):
    """The parent's whole-grid limited step with eta zeroed outside the core."""
    g, u_faces = flow.grid, flow.u_faces
    ws = Workspace(g)
    F_high = rk4_high_order_step(qn, flow, dt, SCHEME, ws)
    F_low = ctu_fluxes(qn, flow, dt, ws)
    q_td = low_order_update(qn, F_low, dt, g, ws)
    A = fct.antidiffusive(F_high, F_low, out=nan_buffers(F_high[0], len(F_high)))
    qi, ti = qn, q_td
    scale = float(np.max(np.abs(qi)))
    core = core_mask(A, dt, g, scale)
    d2q = fct.second_differences(qi, out=nan_buffers(qi, qi.ndim))
    A = fct.preconstrain(A, ti, d2q, u_faces, dt, g.h, out=nan_buffers(qi, qi.ndim))
    q_max, q_min = fct.compute_bounds(qi, ti, u_faces, sigma, out=nan_buffers(qi, 2))
    flags = fct.smooth_extremum_flags(ti) & fct.smooth_extremum_flags(qi)
    q_max = fct.extremum_bound_correction(flags, qi, d2q, q_max, scale, out=nan_buffer(qi))
    oscillating = flags & fct.laplacian_flags(d2q, g.h, ti)
    R_in, R_out = fct.compute_pqr(A, ti, q_max, q_min, oscillating, dt, g.h,
                                  out=nan_buffers(ti, 2))
    etas = fct.hybridize(A, R_in, R_out, out=nan_buffers(qi, qi.ndim))
    etas = tuple(np.where(core, eta, 0.0) for eta in etas)
    for a, eta in zip(A, etas):
        a *= eta
    return ti - flux_divergence(g, A, dt, *nan_buffers(qi, 2)), etas, core


def assert_bitwise(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def run_both(dim, case):
    g, qn, flow = setup(dim, case)
    dt = 0.4 * g.h
    got, got_etas = fct.fct_advance(qn, flow, dt, 0.4, SCHEME, Workspace(g))
    want, want_etas, core = masked_full_grid_step(qn, flow, dt, 0.4)
    return got, got_etas, want, want_etas, core


@pytest.mark.parametrize("preconstraint", (True, False))
@pytest.mark.parametrize("case, dim", CASES)
def test_window_matches_masked_full_grid(monkeypatch, case, dim, preconstraint):
    if not preconstraint:
        skip_preconstraint(monkeypatch)
    got, got_etas, want, want_etas, core = run_both(dim, case)
    assert_bitwise(got, want)
    for e_got, e_want in zip(got_etas, want_etas):
        assert_bitwise(e_got, e_want)
    # the core is a patch of the grid, and the limiter did work inside it
    assert 0 < core.sum() < core.size or case == "everywhere"
    assert any(np.any(e[core] > 0.0) for e in got_etas)


def test_curvature_floor_takes_the_whole_grid_scale(monkeypatch):
    seen = []
    correction = fct.extremum_bound_correction
    monkeypatch.setattr(fct, "extremum_bound_correction",
                        lambda *args, **kw: seen.append(args) or correction(*args, **kw))
    g, qn, flow = setup(2, "inside")
    fct.fct_advance(qn, flow, 0.4 * g.h, 0.4, SCHEME, Workspace(g))
    ((_, qn_window, _, _, scale),) = seen
    assert qn_window.shape != g.shape
    assert scale == np.max(np.abs(qn)) > np.max(np.abs(qn_window))


def _fail(*args, **kwargs):
    raise AssertionError("a limiter phase ran with no active face")


@pytest.mark.parametrize("dim", (1, 2))
@pytest.mark.parametrize("rough, case", ((True, None), (False, "inside")))
def test_no_active_face_returns_transported_diffused(monkeypatch, dim, rough, case):
    g, qn, flow = setup(dim, case, rough=rough)
    dt = 0.4 * g.h
    q_td = transported_diffused(qn, flow, dt)
    for name in PHASES:
        monkeypatch.setattr(fct, name, _fail)
    q_new, etas = fct.fct_advance(qn, flow, dt, 0.4, SCHEME, Workspace(g))
    assert_bitwise(q_new, q_td)
    for eta in etas:
        assert_bitwise(eta, np.zeros(g.shape))


@pytest.mark.parametrize("case, dim", STRADDLING)
def test_short_halo_is_seen(monkeypatch, case, dim):
    """With a halo shorter than the limiter's reach the oracle fails."""
    monkeypatch.setattr(fct, "LIMITER_REACH", 2)
    got, _, want, _, _ = run_both(dim, case)
    assert got.tobytes() != want.tobytes()


@pytest.mark.parametrize("dim", (1, 2))
@pytest.mark.parametrize("kind", ("zero", "constant", "rough", "patch"))
def test_step_is_silent(dim, kind):
    """No warning from any phase, in a window ("patch") or on the whole grid."""
    rng = np.random.default_rng(5)
    g = Grid(dim, N)
    q = {"zero": np.zeros(g.shape), "constant": np.full(g.shape, 0.7),
         "rough": rng.random(g.shape), "patch": np.zeros(g.shape)}[kind]
    if kind == "patch":
        q[(slice(20, 30),) * dim] = rng.random((10,) * dim)
    qn = q
    x = g.cell_center_mesh()
    u_faces = tuple(np.sin(2 * np.pi * x[d]) for d in range(dim))
    flow = face_flow(u_faces, g, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for limiter in fct.LIMITER_MODES:
            q_new, _ = fct.fct_advance(qn, flow, 0.4 * g.h, 0.4, SCHEME, Workspace(g),
                                       limiter=limiter)
            assert np.all(np.isfinite(q_new))
