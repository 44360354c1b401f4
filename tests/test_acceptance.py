"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Each test prints a PASS/FAIL line with the measured numbers so a plain
``pytest -v -s tests/test_acceptance.py`` doubles as the verification
report.  Runtime for the whole module is a few minutes, dominated by the
N=256 slotted-cylinder revolution.
"""

import numpy as np
import pytest

from buffers import nan_buffers
from closed_forms import scheme_eigenvalue
from limiter_patches import force_eta, skip_preconstraint
from fvadvect.analysis import max_stable_sigma, stencil_eigenvalue
from fvadvect.driver import integrate
from fvadvect.fct import fct_advance
from fvadvect.grid import Grid, Workspace, flux_divergence
from fvadvect.highorder import rk4_high_order_step
from fvadvect.loworder import ctu_fluxes, low_order_update
from fvadvect.problems import (
    convergence_study,
    exact_solution,
    initial_condition,
    max_norm_error,
    standard_problem,
)
from fvadvect.schemes import SCHEME_NAMES, face_flow, scheme_coefficients
from fvadvect.velocity import (
    ConstantDiagonal,
    face_average_velocity,
    make_velocity,
)

SMOOTH_RADIUS = 15.0 / 128.0
CONSERVATION_TOL = 1e-12


def report(tag, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")


def run_case(ic, velocity, scheme, n, dim, limiter, sigma=0.8, t_final=1.0,
             radius=None):
    grid = Grid(dim, n)
    v = make_velocity(velocity, grid)
    spec = standard_problem(ic, velocity, grid, radius=radius)
    q0 = initial_condition(spec, grid)
    result = integrate(q0, v, grid, scheme, sigma, t_final, limiter=limiter)
    assert result.conservation_drift <= CONSERVATION_TOL
    return grid, spec, v, q0, result


def test_criterion_01_smooth_convergence_1d():
    """All five schemes converge at fourth order in 1D, limiter on and off,
    and the limiter costs at most a factor of two in error at every N."""
    ok = True
    lines = []
    for name in SCHEME_NAMES:
        errs = {}
        for limiter in ("off", "on"):
            recs = convergence_study(
                "cosine8", "constant", name, 0.8, [32, 64, 128, 256],
                limiter=limiter, dim=1, radius=SMOOTH_RADIUS,
            )
            errs[limiter] = recs
        orders = {
            lim: [r.order for r in errs[lim][1:]] for lim in ("off", "on")
        }
        # the asymptotic (finest-pair) observed order carries the claim; the
        # coarse grids with a 7.5-cell feature are pre-asymptotic for any
        # implementation of this discretization
        fine_ok = orders["off"][-1] >= 3.7 and orders["on"][-1] >= 3.7
        ratios = [
            a.error / b.error for a, b in zip(errs["on"], errs["off"])
        ]
        ratio_ok = all(r <= 2.0 for r in ratios)
        ok &= fine_ok and ratio_ok
        lines.append(
            f"{name}: order(off)={orders['off'][-1]:.2f} "
            f"order(on)={orders['on'][-1]:.2f} max on/off ratio={max(ratios):.2f}"
        )
    report("criterion 1 (1D smooth convergence)", ok, "; ".join(lines))
    assert ok


def test_criterion_02_smooth_convergence_2d_rotation():
    """2D solid-body rotation: fourth-order convergence with the limiter."""
    recs = convergence_study(
        "cosine8", "rotation", "u9", 0.8, [32, 64, 128],
        limiter="on", dim=2, radius=SMOOTH_RADIUS,
    )
    order = recs[-1].order
    ok = order >= 3.7
    report(
        "criterion 2 (2D rotation convergence)", ok,
        "errors=" + ",".join(f"{r.error:.3e}" for r in recs) + f" order={order:.2f}",
    )
    assert ok


def test_criterion_02_smooth_convergence_2d_constant():
    """2D constant-diagonal convergence: fourth order with the limiter, and
    the limited error within 2x of the unlimited one at every N.

    The diagonal velocity (1, 1) is the 2D worst case of the stability
    analysis, so the per-axis CFL number is half the 1D criterion's 0.8,
    the same halving criterion 3 pins for the 2D limits; it gives the
    same total Courant number as criterion 1.  At 0.8 per axis u9 is
    outside its 2D bound (0.799) and the grids up to N=128 are
    pre-asymptotic: exact modal propagation of the unlimited scheme gives
    order 2.60 there, against 4.96 at 0.4.
    """
    sigma = 0.4
    sigma_max = max_stable_sigma("u9", 2)
    assert sigma <= sigma_max
    recs = {}
    for limiter in ("off", "on"):
        recs[limiter] = convergence_study(
            "cosine8", "constant", "u9", sigma, [32, 64, 128],
            limiter=limiter, dim=2, radius=SMOOTH_RADIUS,
        )
    order_on = recs["on"][-1].order
    order_off = recs["off"][-1].order
    ratios = [a.error / b.error for a, b in zip(recs["on"], recs["off"])]
    ok = order_on >= 3.7 and all(r <= 2.0 for r in ratios)
    report(
        "criterion 2 (2D constant convergence)", ok,
        f"sigma={sigma} (2D limit {sigma_max:.4f}) "
        f"order(on)={order_on:.2f} order(off)={order_off:.2f} "
        "on/off ratios=" + ",".join(f"{r:.2f}" for r in ratios),
    )
    assert ok


def test_criterion_03_stability_table():
    """Bisected stability limits match the reference values, and the 2D
    limits are half the 1D ones."""
    expected = {"c4": 2.06, "u5": 1.73, "c6": 1.78, "u7": 1.69, "u9": 1.60}
    ok = True
    lines = []
    for name in SCHEME_NAMES:
        s1 = max_stable_sigma(name, 1)
        s2 = max_stable_sigma(name, 2)
        good = abs(s1 - expected[name]) <= 0.03 and abs(s2 - expected[name] / 2) <= 0.02
        ok &= good
        lines.append(f"{name}: D1={s1:.4f} D2={s2:.4f}")
    report("criterion 3 (stability table)", ok, "; ".join(lines))
    assert ok


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("scheme", ["u5", "u9"])
def test_criterion_04_square_boundedness(dim, scheme):
    """Limited square waves stay inside [0, 1] to 1e-10 after a transit."""
    _, _, _, _, result = run_case("square", "constant", scheme, 128, dim, "on")
    ok = result.solution_min >= -1e-10 and result.solution_max <= 1.0 + 1e-10
    report(
        f"criterion 4 (square bounds {dim}D {scheme})", ok,
        f"min={result.solution_min:.3e} max-1={result.solution_max - 1:.3e}",
    )
    assert ok


# ``run``'s 2D default, inside the 2D limit of u5 (0.866) and of u9 (0.7992)
IN_RANGE_SIGMA_2D = 0.75


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["square", "minus-square"])
@pytest.mark.parametrize("scheme", ["u5", "u9"])
def test_criterion_04_square_boundedness_in_range(scheme, sign):
    """The 2D square and its negative, on the diagonal at a CFL number
    inside the scheme's 2D limit, stay inside their initial range to 1e-10
    after a transit."""
    assert IN_RANGE_SIGMA_2D < max_stable_sigma(scheme, 2)
    grid = Grid(2, 128)
    q0 = sign * initial_condition(standard_problem("square", "constant", grid), grid)
    result = integrate(q0, make_velocity("constant", grid), grid, scheme, IN_RANGE_SIGMA_2D, 1.0)
    assert result.conservation_drift <= CONSERVATION_TOL
    lo, hi = min(0.0, sign), max(0.0, sign)
    ok = result.solution_min >= lo - 1e-10 and result.solution_max <= hi + 1e-10
    report(
        f"criterion 4 (square bounds 2D {scheme}, sign {sign:+.0f}, "
        f"sigma {IN_RANGE_SIGMA_2D})", ok,
        f"min-lo={result.solution_min - lo:.3e} max-hi={result.solution_max - hi:.3e}",
    )
    assert ok


def test_criterion_05_slotted_cylinder():
    """One revolution of the slotted cylinder at N=256 stays bounded and
    keeps the slot open (centerline minimum well below 0.5)."""
    grid, spec, v, q0, result = run_case(
        "slotted", "rotation", "u9", 256, 2, "on", sigma=0.8, t_final=1.0
    )
    j = int(round(0.75 * grid.n - 0.5))  # row through the cylinder center
    row = result.field[:, j]
    x = grid.cell_centers(0)
    slot = np.abs(x - 0.5) <= spec.slot_width / 2
    slot_min = float(row[slot].min())
    ok = (
        result.solution_min >= -1e-6
        and result.solution_max <= 1.0 + 1e-6
        and slot_min < 0.5
        and slot_min < 0.05  # regression guard, first verified run gave 0.014
    )
    report(
        "criterion 5 (slotted cylinder)", ok,
        f"min={result.solution_min:.2e} max-1={result.solution_max - 1:.2e} "
        f"slot centerline min={slot_min:.3f}",
    )
    assert ok


@pytest.mark.parametrize("velocity", ["constant", "rotation"])
def test_criterion_06_degeneracy_oracles(monkeypatch, velocity):
    """Forcing the hybridization coefficient recovers each pure scheme.

    eta is forced by patching ``fct.hybridize``, so the limited step runs
    its own windowed path; eta = 1 also skips the pre-constraint.
    """
    grid = Grid(2, 32)
    v = make_velocity(velocity, grid)
    uf = face_average_velocity(v, grid)
    spec = standard_problem("cosine8", velocity, grid)
    q = initial_condition(spec, grid)
    s = scheme_coefficients("u5")
    dt = 0.8 * grid.h / max(1.0, np.pi)

    flow = face_flow(uf, grid, 4)
    ws = Workspace(grid)
    q_td = low_order_update(q, ctu_fluxes(q, flow, dt, ws), dt, grid, ws)
    force_eta(monkeypatch, 0.0)
    q_zero, _ = fct_advance(q, flow, dt, 0.8, s, Workspace(grid))
    low_bitwise = np.array_equal(q_zero, q_td)

    ws = Workspace(grid)
    q_high = low_order_update(q, rk4_high_order_step(q, flow, dt, s, ws), dt, grid, ws)
    force_eta(monkeypatch, 1.0)
    skip_preconstraint(monkeypatch)
    q_one, _ = fct_advance(q, flow, dt, 0.8, s, Workspace(grid))
    high_gap = float(np.max(np.abs(q_one - q_high)))

    ok = high_gap <= 1e-13 and low_bitwise
    report(
        f"criterion 6 (degeneracy, {velocity})", ok,
        f"|eta=1 - high order|={high_gap:.2e}, eta=0 bitwise CTU={low_bitwise}",
    )
    assert ok


def test_criterion_07_conservation():
    """Representative runs preserve the conserved total to 1e-12 relative.

    Every other acceptance run asserts the same bound through run_case.
    """
    cases = [
        ("cosine8", "constant", "u5", 64, 1, "on"),
        ("square", "constant", "u9", 64, 1, "on"),
        ("square", "constant", "u5", 64, 2, "on"),
        ("cosine8", "rotation", "u9", 64, 2, "on"),
        ("square", "constant", "u5", 64, 1, "off"),
        ("square", "constant", "u5", 64, 1, "off-low"),
    ]
    drifts = []
    for ic, vel, scheme, n, dim, limiter in cases:
        _, _, _, _, result = run_case(ic, vel, scheme, n, dim, limiter,
                                      radius=SMOOTH_RADIUS if ic == "cosine8" else None)
        drifts.append(result.conservation_drift)
    ok = all(d <= CONSERVATION_TOL for d in drifts)
    report(
        "criterion 7 (conservation)", ok,
        "max drift=" + f"{max(drifts):.2e}" + f" over {len(cases)} runs",
    )
    assert ok


def test_criterion_08_eigenvalue_cross_validation():
    """Closed trigonometric eigenvalues match the stencil transfer
    functions to 1e-14, centered schemes are neutral and upwind schemes
    dissipative."""
    beta = np.linspace(-np.pi, np.pi, 1024)
    ok = True
    lines = []
    for name in SCHEME_NAMES:
        closed = scheme_eigenvalue(name, beta)
        stencil = stencil_eigenvalue(name, beta)
        gap = float(np.max(np.abs(closed - stencil)))
        re_max = float(np.max(stencil.real))
        re_abs = float(np.max(np.abs(stencil.real)))
        centered = name.startswith("c")
        good = gap <= 1e-14 and (re_abs <= 1e-14 if centered else re_max <= 1e-14)
        ok &= good
        lines.append(f"{name}: gap={gap:.1e} max Re={re_max:.1e}")
    report("criterion 8 (eigenvalue cross-validation)", ok, "; ".join(lines))
    assert ok


def test_criterion_09_ctu_stability_advantage():
    """At per-direction CFL 0.9 on diagonal flow, 100 corner-coupled steps
    leave the max norm non-increasing while plain donor-cell diverges."""
    grid = Grid(2, 64)
    x, y = grid.cell_center_mesh()
    vals = ((np.abs(x - 0.5) <= 0.15) & (np.abs(y - 0.5) <= 0.15)).astype(float)
    uf = face_average_velocity(ConstantDiagonal(dim=2), grid)
    dt = 0.9 * grid.h
    m0 = float(np.abs(vals).max())

    q = vals
    ctu_ok = True
    prev = m0
    flow, ws = face_flow(uf, grid, 2), Workspace(grid)
    for _ in range(100):
        q = low_order_update(q, ctu_fluxes(q, flow, dt, ws), dt, grid, ws)
        cur = float(np.abs(q).max())
        ctu_ok &= cur <= prev + 1e-12
        prev = cur

    q_dc = vals
    dc_max = m0
    for _ in range(100):
        fluxes = tuple(
            uf[d] * np.where(uf[d] >= 0.0, np.roll(q_dc, 1, axis=d), q_dc)
            for d in range(2)
        )
        q_dc = q_dc - flux_divergence(grid, fluxes, dt, *nan_buffers(fluxes[0], 2))
        dc_max = float(np.abs(q_dc).max())
        if not np.isfinite(dc_max) or dc_max > 10 * m0:
            break
    dc_diverged = (not np.isfinite(dc_max)) or dc_max > 10 * m0

    ok = ctu_ok and dc_diverged
    report(
        "criterion 9 (CTU stability advantage)", ok,
        f"CTU max after 100 steps={prev:.6f} (start {m0}); "
        f"donor-cell max={dc_max:.2e}",
    )
    assert ok


def test_criterion_10_limiter_transparency_at_extrema():
    """One smooth transit: the limiter costs at most 1.5x the unlimited
    peak-amplitude loss (regression guards pinned from the first verified
    run: factors were 1.48 for c4 and within 1.02 for the upwind schemes;
    c6 gains amplitude both ways)."""
    guards = {"c4": 1.49, "u5": 1.02, "c6": 1.5, "u7": 1.02, "u9": 1.02}
    ok = True
    lines = []
    for name in SCHEME_NAMES:
        grid = Grid(1, 128)
        v = make_velocity("constant", grid)
        spec = standard_problem("cosine8", "constant", grid, radius=SMOOTH_RADIUS)
        q0 = initial_condition(spec, grid)
        p0 = float(q0.max())
        loss = {}
        for limiter in ("on", "off"):
            r = integrate(q0, v, grid, name, 0.8, 1.0, limiter=limiter)
            loss[limiter] = p0 - float(r.field.max())
        if loss["off"] > 0:
            factor = loss["on"] / loss["off"]
            good = factor <= 1.5 and factor <= guards[name]
            lines.append(f"{name}: factor={factor:.3f}")
        else:
            # the unlimited peak grew; the limited one must not have lost
            # amplitude either
            good = loss["on"] <= 0.0
            lines.append(f"{name}: peak grew (loss_on={loss['on']:.1e})")
        ok &= good
    report("criterion 10 (anti-clipping transparency)", ok, "; ".join(lines))
    assert ok
