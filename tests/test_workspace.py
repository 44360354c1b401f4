"""The per-run workspace: same bytes as fresh buffers, no shared state,
and no whole-grid allocation in a steady-state unlimited or CTU step."""

import threading
import tracemalloc

import numpy as np
import pytest

from fvadvect import driver
from fvadvect.fct import fct_advance
from fvadvect.grid import Grid, Workspace
from fvadvect.problems import initial_condition, standard_problem
from fvadvect.schemes import default_product_order, face_flow, scheme_coefficients
from fvadvect.velocity import face_average_velocity, make_velocity, max_speed
from limiter_patches import force_eta, skip_preconstraint

# A limiter mode, or a limited step with eta forced to a value
# (``force_eta``) or without the pre-constraint (``preconstraint``).
MODES = (
    {"limiter": "on"},
    {"limiter": "off"},
    {"limiter": "off-low"},
    {"force_eta": 0.0},
    {"force_eta": 0.5},
    {"force_eta": 1.0},
    {"preconstraint": False},
)
# (dim, n, initial condition, velocity)
PROBLEMS = ((1, 48, "square", "constant"), (2, 32, "slotted", "rotation"))
SCHEME = "u9"
SIGMA = 0.7
STEPS = 6


def setup(dim, n, ic, vel):
    g = Grid(dim, n)
    v = make_velocity(vel, g)
    q0 = initial_condition(standard_problem(ic, vel, g), g)
    t_final = STEPS * SIGMA * g.h / max_speed(v, g)
    return g, v, q0, t_final


def integrated_fields(g, v, q0, t_final, on_step=None, **kw):
    """Copies of every step's field from one ``integrate`` run."""
    fields = []

    def keep(step, t, q):
        fields.append(q.copy())
        if on_step is not None:
            on_step(step, t, q)

    driver.integrate(q0, v, g, SCHEME, SIGMA, t_final, on_step=keep, **kw)
    return fields


@pytest.mark.parametrize("kw", MODES, ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: f"{p[0]}d")
def test_integrate_matches_fresh_buffers_every_step(monkeypatch, problem, kw):
    g, v, q0, t_final = setup(*problem)
    if "force_eta" in kw:
        force_eta(monkeypatch, kw["force_eta"])
    if "preconstraint" in kw:
        skip_preconstraint(monkeypatch)
    limiter = kw.get("limiter", "on")
    got = integrated_fields(g, v, q0, t_final, limiter=limiter)
    # the same steps, each fct_advance call given a fresh workspace
    s = scheme_coefficients(SCHEME)
    flow = face_flow(face_average_velocity(v, g), g, default_product_order(s))
    speed = max_speed(v, g)
    dt = SIGMA * g.h / speed
    q, t = q0, 0.0
    assert len(got) == STEPS
    for step, field in enumerate(got, 1):
        step_dt = dt if step < STEPS else t_final - t
        q, _ = fct_advance(q, flow, step_dt, speed * step_dt / g.h, s, Workspace(g),
                           limiter)
        t += step_dt
        assert field.tobytes() == q.tobytes(), f"step {step}"
    assert not np.array_equal(got[0], q0)


def test_step_reads_qn_and_writes_the_other_frame():
    g, v, q0, t_final = setup(*PROBLEMS[1])
    s = scheme_coefficients(SCHEME)
    flow = face_flow(face_average_velocity(v, g), g, 6)
    ws = Workspace(g)
    before = q0.copy()
    dt = 0.5 * g.h
    q1, etas = fct_advance(q0, flow, dt, 0.5, s, ws)
    assert q1 is ws.frames[0] and all(e is f for e, f in zip(etas, ws.flux))
    assert q0.tobytes() == before.tobytes()
    q1_bytes = q1.tobytes()
    q2, _ = fct_advance(q1, flow, dt, 0.5, s, ws)
    assert q2 is ws.frames[1] and q1.tobytes() == q1_bytes
    assert fct_advance(q2, flow, dt, 0.5, s, ws)[0] is ws.frames[0]


def run_in_turns(runs, timeout=120.0):
    """Run each ``run(on_step)`` in its own thread, one step at a time in turn.

    Returns the (run index, step) sequence in the order the steps ran.
    """
    cond = threading.Condition()
    turn, active, order, errors = [0], [True] * len(runs), [], []

    def pass_turn(i):
        for k in range(1, len(runs) + 1):
            j = (i + k) % len(runs)
            if active[j]:
                turn[0] = j
                break
        cond.notify_all()

    def worker(i, run):
        def on_step(step, t, q):
            with cond:
                order.append((i, step))
                pass_turn(i)
                cond.wait_for(lambda: turn[0] == i)

        try:
            with cond:
                cond.wait_for(lambda: turn[0] == i)
            run(on_step)
        except Exception as exc:  # reported by the caller
            errors.append(exc)
        finally:
            with cond:
                active[i] = False
                pass_turn(i)

    threads = [threading.Thread(target=worker, args=(i, r), daemon=True)
               for i, r in enumerate(runs)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout)
        assert not th.is_alive(), "interleaved runs did not finish"
    assert not errors, errors
    return order


def test_interleaved_runs_share_no_state():
    """Two runs stepped in turn give the bytes each gives alone."""
    cases = [(PROBLEMS[1], {"limiter": "on"}), (PROBLEMS[1], {"limiter": "off"}),
             (PROBLEMS[0], {"limiter": "on"})]
    alone = [integrated_fields(*setup(*p), **kw) for p, kw in cases]
    for a, b in ((0, 1), (0, 2)):
        together = {a: [], b: []}

        def runner(i):
            g, v, q0, t_final = setup(*cases[i][0])
            return lambda on_step: together[i].extend(
                integrated_fields(g, v, q0, t_final, on_step=on_step, **cases[i][1]))

        order = run_in_turns([runner(a), runner(b)])
        assert order[:4] == [(0, 1), (1, 1), (0, 2), (1, 2)]
        for i in (a, b):
            assert len(together[i]) == STEPS
            assert all(x.tobytes() == y.tobytes() for x, y in zip(together[i], alone[i]))


@pytest.mark.parametrize("limiter", ("off", "off-low"))
@pytest.mark.parametrize("vel", ("rotation", "constant"))
def test_steady_step_allocates_no_whole_grid_array(vel, limiter):
    """Traced allocation during one step above the level before it stays
    below the size of one whole-grid array."""
    g = Grid(2, 256)
    v = make_velocity(vel, g)
    q0 = initial_condition(standard_problem("cosine8", vel, g), g)
    t_final = 6 * SIGMA * g.h / max_speed(v, g)
    grid_bytes = g.n ** g.dim * 8
    start, growth = [None], []

    def on_step(step, t, q):
        if step >= 3:
            current, peak = tracemalloc.get_traced_memory()
            if start[0] is not None:
                growth.append(peak - start[0])
            start[0] = current
            tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        driver.integrate(q0, v, g, SCHEME, SIGMA, t_final, limiter=limiter, on_step=on_step)
    finally:
        tracemalloc.stop()
    assert len(growth) == 3
    assert max(growth) < grid_bytes, growth


@pytest.mark.parametrize("reads", ("frame 0", "frame 1", "q0"))
@pytest.mark.parametrize("dim, fits", ((1, 27), (2, 30)))
def test_crop_buffers_leave_qn_and_flux_high_alone(dim, fits, reads):
    """The largest crop that fits beside a frame shares no memory with
    that frame, with the grid's ``flux_high`` or with itself; one cell
    more per axis does not fit."""
    g = Grid(dim, 32)
    ws = Workspace(g)
    qn = {"frame 0": ws.frames[0], "frame 1": ws.frames[1], "q0": np.zeros(g.shape)}[reads]
    crop = ws.crop(qn, (fits,) * dim)
    buffers = [*crop.frames, *crop.flux_high, *crop.flux, crop.face, *crop.scratch]
    assert all(b.shape == (fits,) * dim and b.flags.c_contiguous for b in buffers)
    for i, b in enumerate(buffers):
        assert not np.shares_memory(b, qn)
        assert not any(np.shares_memory(b, c) for c in buffers[i + 1:])
    for f in crop.flux_high:
        assert not any(np.shares_memory(f, F) for F in ws.flux_high)
    assert (ws.crop(qn, (fits + 1,) * dim) is None) == (reads != "q0")
