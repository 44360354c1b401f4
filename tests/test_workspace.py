"""The per-run workspace: same bytes as fresh buffers, no shared state,
no whole-grid allocation in a steady-state unlimited or CTU step, and the
limiter's window arrays in the step's idle buffers."""

import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest

from fvadvect import driver, fct
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
# A 2D problem whose limiter window is small enough for its buffers to be
# carved from the workspace.
SMALL_WINDOW = (2, 256, "slotted", "rotation")
# Traced heap growth of a limited step, in arrays of its window.  The
# window arrays kept from one limiter phase to the next (qn, q_td, A and
# d2q per axis, q_max, q_min: 8 in 2D) come from the workspace, and the
# largest phase's own temporaries take about 7; with the named ones on the
# heap the step grows by more than 18.
WINDOW_GROWTH = 10


def named_window_buffers(dim):
    """The limiter's window buffers: qn, q_td, A and d2q per axis, q_max, q_min."""
    return 2 * dim + 4


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


def apply_mode(monkeypatch, kw):
    """Patch in the ``MODES`` entry ``kw``; returns its limiter mode."""
    if "force_eta" in kw:
        force_eta(monkeypatch, kw["force_eta"])
    if "preconstraint" in kw:
        skip_preconstraint(monkeypatch)
    return kw.get("limiter", "on")


def mode_id(kw):
    return "-".join(f"{k}={v}" for k, v in kw.items())


@pytest.mark.parametrize("kw", MODES, ids=mode_id)
@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: f"{p[0]}d")
def test_integrate_matches_fresh_buffers_every_step(monkeypatch, problem, kw):
    g, v, q0, t_final = setup(*problem)
    limiter = apply_mode(monkeypatch, kw)
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


def poison(ws):
    """Fill the buffers a step may not read before it writes them:
    ``face`` and ``scratch`` with NaN, ``active`` with True."""
    for buf in (ws.face, *ws.scratch):
        buf.fill(np.nan)
    for mask in ws.active:
        mask.fill(True)


def check_poisoned_steps(monkeypatch, problem, kw, steps):
    """Each of ``steps`` steps on a workspace poisoned before every step
    gives the bytes of the same step on a fresh workspace."""
    g, v, q0, _ = setup(*problem)
    limiter = apply_mode(monkeypatch, kw)
    s = scheme_coefficients(SCHEME)
    flow = face_flow(face_average_velocity(v, g), g, default_product_order(s))
    dt = SIGMA * g.h / max_speed(v, g)
    ws, q = Workspace(g), q0
    for step in range(1, steps + 1):
        fresh_q, fresh_etas = fct_advance(q, flow, dt, SIGMA, s, Workspace(g), limiter)
        poison(ws)
        q, etas = fct_advance(q, flow, dt, SIGMA, s, ws, limiter)
        assert q.tobytes() == fresh_q.tobytes(), f"step {step}"
        assert (etas is None) == (fresh_etas is None)
        for eta, fresh in zip(etas or (), fresh_etas or ()):
            assert eta.tobytes() == fresh.tobytes(), f"step {step}"


@pytest.mark.parametrize("kw", MODES, ids=mode_id)
@pytest.mark.parametrize("problem", PROBLEMS, ids=lambda p: f"{p[0]}d")
def test_poisoned_idle_buffers_change_no_step(monkeypatch, problem, kw):
    """No buffer is read before it is written, and no two of the step's
    roles share storage."""
    check_poisoned_steps(monkeypatch, problem, kw, STEPS)


def spy_windows(monkeypatch):
    """The list every ``fct.limiter_window`` window is appended to."""
    windows, window = [], fct.limiter_window
    monkeypatch.setattr(fct, "limiter_window",
                        lambda *a: windows.append(window(*a)) or windows[-1])
    return windows


def test_poisoned_idle_buffers_change_no_small_window_step(monkeypatch):
    """The same with the limiter's window buffers carved from ``face`` and
    ``scratch``."""
    windows = spy_windows(monkeypatch)
    check_poisoned_steps(monkeypatch, SMALL_WINDOW, {"limiter": "on"}, 3)
    dim, n = SMALL_WINDOW[:2]
    # every window, the fresh steps' and the poisoned ones', fits
    assert windows and all(
        named_window_buffers(dim) * math.prod(w.shape) <= 3 * n ** dim for w in windows)


def fresh_window_buffers(ws, shape, count):
    """``count`` separate window buffers, none of them in the workspace,
    filled with NaN."""
    return [np.full(shape, np.nan) for _ in range(count)]


@pytest.mark.parametrize("kw", [kw for kw in MODES if kw.get("limiter", "on") == "on"],
                         ids=mode_id)
@pytest.mark.parametrize("dim, n, cells", ((1, 128, 24), (2, 32, 32)), ids=("1d", "2d"))
def test_partly_fitting_window_buffers_change_no_step(monkeypatch, dim, n, cells, kw):
    """Where only the leading window buffers fit in ``face`` and
    ``scratch``, steps on a workspace poisoned before every step give the
    bytes of the same steps with every window buffer a separate fresh
    array.  The data are random on the first ``cells`` cells per axis,
    which in 2D is the whole grid."""
    limiter = apply_mode(monkeypatch, kw)
    windows = spy_windows(monkeypatch)
    g = Grid(dim, n)
    q0 = np.zeros(g.shape)
    part = (slice(0, cells),) * dim
    q0[part] = np.random.default_rng(3).random(q0[part].shape)
    s = scheme_coefficients(SCHEME)
    v = make_velocity("rotation" if dim == 2 else "constant", g)
    flow = face_flow(face_average_velocity(v, g), g, default_product_order(s))
    dt = SIGMA * g.h / max_speed(v, g)

    def steps(poisoned):
        ws, q, out = Workspace(g), q0, []
        for _ in range(3):
            if poisoned:
                poison(ws)
            q, etas = fct_advance(q, flow, dt, SIGMA, s, ws, limiter)
            out.append([q.tobytes(), *(eta.tobytes() for eta in etas)])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Workspace, "window_buffers", fresh_window_buffers)
        want = steps(poisoned=False)
    assert steps(poisoned=True) == want
    count = {True: dim + 2, False: named_window_buffers(dim)}
    assert len(windows) == 6
    assert all(count[w.whole] * math.prod(w.shape) > 3 * n ** dim for w in windows)


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


def test_limited_step_keeps_its_window_arrays_off_the_heap(monkeypatch):
    """Traced allocation during a limited step above the level before it
    stays below WINDOW_GROWTH arrays of the step's limiter window."""
    g, v, q0, _ = setup(*SMALL_WINDOW)
    t_final = 5 * SIGMA * g.h / max_speed(v, g)
    sizes, window = [], fct.limiter_window

    def spy(*args):
        w = window(*args)
        sizes.append(math.prod(w.shape) * 8)
        return w

    monkeypatch.setattr(fct, "limiter_window", spy)
    start, growth = [None], []

    def on_step(step, t, q):
        if step >= 2:
            current, peak = tracemalloc.get_traced_memory()
            if start[0] is not None:
                growth.append((peak - start[0]) / sizes[step - 1])
            start[0] = current
            tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        driver.integrate(q0, v, g, SCHEME, SIGMA, t_final, on_step=on_step)
    finally:
        tracemalloc.stop()
    assert len(growth) == 3  # steps 3 to 5
    assert max(growth) < WINDOW_GROWTH, growth


@pytest.mark.parametrize("dim, fits", ((1, 16), (2, 19)))
def test_window_buffers_fill_the_idle_run(dim, fits):
    """The leading window buffers, as many as fit in ``face`` and
    ``scratch``, are carved from them and the rest come from a fresh
    block; none shares memory with the frames, ``flux_high``, ``flux`` or
    another buffer.  At an edge of ``fits`` all of them fit, with one cell
    more per axis all but the last, and on the whole grid three."""
    g = Grid(dim, 32)
    ws = Workspace(g)
    count = named_window_buffers(dim)
    held = [*ws.frames, *ws.flux_high, *ws.flux]
    for size, carved in ((fits, count), (fits + 1, count - 1), (g.n, 3)):
        buffers = ws.window_buffers((size,) * dim, count)
        assert len(buffers) == count
        assert all(b.shape == (size,) * dim and b.flags.c_contiguous for b in buffers)
        for i, b in enumerate(buffers):
            assert not any(np.shares_memory(b, a) for a in held)
            assert not any(np.shares_memory(b, c) for c in buffers[i + 1:])
            assert any(np.shares_memory(b, a) for a in (ws.face, *ws.scratch)) == (i < carved)


@pytest.mark.parametrize("reads", ("frame 0", "frame 1", "q0"))
@pytest.mark.parametrize("dim, fits", ((1, 27), (2, 30)))
def test_crop_buffers_leave_qn_and_flux_high_alone(dim, fits, reads):
    """The largest crop that fits beside a frame shares no memory with
    ``qn``, with the grid's ``flux_high`` or with itself; one cell more
    per axis does not fit, whether ``qn`` is a frame or not."""
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
    assert ws.crop(qn, (fits + 1,) * dim) is None


@pytest.mark.parametrize("reads", ("frame 0", "frame 1", "q0"))
@pytest.mark.parametrize("dim", (1, 2))
def test_a_crop_fits_by_its_shape_alone(dim, reads):
    """``crop`` returns None exactly where the crop's buffers exceed the
    pool less one grid array, for every ``qn``."""
    g = Grid(dim, 32)
    ws = Workspace(g)
    qn = {"frame 0": ws.frames[0], "frame 1": ws.frames[1], "q0": np.zeros(g.shape)}[reads]
    room = ws.pool.size - g.n ** dim
    for shape in itertools.product(range(20, g.n), repeat=dim):
        fits = Workspace.buffers(dim) * math.prod(shape) <= room
        assert (ws.crop(qn, shape) is not None) == fits, shape


# (dim, n, cells, velocity): random data on the first ``cells`` rows.  On
# step 3 of the unlimited run the crop is 111 rows long (112 when crops
# were rounded to 16 cells), which fits in the whole pool but not beside
# a frame: a room that depended on ``qn`` ran that step on the crop from
# a copy and on the whole grid from a frame.
FRAME_OR_COPY = ((1, 128, 16, "constant"), (2, 120, 16, "constant"))


@pytest.mark.parametrize("limiter", fct.LIMITER_MODES)
@pytest.mark.parametrize("dim, n, cells, vel", FRAME_OR_COPY, ids=("1d", "2d"))
def test_a_step_from_a_frame_equals_one_from_a_copy(dim, n, cells, vel, limiter):
    """The same steps from the same state give the same bytes whether
    ``qn`` is a frame of the workspace or an array outside it: the crop
    fits or not by its shape alone."""
    g = Grid(dim, n)
    q0 = np.zeros(g.shape)
    q0[:cells] = np.random.default_rng(2).random(q0[:cells].shape)
    s = scheme_coefficients(SCHEME)
    v = make_velocity(vel, g)
    flow = face_flow(face_average_velocity(v, g), g, default_product_order(s))
    dt = SIGMA * g.h / max_speed(v, g)
    ws = Workspace(g)
    q = ws.frames[1]
    np.copyto(q, q0)
    for step in range(1, 4):
        fresh, _ = fct_advance(q.copy(), flow, dt, SIGMA, s, Workspace(g), limiter)
        q, _ = fct_advance(q, flow, dt, SIGMA, s, ws, limiter)
        assert q.tobytes() == fresh.tobytes(), f"step {step}"
