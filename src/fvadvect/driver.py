"""Time integration loop shared by the CLI, tests, and demo scripts."""

from dataclasses import dataclass, field

import numpy as np

from .fct import fct_advance
from .grid import Workspace, conserved_sum
from .schemes import default_product_order, face_flow, scheme_coefficients
from .velocity import face_average_velocity, max_speed

# The most steps one run may take: about 60 h at 22 ms per limited
# N = 256 step.  A run that would take more is rejected before any work.
MAX_STEPS = 10**7


class NumericsError(RuntimeError):
    """Raised when the solution stops being finite."""

    def __init__(self, step, message="solution became non-finite"):
        super().__init__(f"{message} at step {step}")
        self.step = step


@dataclass
class RunResult:
    field: object
    steps: int
    dt: float
    conserved_initial: float
    conserved_final: float
    eta_stats: list = field(default_factory=list)

    @property
    def conservation_drift(self):
        denom = abs(self.conserved_initial)
        delta = abs(self.conserved_final - self.conserved_initial)
        return delta / denom if denom > 0.0 else delta

    @property
    def solution_min(self):
        return float(np.min(self.field))

    @property
    def solution_max(self):
        return float(np.max(self.field))


def integrate(
    q0,
    velocity,
    grid,
    scheme,
    sigma,
    t_final,
    limiter="on",
    order=None,
    collect_eta_stats=False,
    on_step=None,
):
    """Advance ``q0`` to ``t_final`` at the given CFL number.

    The step size dt is sigma * h / max_speed, and the last step lands
    exactly on ``t_final``: up to 1e-9 steps past a whole number of steps
    it takes that remainder too, so it is at most dt * (1 + 1e-9) and its
    CFL number at most sigma * (1 + 1e-9).  A run
    of more than MAX_STEPS steps is rejected with a ``ValueError`` that
    names sigma, t_final and h, before any work.  The velocity-only part
    of the face fluxes (``schemes.face_flow``), the only form of the
    velocity a step reads, is computed once, before the first step, and
    so is the ``Workspace`` every step writes into.  ``q0`` is only read.
    When ``collect_eta_stats`` is set, each step appends (min eta, mean eta,
    fraction of faces with eta < 1).  ``on_step`` is called as
    ``on_step(step_index, time, field)`` after every step; ``field`` is a
    workspace frame, valid until the next step overwrites it, so a
    callback that keeps it must copy it.  A non-finite ``sigma`` or
    ``t_final``, and a ``q0`` with a non-finite cell, are rejected with a
    ``ValueError`` that names the value or the first such cell, before any
    step.
    """
    if isinstance(scheme, str):
        scheme = scheme_coefficients(scheme)
    if order is None:
        order = default_product_order(scheme)
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if not 0.0 <= t_final < np.inf:
        raise ValueError(f"t_final must be non-negative and finite, got {t_final}")
    non_finite = np.argwhere(~np.isfinite(q0))
    if non_finite.size:
        cell = tuple(int(i) for i in non_finite[0])
        raise ValueError(f"initial condition is not finite at cell {cell}: {q0[cell]}")

    speed = max_speed(velocity, grid)
    dt = sigma * grid.h / speed
    if t_final > 0.0 and not t_final / MAX_STEPS <= dt:
        raise ValueError(
            f"t_final={t_final} at sigma={sigma} and h={grid.h} takes more than "
            f"{MAX_STEPS} steps"
        )

    conserved = conserved_sum(grid, q0)
    if t_final == 0.0:
        return RunResult(field=q0.copy(), steps=0, dt=dt, conserved_initial=conserved,
                         conserved_final=conserved)

    flow = face_flow(face_average_velocity(velocity, grid), grid, order)
    ws = Workspace(grid)
    result = RunResult(field=None, steps=0, dt=dt, conserved_initial=conserved,
                       conserved_final=conserved)
    q = q0

    n_steps = max(1, int(np.ceil(t_final / dt - 1e-9)))
    t = 0.0
    for step in range(1, n_steps + 1):
        step_dt = dt if step < n_steps else t_final - t
        step_sigma = speed * step_dt / grid.h
        q, etas = fct_advance(q, flow, step_dt, step_sigma, scheme, ws, limiter)
        if not np.all(np.isfinite(q, out=ws.active[0])):
            raise NumericsError(step)
        if collect_eta_stats and etas is not None:
            flat = np.concatenate([e.ravel() for e in etas])
            result.eta_stats.append(
                (float(flat.min()), float(flat.mean()), float(np.mean(flat < 1.0)))
            )
        t += step_dt
        if on_step is not None:
            on_step(step, t, q)
    result.field = q
    result.steps = n_steps
    result.conserved_final = conserved_sum(grid, q)
    return result
