"""Method-of-lines high-order update: classic four-stage Runge-Kutta.

Each stage evaluates unlimited spatial fluxes from its own stage state.
Everything those fluxes need from the frozen velocity (the upwind
orientation and the product-rule weights) comes precomputed in a
``FaceFlow``, so a stage does only work that depends on q.  The stage
fluxes are summed as they come with the familiar 1/6 (1, 2, 2, 1) weights
into a single high-order face flux, so the update can be written in
conservation form: ``loworder.low_order_update`` applies it.  Every array
a step writes is a buffer of the run's ``Workspace``.
"""

import numpy as np

from .grid import flux_divergence
from .schemes import face_interpolate, product_rule_flux

RK4_WEIGHTS = (1.0, 2.0, 2.0, 1.0)


def rk4_reach(scheme):
    """Cells a combined face flux reads from ``qn``, along either side.

    A face value reads cells up to max|offset| from one of the face's two
    cells, and a stage state at a cell reads the faces on both sides of
    it, so each of the four stages reaches max|offset| + 1 cells further
    (the product rule's transverse reach, 2, is never more).
    """
    return len(RK4_WEIGHTS) * (max(map(abs, scheme.offsets)) + 1)


def spatial_flux(q, flow, scheme, ws, out):
    """Per-dimension face fluxes of q*u for one solution state, written
    into the face arrays ``out``."""
    term, twice = ws.scratch
    for d in range(q.ndim):
        face = face_interpolate(q, scheme, d, flow, ws.face, term, twice)
        product_rule_flux(face, flow, d, out[d], term, twice)
    return out


def rk4_high_order_step(qn, flow, dt, scheme, ws):
    """The combined high-order face fluxes of one unlimited step.

    Their divergence is the RK4 update (``loworder.low_order_update``
    forms it).  No limiting happens at any stage.  Each stage flux is
    added into one accumulator per axis, the workspace's ``flux_high``,
    in the order of ``(F0 + 2 F1 + 2 F2 + F3) / 6``, so the combined flux
    equals that expression bitwise (a factor of exactly 1.0 is skipped:
    ``x * 1.0 == x``).  The stage states are written into
    ``ws.next_frame(qn)``; ``qn`` is only read.
    """
    grid = flow.grid
    F_high, state = ws.flux_high, qn
    for stage, weight in enumerate(RK4_WEIGHTS):
        F = spatial_flux(state, flow, scheme, ws, F_high if stage == 0 else ws.flux)
        if stage < 3:
            k = flux_divergence(grid, F, dt, ws.face, ws.scratch[0])
            if stage < 2:
                k *= 0.5
            state = np.subtract(qn, k, out=ws.next_frame(qn))
        if stage > 0:
            for acc, f in zip(F_high, F):
                if weight != 1.0:
                    f *= weight
                acc += f
    for acc in F_high:
        acc /= 6.0
    return F_high
