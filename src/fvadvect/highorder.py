"""Method-of-lines high-order update: classic four-stage Runge-Kutta.

Each stage evaluates unlimited spatial fluxes from its own ghost-filled
stage state.  Everything those fluxes need from the frozen velocity (the
upwind orientation and the product-rule weights) comes precomputed in a
``FaceFlow``, so a stage does only work that depends on q.  The stage
fluxes are summed as they come with the familiar 1/6 (1, 2, 2, 1) weights
into a single high-order face flux, so the update can also be written in
conservation form.
"""

from .grid import CellField, flux_divergence
from .schemes import face_interpolate, product_rule_flux

RK4_WEIGHTS = (1.0, 2.0, 2.0, 1.0)


def spatial_flux(q, flow, scheme):
    """Per-dimension face fluxes of q*u for one solution state."""
    return tuple(
        product_rule_flux(face_interpolate(q, scheme, d, flow), flow, d)
        for d in range(q.grid.dim)
    )


def rk4_high_order_step(qn, flow, dt, scheme):
    """One unlimited high-order step.

    Returns ``(q_high, F_high)``: the updated field and the combined
    high-order face fluxes whose divergence reproduces the same update.
    No limiting happens at any stage.  Each stage flux is added into one
    accumulator per axis in the order of ``(F0 + 2 F1 + 2 F2 + F3) / 6``,
    so the combined flux equals that expression bitwise.
    """
    grid = qn.grid
    q0 = qn.interior.copy()
    state = qn
    for stage, weight in enumerate(RK4_WEIGHTS):
        F = spatial_flux(state, flow, scheme)
        if stage < 3:
            frac = 0.5 if stage < 2 else 1.0
            k = flux_divergence(grid, F, dt)
            state = CellField.from_interior(grid, q0 - frac * k)
        if stage == 0:
            F_high = list(F)
        else:
            for acc, f in zip(F_high, F):
                acc += weight * f
    for acc in F_high:
        acc /= 6.0
    F_high = tuple(F_high)
    q_high = CellField.from_interior(grid, q0 - flux_divergence(grid, F_high, dt))
    return q_high, F_high
