"""Corner transport upwind: first-order fluxes with transverse coupling.

For flux direction d a transverse predictor removes half a step of
cross-flow before donor-cell upwinding:

    q_tilde = q - (dt / 2h) * sum over d' != d of the donor-cell flux
              difference in direction d'

    F_d(face) = u_d(face) * q_tilde(donor cell of that face)

In 1D the transverse sum is empty and the flux is plain donor-cell upwind.
For constant coefficients the resulting update is the exact bilinear remap
of the shifted solution, so it is monotone and stable for per-direction
CFL numbers up to one, independent of dimensionality.
"""

import numpy as np

from .grid import flux_divergence, neighbour_apply


def _donor_flux(q, u_face, positive, d, out):
    """``u_face`` times the upstream cell of each face normal to ``d``.

    ``positive``, of ``q``'s shape, marks the faces with ``u_face >= 0``,
    whose upstream cell is the left one.  ``out`` takes a copy of ``q``,
    then the left cell where ``positive`` is set (``x * 1.0 == x``), then
    the product with ``u_face``, which may be any array that broadcasts
    to ``q``.
    """
    np.copyto(out, q)
    neighbour_apply(np.multiply, q, -1, 1.0, 0, d, out, where=positive)
    out *= u_face
    return out


def ctu_fluxes(qn, flow, dt, ws):
    """Per-dimension CTU face fluxes for one step of size ``dt``.

    The face velocities and their masks of faces with u >= 0 come from
    the run's ``FaceFlow``, in their compact shapes; the masks are spread
    to the grid's shape in ``ws.active``, which is free until
    ``limiter_window``.  The fluxes are written into the workspace's
    ``flux``; the predicted state q_tilde is formed in
    ``ws.next_frame(qn)``, which is free until the update.
    """
    grid, u_faces, positive = flow.grid, flow.u_faces, ws.active
    for mask, compact_mask in zip(positive, flow.positive):
        mask[...] = compact_mask
    q_tilde = ws.next_frame(qn)
    upwind, diff = ws.scratch
    out = ws.flux
    for d in range(grid.dim):
        transverse = out[d]
        transverse.fill(0.0)
        for dp in range(grid.dim):
            if dp != d:
                _donor_flux(qn, u_faces[dp], positive[dp], dp, upwind)
                transverse += neighbour_apply(np.subtract, upwind, 1, upwind, 0, dp, diff)
        transverse *= dt / (2.0 * grid.h)
        np.subtract(qn, transverse, out=q_tilde)
        _donor_flux(q_tilde, u_faces[d], positive[d], d, out[d])
    return out


def low_order_update(qn, fluxes, dt, grid, ws):
    """``qn`` less the divergence of ``fluxes``, in ``ws.next_frame(qn)``.

    With the CTU fluxes this is the transported-diffused solution; with
    the combined RK4 fluxes, the unlimited high-order update.
    """
    return np.subtract(qn, flux_divergence(grid, fluxes, dt, *ws.scratch),
                       out=ws.next_frame(qn))
