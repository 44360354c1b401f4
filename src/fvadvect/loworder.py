"""Corner transport upwind: first-order fluxes with transverse coupling.

For flux direction d a transverse predictor removes half a step of
cross-flow before donor-cell upwinding:

    q_tilde = q - (dt / 2h) * sum over d' != d of the donor-cell flux
              difference in direction d'

    F_d(face) = u_d(face) * q_tilde(donor cell of that face)

In 1D the transverse sum is empty and the flux is plain donor-cell upwind.
The donor cell is the one-point upwind stencil ``schemes.DONOR``, read in
the run's upwind orientation like the high-order stencils.
For constant coefficients the resulting update is the exact bilinear remap
of the shifted solution, so it is monotone and stable for per-direction
CFL numbers up to one, independent of dimensionality.
"""

import numpy as np

from .grid import flux_divergence, neighbour_apply
from .schemes import DONOR, face_interpolate


def _donor_flux(q, flow, d, out, term, total):
    """The face velocities normal to ``d`` times the upstream cell of each
    face, the ``DONOR`` face value, written into ``out``; ``term`` and
    ``total`` are ``face_interpolate``'s scratch."""
    face_interpolate(q, DONOR, d, flow, out, term, total)
    out *= flow.u_faces[d]
    return out


def ctu_fluxes(qn, flow, dt, ws):
    """Per-dimension CTU face fluxes for one step of size ``dt``.

    The face velocities and upwind orientations come from the run's
    ``FaceFlow``.  The fluxes are written into the workspace's ``flux``;
    the predicted state q_tilde is formed in ``ws.next_frame(qn)``, which
    is free until the update.  ``ws.face``, free until ``limiter_window``,
    and the second ``scratch`` are the donor cells' scratch.
    """
    grid = flow.grid
    q_tilde = ws.next_frame(qn)
    upwind, diff = ws.scratch
    out = ws.flux
    for d in range(grid.dim):
        transverse = out[d]
        transverse.fill(0.0)
        for dp in range(grid.dim):
            if dp != d:
                _donor_flux(qn, flow, dp, upwind, diff, ws.face)
                transverse += neighbour_apply(np.subtract, upwind, 1, upwind, 0, dp, diff)
        transverse *= dt / (2.0 * grid.h)
        np.subtract(qn, transverse, out=q_tilde)
        _donor_flux(q_tilde, flow, d, out[d], diff, ws.face)
    return out


def low_order_update(qn, fluxes, dt, grid, ws):
    """``qn`` less the divergence of ``fluxes``, in ``ws.next_frame(qn)``.

    With the CTU fluxes this is the transported-diffused solution; with
    the combined RK4 fluxes, the unlimited high-order update.
    """
    return np.subtract(qn, flux_divergence(grid, fluxes, dt, *ws.scratch),
                       out=ws.next_frame(qn))
