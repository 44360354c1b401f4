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

from .grid import Workspace, fill_ghosts, flux_divergence, neighbour_apply


def _donor_flux(values, u_face, positive, out):
    """``u_face`` times the upstream cell of each face, read from a ``Padded``.

    ``positive`` marks the faces with ``u_face >= 0``.
    """
    np.multiply(u_face, values.at(0), out=out)
    return np.multiply(u_face, values.at(-1), out=out, where=positive)


def ctu_fluxes(qn, u_faces, dt, grid, ws=None, positive=None):
    """Per-dimension CTU face fluxes for one step of size ``dt``.

    Written into the workspace's ``flux``; the predicted state q_tilde is
    formed in ``ws.next_frame(qn)``, which is free until the update.
    ``positive`` holds per axis the mask of faces with u >= 0 (the run's
    ``FaceFlow.positive``); it is formed here when not given.
    """
    ws = Workspace(grid) if ws is None else ws
    positive = tuple(u >= 0.0 for u in u_faces) if positive is None else positive
    q_tilde = ws.next_frame(qn)
    upwind, diff = ws.scratch
    out = ws.flux
    for d in range(grid.dim):
        transverse = out[d]
        transverse.fill(0.0)
        for dp in range(grid.dim):
            if dp != d:
                _donor_flux(qn.along(dp), u_faces[dp], positive[dp], upwind)
                transverse += neighbour_apply(np.subtract, upwind, 1, upwind, 0, dp, diff)
        transverse *= dt / (2.0 * grid.h)
        np.subtract(qn.interior, transverse, out=q_tilde.interior)
        _donor_flux(fill_ghosts(q_tilde).along(d), u_faces[d], positive[d], out[d])
    return out


def low_order_update(qn, fluxes, dt, ws=None):
    """``qn`` less the divergence of ``fluxes``, in ``ws.next_frame(qn)``.

    With the CTU fluxes this is the transported-diffused solution; with
    the combined RK4 fluxes, the unlimited high-order update.
    """
    grid = qn.grid
    ws = Workspace(grid) if ws is None else ws
    out = ws.next_frame(qn)
    np.subtract(qn.interior, flux_divergence(grid, fluxes, dt, *ws.scratch), out=out.interior)
    return fill_ghosts(out)
