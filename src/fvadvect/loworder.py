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

from .grid import CellField, flux_divergence, neighbour_apply, periodic_pad


def _donor(values, u_face):
    """Donor-cell face values of a ``Padded``: the upstream cell per face."""
    return np.where(u_face >= 0.0, values.at(-1), values.at(0))


def ctu_fluxes(qn, u_faces, dt, grid):
    """Per-dimension CTU face fluxes for one step of size ``dt``."""
    upwind_flux = [u_faces[d] * _donor(qn.along(d), u_faces[d]) for d in range(grid.dim)]
    diff = np.empty(grid.shape)
    out = []
    for d in range(grid.dim):
        q_tilde = np.zeros(grid.shape)
        for dp in range(grid.dim):
            if dp != d:
                q_tilde += neighbour_apply(np.subtract, upwind_flux[dp], 1, upwind_flux[dp], 0, dp, diff)
        q_tilde *= dt / (2.0 * grid.h)
        np.subtract(qn.interior, q_tilde, out=q_tilde)
        out.append(u_faces[d] * _donor(periodic_pad(q_tilde, 1, d), u_faces[d]))
    return tuple(out)


def low_order_update(qn, fluxes, dt):
    """Transported-diffused solution from the low-order fluxes."""
    grid = qn.grid
    return CellField.from_interior(
        grid, qn.interior - flux_divergence(grid, fluxes, dt)
    )
