"""Von Neumann analysis of the semi-discrete schemes under RK4.

Eigenvalues follow the decaying-mode convention (the semi-discrete operator
is -u d/dx), so centered schemes give purely imaginary values and upwind
schemes give non-positive real parts.  Two independent evaluation paths are
provided: closed trigonometric forms per scheme, and the generic transfer
function assembled from the stencil coefficients.
"""

import numpy as np

from .schemes import SCHEME_NAMES, scheme_coefficients


def stencil_eigenvalue(scheme, betas, speeds=None, h=1.0):
    """Eigenvalue from the stencil coefficients, summed over dimensions.

    ``betas`` is one phase-angle array per dimension, ``speeds`` the
    per-dimension velocities (positive orientation; defaults to ones).
    """
    betas = _as_tuple(betas)
    if speeds is None:
        speeds = (1.0,) * len(betas)
    if isinstance(scheme, str):
        scheme = scheme_coefficients(scheme)
    total = 0.0 + 0.0j
    for beta, u in zip(betas, speeds):
        beta = np.asarray(beta, dtype=float)
        phi = sum(
            a * np.exp(1j * s * beta)
            for s, a in zip(scheme.offsets, scheme.coefficients)
        )
        total = total + (-(u / h)) * phi * (1.0 - np.exp(-1j * beta))
    return total


def scheme_eigenvalue(scheme, betas, speeds=None, h=1.0):
    """Eigenvalue from the closed trigonometric form, summed over dimensions."""
    betas = _as_tuple(betas)
    if speeds is None:
        speeds = (1.0,) * len(betas)
    name = scheme if isinstance(scheme, str) else scheme.name
    total = 0.0 + 0.0j
    for beta, u in zip(betas, speeds):
        b = np.asarray(beta, dtype=float)
        if name == "c4":
            lam = -1j / 12.0 * (16.0 * np.sin(b) - 2.0 * np.sin(2 * b))
        elif name == "u5":
            re = -2.0 * np.cos(3 * b) + 12.0 * np.cos(2 * b) - 30.0 * np.cos(b) + 20.0
            im = 2.0 * np.sin(3 * b) - 18.0 * np.sin(2 * b) + 90.0 * np.sin(b)
            lam = -(re + 1j * im) / 60.0
        elif name == "c6":
            lam = -1j / 60.0 * (
                2.0 * np.sin(3 * b) - 18.0 * np.sin(2 * b) + 90.0 * np.sin(b)
            )
        elif name == "u7":
            re = (3.0 * np.cos(4 * b) - 24.0 * np.cos(3 * b) + 84.0 * np.cos(2 * b)
                  - 168.0 * np.cos(b) + 105.0)
            im = (-3.0 * np.sin(4 * b) + 32.0 * np.sin(3 * b) - 168.0 * np.sin(2 * b)
                  + 672.0 * np.sin(b))
            lam = -(re + 1j * im) / 420.0
        elif name == "u9":
            re = (-4.0 * np.cos(5 * b) + 40.0 * np.cos(4 * b) - 180.0 * np.cos(3 * b)
                  + 480.0 * np.cos(2 * b) - 840.0 * np.cos(b) + 504.0)
            im = (4.0 * np.sin(5 * b) - 50.0 * np.sin(4 * b) + 300.0 * np.sin(3 * b)
                  - 1200.0 * np.sin(2 * b) + 4200.0 * np.sin(b))
            lam = -(re + 1j * im) / 2520.0
        else:
            raise ValueError(f"unknown scheme {name!r}")
        total = total + (u / h) * lam
    return total


def rk4_amplification(z):
    """RK4 characteristic polynomial 1 + z + z^2/2 + z^3/6 + z^4/24."""
    z = np.asarray(z)
    return 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


def rk4_amplification_parts(x, y):
    """Real and imaginary parts of the amplification, expanded in x and y.

    With z = x + i y:
      Re g = (1 + x + x^2/2 + x^3/6 + x^4/24) - (y^2/2)(1 + x + x^2/2) + y^4/24
      Im g = y (1 + x + x^2/2 + x^3/6) - (y^3/6)(1 + x)
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    re = (
        1.0 + x + x**2 / 2.0 + x**3 / 6.0 + x**4 / 24.0
        - (y**2 / 2.0) * (1.0 + x + x**2 / 2.0)
        + y**4 / 24.0
    )
    im = y * (1.0 + x + x**2 / 2.0 + x**3 / 6.0) - (y**3 / 6.0) * (1.0 + x)
    return re, im


STABILITY_TOL = 1e-12


def phase_modes(scheme, dim=1, n_beta=1024):
    """Unit-CFL eigenvalues on a dense phase-angle grid.

    The grid is the full [-pi, pi] per dimension, endpoints included, with
    equal unit speeds in every dimension as the 2D worst case.
    """
    beta = np.linspace(-np.pi, np.pi, n_beta)
    mu = stencil_eigenvalue(scheme, (beta,), (1.0,), 1.0)
    if dim == 1:
        return mu
    if dim == 2:
        return mu[:, None] + mu[None, :]
    raise ValueError("dim must be 1 or 2")


def max_amplification(modes, sigma):
    """Largest RK4 amplification |g(sigma * mode)| over ``modes``."""
    return float(np.max(np.abs(rk4_amplification(sigma * modes))))


def max_stable_sigma(scheme, dim=1, n_beta=1024, tol=1e-4):
    """Largest CFL number, found by bisection on the worst amplification.

    Scans |g| over ``phase_modes`` and accepts sigma when
    max|g| <= 1 + STABILITY_TOL.
    """
    modes = phase_modes(scheme, dim, n_beta)

    def stable(sig):
        return max_amplification(modes, sig) <= 1.0 + STABILITY_TOL

    lo, hi = 0.0, 4.0
    if stable(hi):
        raise RuntimeError("bisection bracket too small")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def phase_dissipation_curve(scheme, sigma, samples=256):
    """Dissipation and normalized phase error over beta in (0, pi].

    Returns an array of rows (beta, dissipation, phase_error) with
    dissipation = 1 - |g| and phase error |1 - alpha| where
    alpha = -Im(g) / (Re(g) * sigma * beta).  beta = 0 is excluded (alpha
    is 0/0 there); samples where Re(g) vanishes report NaN phase error
    instead of raising.
    """
    beta = np.linspace(0.0, np.pi, samples + 1)[1:]
    z = sigma * stencil_eigenvalue(scheme, (beta,), (1.0,), 1.0)
    g = rk4_amplification(z)
    dissipation = 1.0 - np.abs(g)
    re = g.real
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = -g.imag / (re * sigma * beta)
    phase_error = np.where(re == 0.0, np.nan, np.abs(1.0 - alpha))
    return np.column_stack([beta, dissipation, phase_error])


def stability_table(dims=(1, 2), n_beta=1024, tol=1e-4):
    """(scheme, dim, sigma_max) rows for every scheme and requested dim."""
    rows = []
    for name in SCHEME_NAMES:
        for dim in dims:
            rows.append((name, dim, max_stable_sigma(name, dim, n_beta, tol)))
    return rows


def _as_tuple(betas):
    if isinstance(betas, (tuple, list)):
        return tuple(betas)
    return (betas,)
