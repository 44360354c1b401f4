"""Von Neumann analysis of the semi-discrete schemes under RK4.

Eigenvalues follow the decaying-mode convention (the semi-discrete operator
is -u d/dx), so centered schemes give purely imaginary values and upwind
schemes give non-positive real parts.  Eigenvalues come from the generic
transfer function assembled from the stencil coefficients.
"""

import numpy as np

from .schemes import SCHEME_NAMES, scheme_coefficients


def stencil_eigenvalue(scheme, beta):
    """Eigenvalue from the stencil coefficients at the phase angles
    ``beta``, along one axis at unit speed and spacing (positive
    orientation).  Multi-dimensional modes are sums of these
    (``phase_modes``).
    """
    if isinstance(scheme, str):
        scheme = scheme_coefficients(scheme)
    beta = np.asarray(beta, dtype=float)
    phi = sum(a * np.exp(1j * s * beta) for s, a in zip(scheme.offsets, scheme.coefficients))
    # adding a complex +0 makes every zero part +0.0, never -0.0
    return 0.0 + 0.0j + -1.0 * phi * (1.0 - np.exp(-1j * beta))


def rk4_amplification(z):
    """RK4 characteristic polynomial 1 + z + z^2/2 + z^3/6 + z^4/24."""
    z = np.asarray(z)
    return 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


STABILITY_TOL = 1e-12


def phase_modes(scheme, dim=1, n_beta=1024):
    """Unit-CFL eigenvalues on a dense phase-angle grid.

    The grid is the full [-pi, pi] per dimension, endpoints included, with
    equal unit speeds in every dimension as the 2D worst case.  In 1D this
    is the n_beta eigenvalues mu.  In 2D the mode of the angle pair (i, j)
    is mu[i] + mu[j], which equals mu[j] + mu[i] bit for bit, so each
    unordered pair i <= j is returned once, folded into a
    (ceil(n_beta / 2), n_beta + 1) array: row i holds mu[i] + mu[i:]
    followed by mu[k] + mu[k:] with k = n_beta - 1 - i.  For odd n_beta
    the middle row has i == k and holds its pairs twice, so every entry is
    a mode of the full grid and max|g| over the fold is exactly the max
    over the full grid.
    """
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    beta = np.linspace(-np.pi, np.pi, n_beta)
    mu = stencil_eigenvalue(scheme, beta)
    if dim == 1:
        return mu
    modes = np.empty(((n_beta + 1) // 2, n_beta + 1), dtype=mu.dtype)
    for i, row in enumerate(modes):
        k = n_beta - 1 - i
        np.add(mu[i], mu[i:], out=row[: n_beta - i])
        np.add(mu[k], mu[k:], out=row[n_beta - i :])
    return modes


def max_amplification(modes, sigma, scaled=None):
    """Largest RK4 amplification |g(sigma * mode)| over ``modes``.

    ``sigma * modes`` is formed in ``scaled`` (an array of the shape and
    type of ``modes``, fresh when not given), and the magnitudes |g| in its
    real part, which is free once g is formed.
    """
    z = np.multiply(sigma, modes, out=scaled)
    return float(np.max(np.abs(rk4_amplification(z), out=z.real)))


def max_stable_sigma(scheme, dim=1, n_beta=1024, tol=1e-4):
    """Largest CFL number, found by bisection on the worst amplification.

    Scans |g| over ``phase_modes`` and accepts sigma when
    max|g| <= 1 + STABILITY_TOL.  Every probe reuses one buffer for the
    scaled modes and their amplification magnitudes.
    """
    modes = phase_modes(scheme, dim, n_beta)
    scaled = np.empty_like(modes)

    def stable(sig):
        return max_amplification(modes, sig, scaled) <= 1.0 + STABILITY_TOL

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
    instead of raising.  A sigma so large that some |g| is not finite is
    rejected with a ``ValueError`` that names it.
    """
    beta = np.linspace(0.0, np.pi, samples + 1)[1:]
    with np.errstate(all="ignore"):
        z = sigma * stencil_eigenvalue(scheme, beta)
        g = rk4_amplification(z)
        dissipation = 1.0 - np.abs(g)
        if not np.all(np.isfinite(dissipation)):
            raise ValueError(f"sigma={sigma} overflows the RK4 amplification of {scheme}")
        re = g.real
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
