"""Closed-form and plain reference paths of the von Neumann analysis.

These cross-check the package's stencil transfer functions, Horner
polynomial and bisection in the tests; the package itself evaluates none
of these forms.
"""

import numpy as np

from fvadvect import analysis


def scheme_eigenvalue(scheme, betas, speeds=None, h=1.0):
    """Eigenvalue from the closed trigonometric form, summed over dimensions."""
    betas = tuple(betas) if isinstance(betas, (tuple, list)) else (betas,)
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


def allocating_amplification(z):
    """The RK4 polynomial as one allocating Horner expression."""
    z = np.asarray(z)
    return 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


def plain_max_stable_sigma(scheme, dim=1, n_beta=1024, tol=1e-4):
    """Bisection on sigma with a full scan of max|g| at every probe."""
    modes = analysis.phase_modes(scheme, dim, n_beta)
    scaled = np.empty_like(modes)

    def stable(sig):
        z = np.multiply(sig, modes, out=scaled)
        growth = float(np.max(np.abs(allocating_amplification(z), out=z.real)))
        return growth <= 1.0 + analysis.STABILITY_TOL

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
