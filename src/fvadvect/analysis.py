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


# Items per block of a full amplification scan: 16 rows of the 2D fold of
# 1025 complex values, about 260 KB, so a block stays in a 2 MB L2 cache
# through the five passes of Horner's rule.
_BLOCK_ITEMS = 16 * 1025


def _row_blocks(a):
    """Slices of whole rows (along the first axis of a 1-d or wider ``a``)
    that split it evenly into blocks of about ``_BLOCK_ITEMS`` items, and
    the most rows in one block.  Splitting evenly leaves no short last
    block: numpy multiplies one or two complex items in another loop than
    a long array, and that loop can round differently."""
    n = len(a)
    count = min(n, -(-a.size // _BLOCK_ITEMS))
    blocks = [slice(i * n // count, (i + 1) * n // count) for i in range(count)]
    return blocks, -(-n // max(count, 1))


def rk4_amplification(z, out=None):
    """RK4 characteristic polynomial 1 + z + z^2/2 + z^3/6 + z^4/24.

    Horner's rule in one fixed order, into ``out`` (fresh when not given):
    out = z * (1/24), out += 1/6, then out *= z, out += c for c = 1/2, 1,
    1.  The passes run block by block (``_row_blocks``), so a block stays
    in cache through all five, and each block of ``z`` is first copied
    into one small buffer, so ``out`` may be ``z`` itself.  The blocks
    change no value: every one is bitwise what whole-array passes give.

    For complex ``z``, ``z * (1/24)`` is bitwise ``z / 24`` (numpy divides
    a complex number by 24 as a multiply by the reciprocal) unless some
    part of ``z`` is subnormal: sigma = 1e-310 on ``phase_modes`` gives
    such a difference.  For real ``z`` the two can differ by one rounding.
    """
    z = np.asarray(z)
    if out is None:
        out = np.empty_like(z, dtype=np.result_type(z, 1.0))
    rows_z, rows_out = np.atleast_1d(z, out)
    blocks, rows = _row_blocks(rows_z)
    buf = np.empty((rows,) + rows_z.shape[1:], rows_z.dtype)
    for block in blocks:
        ob = rows_out[block]
        zb = buf[: len(ob)]
        np.copyto(zb, rows_z[block])
        np.multiply(zb, 1.0 / 24.0, out=ob)
        ob += 1.0 / 6.0
        for c in (0.5, 1.0, 1.0):
            ob *= zb
            ob += c
    return out


STABILITY_TOL = 1e-12
# One mode's |g| evaluated alone can round differently from the same mode
# in a full scan, by at most about 1e-15 where |g| <= 1.01: a lone mode
# settles a probe as unstable only when it clears 1 + STABILITY_TOL by
# this much more, so every decision is the full scan's.
_LONE_MODE_MARGIN = 1e-9


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


def max_amplification(modes, sigma):
    """Largest RK4 amplification |g(sigma * mode)| over ``modes``, from
    ``_worst_amplification`` in a fresh array.  A NaN (an overflowing
    sigma) gives NaN."""
    return _worst_amplification(modes, sigma, np.empty_like(modes))[0]


def _worst_amplification(modes, sigma, scaled):
    """The largest |g(sigma * mode)| over ``modes`` and its flat index.

    ``sigma * modes`` is formed in ``scaled`` (an array of the shape and
    type of ``modes``), g in place over it, and the maximum of |g| block
    by block (``_worst_mode``), so no second array of the size of
    ``modes`` is made.
    """
    z = np.multiply(sigma, modes, out=scaled)
    return _worst_mode(rk4_amplification(z, out=z))


def _worst_mode(g):
    """The largest |g| and the first flat index where it is found.

    |g| is taken block by block (``_row_blocks``) into one small buffer,
    so neither a magnitude array of the size of ``g`` nor a copy of a
    strided ``g`` is made.  A tie keeps the first flat index, and a NaN
    makes the result NaN at the first NaN, as ``np.max`` and ``np.argmax``
    do.
    """
    g = np.atleast_1d(g)
    if g.size == 0:
        raise ValueError("no modes to scan")
    blocks, rows = _row_blocks(g)
    buf = np.empty((rows,) + g.shape[1:])
    worst, index = -1.0, 0
    for block in blocks:
        mag = np.abs(g[block], out=buf[: block.stop - block.start])
        k = int(np.argmax(mag))
        if not mag.flat[k] <= worst:  # larger, or NaN
            worst, index = float(mag.flat[k]), block.start * (g.size // len(g)) + k
            if worst != worst:
                break
    return worst, index


def _lone_amplification(modes, index, sigma):
    """|g(sigma * mode)| of the one mode ``modes.flat[index]``."""
    return float(abs(rk4_amplification(sigma * modes.flat[index])))


def max_stable_sigma(scheme, dim=1, n_beta=1024, tol=1e-4):
    """Largest CFL number, found by bisection on the worst amplification.

    A probe is stable when max|g| over ``phase_modes`` is at most
    1 + STABILITY_TOL.  A full scan is one ``_worst_amplification`` in
    one buffer made per call, and it keeps the worst mode's flat index
    when the probe is unstable.  A later probe first evaluates that one
    mode alone: when its |g| clears the threshold by ``_LONE_MODE_MARGIN``
    the probe is unstable, as the full scan would find; otherwise the
    probe runs the full scan.  Nothing is kept between calls.
    """
    modes = phase_modes(scheme, dim, n_beta)
    scaled = np.empty_like(modes)
    suspect = None  # worst mode of the last unstable full scan

    def stable(sig):
        nonlocal suspect
        if suspect is not None and (_lone_amplification(modes, suspect, sig)
                                    > 1.0 + STABILITY_TOL + _LONE_MODE_MARGIN):
            return False
        worst, index = _worst_amplification(modes, sig, scaled)
        if worst <= 1.0 + STABILITY_TOL:
            return True
        suspect = index
        return False

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
