"""Substitutes for limiter phases that the degeneracy oracles patch in.

A test forces the hybridization coefficient by replacing ``fct.hybridize``
and drops the pre-constraint by replacing ``fct.preconstrain``, so the
forced step still runs the package's one limited path: the limiter
window, its core, and the correction formed on the window.
"""

import numpy as np

from fvadvect import fct


def force_eta(monkeypatch, value):
    """Every limited step takes eta = ``value`` at its window's core faces."""
    monkeypatch.setattr(
        fct, "hybridize",
        lambda A, R_in, R_out, out: tuple(np.full(R_in.shape, value) for _ in A),
    )


def skip_preconstraint(monkeypatch):
    """Every limited step keeps the antidiffusive fluxes as they are."""
    monkeypatch.setattr(fct, "preconstrain", lambda A, *args, out: A)
