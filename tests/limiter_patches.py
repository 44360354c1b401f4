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


def capture_bounds(monkeypatch):
    """Every limited step appends ``(window, q_max, q_min)`` to the returned
    list: its ``limiter_window`` window (None where no face is active) and,
    copied when ``extremum_bound_correction`` returns, its relaxed upper
    and windowed lower bound.  They must be copied then, because
    ``compute_pqr`` writes R_in and R_out over the bound buffers."""
    steps, current = [], {}
    window, bounds, relax = fct.limiter_window, fct.compute_bounds, fct.extremum_bound_correction

    def spy_window(*args):
        steps.append([window(*args), None, None])
        return steps[-1][0]

    def spy_bounds(*args, out):
        current["q_min"] = out[1]
        return bounds(*args, out=out)

    def spy_relax(*args, out):
        q_max = relax(*args, out=out)
        steps[-1][1:] = q_max.copy(), current["q_min"].copy()
        return q_max

    monkeypatch.setattr(fct, "limiter_window", spy_window)
    monkeypatch.setattr(fct, "compute_bounds", spy_bounds)
    monkeypatch.setattr(fct, "extremum_bound_correction", spy_relax)
    return steps
