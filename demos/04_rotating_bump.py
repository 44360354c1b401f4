"""Solid-body rotation of the smooth bump: one full revolution.

The bump starts a quarter of the domain above the rotation center and
returns to its starting point at t = 1, so the initial field is the exact
solution.  With the limiter on, the errors shrink faster than fourth order
under refinement and the peak comes back essentially intact.

Run:  python demos/04_rotating_bump.py [--scheme u9] [--n-list 32,64,128]
"""

import argparse

import numpy as np

from fvadvect import (
    Grid,
    convergence_study,
    initial_condition,
    integrate,
    make_velocity,
    standard_problem,
)

parser = argparse.ArgumentParser()
parser.add_argument("--scheme", default="u9")
parser.add_argument("--n-list", default="32,64,128")
args = parser.parse_args()
n_list = [int(tok) for tok in args.n_list.split(",")]

print(f"rotating cos^8 bump, {args.scheme}, sigma = 0.8, one revolution")
recs = convergence_study(
    "cosine8", "rotation", args.scheme, 0.8, n_list, limiter="on", dim=2
)
print(f"{'N':>6} {'max error':>12} {'order':>7}")
for r in recs:
    order = "" if r.order is None else f"{r.order:.2f}"
    print(f"{r.n:>6} {r.error:>12.3e} {order:>7}")

n = n_list[-1]
grid = Grid(2, n)
velocity = make_velocity("rotation", grid)
spec = standard_problem("cosine8", "rotation", grid, radius=15 / 128)
q0 = initial_condition(spec, grid)
result = integrate(q0, velocity, grid, args.scheme, 0.8, 1.0, limiter="on")
print(
    f"\nN={n}: peak {q0.max():.6f} -> {result.field.max():.6f} "
    f"after {result.steps} steps, conservation drift {result.conservation_drift:.1e}"
)
