"""Square wave after one periodic transit: limited, unlimited, low-order.

Shows what the limiter buys: the unlimited high-order solution oscillates
around the jumps (undershoots of several percent), the corner-transport
upwind solution is monotone but heavily smeared, and the hybridized
solution is sharp and bounded in [0, 1] to roundoff.  Optionally dumps the
three profiles as CSV for plotting.

Run:  python demos/02_square_wave.py [--scheme u9] [--n 128] [--out profiles.csv]
"""

import argparse

import numpy as np

from fvadvect import (
    Grid,
    initial_condition,
    integrate,
    make_velocity,
    standard_problem,
)

parser = argparse.ArgumentParser()
parser.add_argument("--scheme", default="u9")
parser.add_argument("--n", type=int, default=128)
parser.add_argument("--out")
args = parser.parse_args()

grid = Grid(1, args.n)
velocity = make_velocity("constant", grid)
spec = standard_problem("square", "constant", grid)
q0 = initial_condition(spec, grid)

profiles = {}
for limiter in ("on", "off", "off-low"):
    result = integrate(q0, velocity, grid, args.scheme, 0.8, 1.0, limiter=limiter)
    profiles[limiter] = result.field
    print(
        f"limiter={limiter:<8} min={result.solution_min:+.3e} "
        f"max={result.solution_max:.6f} drift={result.conservation_drift:.1e}"
    )

over = profiles["off"].max() - 1.0
under = profiles["off"].min()
print(f"\nunlimited overshoot {over:+.3f} / undershoot {under:+.3f}; "
      f"limited solution stays within [{profiles['on'].min():.2e}, "
      f"{profiles['on'].max():.10f}]")

if args.out:
    x = grid.cell_centers(0)
    with open(args.out, "w") as fh:
        fh.write("x,exact,limited,unlimited,low_order\n")
        for i in range(grid.n):
            fh.write(
                f"{x[i]:.17g},{q0[i]:.17g},{profiles['on'][i]:.17g},"
                f"{profiles['off'][i]:.17g},{profiles['off-low'][i]:.17g}\n"
            )
    print(f"wrote {args.out}")
