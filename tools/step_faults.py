"""Minor page faults, system time and wall time per steady-state step.

Runs the slotted cylinder under solid-body rotation (N = 256, u9, limiter
on, sigma 0.8) through ``driver.integrate`` in this process and reads
``getrusage`` at every ``on_step`` call, so each sample is one whole step
(kernels, limiter and the driver's own checks).  The first SKIP steps are
left out: they include the set-up and the heap's first growth.

    python3 tools/step_faults.py                      # this checkout
    python3 tools/step_faults.py --src ../other/src   # another checkout's package
    MALLOC_MMAP_THRESHOLD_=... python3 tools/step_faults.py

Prints one JSON line with the medians and the raw per-step samples.
"""

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

N = 256
IC, VELOCITY, SCHEME, LIMITER, SIGMA = "slotted", "rotation", "u9", "on", 0.8
STEPS = 30  # steps run
SKIP = 10  # leading steps left out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory holding the fvadvect package (default: this checkout)")
    args = p.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    from fvadvect import driver, grid, problems, velocity

    g = grid.Grid(2, N)
    v = velocity.make_velocity(VELOCITY, g)
    q0 = problems.initial_condition(problems.standard_problem(IC, VELOCITY, g), g)
    t_final = STEPS * SIGMA * g.h / velocity.max_speed(v, g)

    marks = []

    def on_step(step, t, q):
        use = resource.getrusage(resource.RUSAGE_SELF)
        marks.append((perf_counter(), use.ru_minflt, use.ru_stime))

    driver.integrate(q0, v, g, SCHEME, SIGMA, t_final, limiter=LIMITER, on_step=on_step)
    marks = marks[SKIP:]
    samples = [
        (1e3 * (b[0] - a[0]), b[1] - a[1], 1e3 * (b[2] - a[2]))
        for a, b in zip(marks, marks[1:])
    ]
    wall, faults, system = (list(col) for col in zip(*samples))
    print(json.dumps({
        "src": os.path.abspath(args.src),
        "problem": f"{IC}/{VELOCITY} {SCHEME} n={N} limiter={LIMITER}",
        "steps_sampled": len(samples),
        "faults_per_step": statistics.median(faults),
        "step_ms": round(statistics.median(wall), 3),
        "system_ms_per_step": round(statistics.median(system), 3),
        "malloc_env": {k: v for k, v in os.environ.items() if k.startswith("MALLOC_")},
        "faults": faults,
    }))


if __name__ == "__main__":
    main()
