"""fvadvect benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  ``--trace 0`` measures the end-to-end metrics with no
tracing; ``--trace 1`` measures the per-layer metrics in a separate traced
pass.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the provenance record and a readable report.  Exit code 0 when every
operation passed its checks, 1 when any failed, 2 when the benchmark could
not start.
"""

import os

# One BLAS/OpenMP thread: the host has two cores and runs are closed loops
# of one solve at a time.  Set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# End-to-end figures printed in the report but left out of the JSON metrics.
# max_error is deterministic for a seed but moves with the sub-cell position
# of the slotted cylinder's edge, by more across seeds than any bound the
# benchmark could hold; bound_excess and fail_ratio read exactly 0 on some
# workloads at a correct commit.  The JSON carries the failure count as
# ``attempted`` and ``failed``.
REPORT_UNITS = {"max_error": "1", "bound_excess": "1", "fail_ratio": "1"}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def git_sha(root):
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cache_sizes():
    """Per-level data cache sizes in bytes from ``getconf``, where available."""
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    sizes = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in (
            "LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"
        ):
            sizes[parts[0].split("_")[0].replace("LEVEL", "L")] = int(parts[1])
    return sizes


def provenance(numpy_version, args):
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cache_bytes": cache_sizes(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def load_package():
    """Import fvadvect from this checkout, never from an installed copy."""
    if not (SRC / "fvadvect" / "__init__.py").is_file():
        raise ImportError(f"no fvadvect sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import fvadvect

    if Path(fvadvect.__file__).resolve().parent != SRC / "fvadvect":
        raise ImportError(f"fvadvect imported from {fvadvect.__file__}, not {SRC}")
    return fvadvect


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        load_package()
        end_units, layer_units = declared_metrics()
    except (ImportError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    import numpy

    print(json.dumps({"provenance": provenance(numpy.__version__, args)}))
    if args.trace:
        ledger, metrics, report = harness.traced(workload, args.seed, args.seconds)
        units = layer_units
    else:
        ledger, metrics, report = harness.end_to_end(workload, args.seed, args.seconds)
        units = end_units
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    for name, unit in units.items():
        shown = f"{metrics[name]:.6g}" if name in metrics else "missing"
        print(f"{name:48s} {shown:>14s} {unit}")
    for key, value in report.items():
        print(f"{key:48s} {value} {REPORT_UNITS.get(key, '')}".rstrip())
    # A traced run may lack layers the program no longer has; an untraced
    # run must report every end-to-end metric.
    missing = [name for name in units if name not in metrics]
    correct = ledger.failed == 0 and (bool(args.trace) or not missing)
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
