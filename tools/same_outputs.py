"""Say whether two checkouts give the same outputs, and by how much not.

    python3 tools/same_outputs.py --parent DIR --change DIR [--set full|quick]

``--parent`` and ``--change`` are source checkouts (for example exports of
two commits, or an export and the working tree).  For each of them one
subprocess, with that checkout's ``src`` first on ``PYTHONPATH``, runs this
file's fixed run set and writes every output into a scratch directory:

- final fields of ``driver.integrate``: the slotted cylinder at N = 64 and
  256, the cosine8 bump under constant flow, the 1D and the 2D square and
  the rotating cosine8 bump, each in the limiter modes on, off and off-low
  and with q0 and -q0 (36 fields);
- three ``fct_advance`` steps on random flows whose sign varies from face
  to face, in 1D and 2D, in each mode (6 fields);
- CLI outputs: ``run`` (solution, centerline and ``--eta-stats`` CSVs),
  ``converge`` and ``analyze`` (scheme curves and ``--stability``).

Per output it prints both SHA-1s and, where they differ, the largest
absolute difference, the largest relative difference (over the parent's
largest magnitude) and the l1 difference (the mean absolute difference,
the discrete l1 norm on the unit domain), reading the numbers of a text
output's lines that are not comments.  ``--set quick`` is a small subset.  Like
``tools/bench_record.py`` it reports and never gates: its exit code is 0
whatever the outputs say.  Only the standard library and numpy are used.
"""

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

MODES = ("on", "off", "off-low")
# (name, dim, n, initial condition, velocity, scheme, sigma, t_final)
FIELDS = {
    "full": (
        ("slotted-64", 2, 64, "slotted", "rotation", "u9", 0.8, 0.125),
        ("slotted-256", 2, 256, "slotted", "rotation", "u9", 0.8, 0.125),
        ("cosine8-constant", 2, 128, "cosine8", "constant", "u5", 0.75, 0.25),
        ("square-1d", 1, 128, "square", "constant", "u9", 0.8, 1.0),
        ("square-2d", 2, 64, "square", "constant", "u9", 0.75, 0.25),
        ("cosine8-rotation", 2, 64, "cosine8", "rotation", "u9", 0.75, 0.125),
    ),
    "quick": (
        ("square-1d", 1, 64, "square", "constant", "u9", 0.8, 0.25),
        ("slotted-64", 2, 64, "slotted", "rotation", "u9", 0.8, 0.02),
    ),
}
# (name, dim, n): random data on a corner block, random face velocities
RANDOM_FLOWS = {"full": (("random-flow-1d", 1, 96), ("random-flow-2d", 2, 48)),
                "quick": (("random-flow-1d", 1, 64),)}
RANDOM_STEPS = 3
# (name, limited, CLI arguments); ``{out}`` is the output directory
RUN = ["run", "--ic", "slotted", "--velocity", "rotation", "--n", "64", "--t-final", "0.125",
       "--out", "{out}/run.csv", "--centerline", "{out}/run-centerline.csv",
       "--eta-stats", "{out}/run-eta.csv"]
CLI = {
    "full": (
        ("run", True, RUN),
        ("converge", True, ["converge", "--n-list", "32,64,128", "--out", "{out}/converge.csv"]),
        ("analyze", False, ["analyze", "--scheme", "u9", "--out", "{out}/analyze.csv"]),
        ("stability", False, ["analyze", "--stability", "--out", "{out}/stability.csv"]),
    ),
    "quick": (
        ("run", True, [a.replace("0.125", "0.02") for a in RUN]),
        ("analyze", False, ["analyze", "--scheme", "u9", "--samples", "32",
                            "--out", "{out}/analyze.csv"]),
    ),
}


def emit(run_set, out):
    """Write every output of ``run_set`` into ``out``, with the package on
    ``sys.path``.  A case that raises is reported in ``errors.json``."""
    from fvadvect import cli, driver
    from fvadvect.fct import fct_advance
    from fvadvect.grid import Grid, Workspace
    from fvadvect.problems import initial_condition, standard_problem
    from fvadvect.schemes import default_product_order, face_flow, scheme_coefficients
    from fvadvect.velocity import make_velocity

    errors = {}
    for name, dim, n, ic, vel, scheme, sigma, t_final in FIELDS[run_set]:
        g = Grid(dim, n)
        v = make_velocity(vel, g)
        q0 = initial_condition(standard_problem(ic, vel, g), g)
        for limiter in MODES:
            for sign, q in (("", q0), ("-neg", -q0)):
                key = f"{name}-{limiter}{sign}.npy"
                try:
                    result = driver.integrate(q, v, g, scheme, sigma, t_final, limiter=limiter)
                    np.save(out / key, np.asarray(result.field))
                except Exception:  # reported, never raised
                    errors[key] = traceback.format_exc()
    for name, dim, n in RANDOM_FLOWS[run_set]:
        g = Grid(dim, n)
        rng = np.random.default_rng(dim)
        q0 = np.zeros(g.shape)
        corner = (slice(0, n // 3),) * dim
        q0[corner] = rng.random(q0[corner].shape)
        u_faces = tuple(rng.uniform(-1.0, 1.0, g.shape) for _ in range(dim))
        s = scheme_coefficients("u9")
        flow = face_flow(u_faces, g, default_product_order(s))
        sigma = 0.4
        dt = sigma * g.h / max(float(np.max(np.abs(u))) for u in u_faces)
        for limiter in MODES:
            key = f"{name}-{limiter}.npy"
            try:
                ws, q = Workspace(g), q0
                for _ in range(RANDOM_STEPS):
                    q, _ = fct_advance(q, flow, dt, sigma, s, ws, limiter)
                np.save(out / key, q)
            except Exception:  # reported, never raised
                errors[key] = traceback.format_exc()
    for name, _, args in CLI[run_set]:
        with open(out / f"{name}.stdout", "w") as stdout, contextlib.redirect_stdout(stdout):
            code = cli.main([a.format(out=out) for a in args])
        if code != 0:
            errors[name] = f"exit code {code}"
    (out / "errors.json").write_text(json.dumps(errors, indent=1, sort_keys=True))


def run_side(checkout, run_set, out):
    """Run ``emit`` for one checkout in a subprocess; returns its exit code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(checkout, "src").resolve()), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, __file__, "--emit", str(out), "--set", run_set],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        print(proc.stdout, file=sys.stderr)
    return proc.returncode


def numbers(path):
    """The values of an output: a saved array, or the numbers of a text
    output's lines that are not ``#`` comments (a CSV's data rows, the
    ``key: value`` lines of ``run``'s summary), as floats."""
    if path.suffix == ".npy":
        return np.load(path).ravel()
    values = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        for token in line.replace(":", ",").split(","):
            try:
                values.append(float(token))
            except ValueError:
                pass
    return np.array(values)


def difference(a, b):
    """Largest absolute, largest relative and l1 difference of two outputs,
    or None where they do not hold the same number of values."""
    if a.shape != b.shape:
        return None
    with np.errstate(invalid="ignore"):
        diff = np.abs(a - b)
    if diff.size == 0:
        return {"max_abs": 0.0, "max_rel": 0.0, "l1": 0.0}
    largest, scale = float(np.max(diff)), float(np.max(np.abs(a)))
    return {"max_abs": largest, "max_rel": largest / scale if scale else largest,
            "l1": float(np.mean(diff))}


def compare(parent, change, run_set="full"):
    """Per output, ``{"name", "equal", "parent", "change", ...differences}``.

    Each side's outputs are made in a fresh scratch directory, removed
    afterwards.  An output one side lacks has that side's SHA-1 None, and
    each case a side could not run adds a row with its error under
    ``"errors"``.
    """
    with tempfile.TemporaryDirectory() as scratch:
        dirs = {side: Path(scratch, side) for side in ("parent", "change")}
        errors = {}
        for side, checkout in (("parent", parent), ("change", change)):
            dirs[side].mkdir()
            if run_side(checkout, run_set, dirs[side]) != 0:
                errors[side] = {"*": "the run set did not finish"}
            elif (dirs[side] / "errors.json").exists():
                errors[side] = json.loads((dirs[side] / "errors.json").read_text())
        names = sorted({p.name for d in dirs.values() for p in d.iterdir()} - {"errors.json"})
        rows = []
        for name in names:
            paths = {side: d / name for side, d in dirs.items()}
            sha = {side: hashlib.sha1(p.read_bytes()).hexdigest() if p.exists() else None
                   for side, p in paths.items()}
            row = {"name": name, **sha, "equal": sha["parent"] is not None
                   and sha["parent"] == sha["change"]}
            if not row["equal"] and None not in sha.values():
                row["difference"] = difference(*(numbers(p) for p in paths.values()))
            rows.append(row)
        for side, errs in errors.items():
            for name, message in errs.items():
                rows.append({"name": name, "parent": None, "change": None, "equal": False,
                             "errors": {side: message}})
    return rows


def report(rows):
    """The table ``main`` prints, one line per output and a summary."""
    lines = []
    for row in rows:
        line = f"{row['name']:34s} "
        if row["equal"]:
            line += f"equal    {row['parent']}"
        elif "errors" in row:
            line += "error    " + "; ".join(
                f"{side}: {message.strip().splitlines()[-1]}"
                for side, message in row["errors"].items())
        else:
            line += f"differs  {row['parent']} {row['change']}"
            d = row.get("difference")
            if None in (row["parent"], row["change"]):
                line += "  (missing on one side)"
            elif d is None:
                line += "  (not the same number of values)"
            else:
                line += (f"  max_abs {d['max_abs']:.3g}  max_rel {d['max_rel']:.3g}"
                         f"  l1 {d['l1']:.3g}")
        lines.append(line)
    differ = [row for row in rows if not row["equal"]]
    lines.append(f"{len(rows)} outputs: {len(rows) - len(differ)} equal, {len(differ)} differ")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--set", default="full", choices=sorted(FIELDS))
    parser.add_argument("--emit", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit is not None:
        emit(args.set, args.emit)
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    print(report(compare(args.parent, args.change, args.set)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
