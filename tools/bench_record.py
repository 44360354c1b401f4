"""Record the benchmark for two checkouts as a committed BENCH_*.json file.

    python3 tools/bench_record.py --parent DIR --change DIR --out BENCH_9.json \
        [--workloads a,b] [--seeds 101-110] [--seconds 20] [--trace-runs 3] \
        [--trace-workloads slotted-rotation-2d] [--previous BENCH_8.json] [--tier1]

``--parent`` and ``--change`` are source checkouts (for example an export
of the parent commit and the working tree).  For every workload and seed
the two run ``perfbench/run.py --trace 0`` back to back, as a pair, with
the order swapped on every other pair so a slow spell of the host falls on
both sides alike.  Then each traced workload runs ``--trace 1`` at seed 0,
``--trace-runs`` times per side, again alternating.

The file holds the provenance of the host and both checkouts, every pair's
metrics, and per metric the median, quartiles, IQR, min and max of each
side, the ratio of the medians and the number of pairs the change won.
For the traced runs it holds the median per-layer self ms and call counts
per step.  Every run's standard error is merged into its standard output
and the last line must parse strictly as the benchmark's JSON result (no
``NaN`` or ``Infinity``, and nothing printed after it); a run where it
does not is recorded as malformed.  Each run also keeps the benchmark's
``missing`` report: the traced layers the program no longer has.

Each checkout is named by the git tree id of its ``src`` directory,
hashed from the files themselves (so an export without ``.git`` is named
too), and by its HEAD commit only when that commit is in the history of
the repository this recorder belongs to (an export with a throwaway
commit gets ``git_sha`` null).
``--previous`` names an earlier record, by file and by the ``src`` tree
of its change checkout; per workload and metric the file then holds the
ratio of this record's change median to that record's change median.
``--tier1`` also times the tier-1 suite once per side.  The recorder
reports and never gates: its exit code is 0 whatever the numbers say.
"""

import argparse
import ast
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("slotted-rotation-2d", "cosine8-unlimited-2d", "stability-table")
# Run-to-run figures of a traced run that are not self times.
TRACE_EXTRAS = ("numpy.roll.calls", "fct.eta_below_one_frac", "trace.overhead_ratio")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
REPOSITORY = Path(__file__).resolve().parents[1]


def seed_list(text):
    """'101-110' or '1,5,9' -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git_rev(checkout, rev):
    """``git rev-parse rev`` in a checkout, or None outside a repository."""
    try:
        out = subprocess.run(["git", "-C", str(checkout), "rev-parse", rev],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def tree_hash(directory):
    """The git tree id of ``directory``'s files, computed without git.

    Blobs and trees are hashed as git stores them (SHA-1 of
    ``"<type> <size>\\0" + body``), so on a clean checkout the value equals
    ``git rev-parse HEAD:<directory>``, and an exported checkout with no
    ``.git`` gets the same name.  ``__pycache__`` directories and ``.pyc``
    files (which the repository ignores) and empty directories (which git
    does not store) are left out.
    """
    entries = []
    for path in directory.iterdir():
        if path.is_symlink():
            mode, sha = b"120000", git_object(b"blob", os.readlink(path).encode())
        elif path.is_dir():
            if path.name == "__pycache__":
                continue
            mode, sha = b"40000", tree_hash(path)
            if sha is None:
                continue
        elif path.suffix == ".pyc":
            continue
        else:
            mode = b"100755" if os.access(path, os.X_OK) else b"100644"
            sha = git_object(b"blob", path.read_bytes())
        # git sorts a tree's entries by name, a directory's name as if it ended in "/"
        key = path.name.encode() + (b"/" if mode == b"40000" else b"")
        entries.append((key, mode + b" " + path.name.encode() + b"\0" + bytes.fromhex(sha)))
    if not entries:
        return None
    return git_object(b"tree", b"".join(entry for _, entry in sorted(entries)))


def git_object(kind, body):
    """Hex SHA-1 id of a git object of ``kind`` with contents ``body``."""
    return hashlib.sha1(kind + b" %d\0" % len(body) + body).hexdigest()


def known_commit(sha):
    """``sha`` if it is a commit in the history of this recorder's repository.

    The commit must be reachable from a branch or tag: an unreachable
    commit object can sit in the object store (``git cat-file -e`` finds
    it) and still be in no clone of the repository.
    """
    if sha is None:
        return None
    try:
        out = subprocess.run(["git", "-C", str(REPOSITORY), "for-each-ref", "--count=1",
                              "--contains", sha], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return sha if out.returncode == 0 and out.stdout.strip() else None


def strict_constant(name):
    """``json.loads`` hook: a result with NaN or Infinity is malformed."""
    raise ValueError(f"non-finite number {name} in a result line")


def run_once(checkout, workload, seed, seconds, trace):
    """One ``perfbench/run.py`` process -> (result record, its provenance)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    lines = proc.stdout.strip().splitlines()
    record, provenance = {"exit_code": proc.returncode}, None
    for line in lines:
        if line.startswith('{"provenance"'):
            provenance = json.loads(line)["provenance"]
        elif line.startswith("missing "):
            record["missing"] = ast.literal_eval(line.split(None, 1)[1])
    try:
        result = json.loads(lines[-1], parse_constant=strict_constant)
        record.update(correct=result["correct"], attempted=result["attempted"],
                      failed=result["failed"],
                      metrics={k: v["value"] for k, v in result["metrics"].items()})
    except (IndexError, ValueError, KeyError, TypeError):
        record.update(malformed=True, last_line=lines[-1] if lines else "")
    return record, provenance


def spread(values):
    """Median, quartiles, IQR, min and max of a list of numbers."""
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": values[0], "max": values[-1], "n": len(values)}


def summarise(pairs, lower_is_better=True):
    """Per metric: both sides' spread, the median ratio and the pairs won."""
    names = sorted(set().union(*(p["parent"].get("metrics", {}) for p in pairs)))
    out = {}
    for name in names:
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
                if name in p["parent"].get("metrics", {})
                and name in p["change"].get("metrics", {})]
        if not both:
            continue
        parent = spread([a for a, _ in both])
        change = spread([b for _, b in both])
        won = sum((b < a) if lower_is_better else (b > a) for a, b in both)
        out[name] = {"parent": parent, "change": change,
                     "median_ratio": (change["median"] / parent["median"]
                                      if parent["median"] else None),
                     "change_better_pairs": won, "pairs": len(both)}
    return out


def trace_summary(runs):
    """Median over runs of every self time and of the extra traced figures."""
    names = sorted({k for r in runs for k in r.get("metrics", {})
                    if k.endswith((".self_ms", ".calls")) or k in TRACE_EXTRAS})
    return {k: statistics.median(r["metrics"][k] for r in runs if k in r.get("metrics", {}))
            for k in names if any(k in r.get("metrics", {}) for r in runs)}


def tier1(checkout):
    """Wall time, exit code and summary line of the tier-1 suite."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def versus(entry, previous):
    """Change median of this record over the previous record's, per metric."""
    if previous is None:
        return None
    ratios = {}
    for name, s in entry["summary"].items():
        before = previous.get("summary", {}).get(name, {}).get("change", {}).get("median")
        ratios[name] = s["change"]["median"] / before if before else None
    return ratios


def host():
    info = {"platform": platform.platform(), "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="101-110", type=seed_list)
    parser.add_argument("--seconds", default=20.0, type=float)
    parser.add_argument("--trace-runs", default=3, type=int)
    parser.add_argument("--trace-workloads", default="slotted-rotation-2d")
    parser.add_argument("--previous", type=Path, help="earlier BENCH_*.json")
    parser.add_argument("--tier1", action="store_true", help="time tier-1 per side")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    previous = json.loads(args.previous.read_text()) if args.previous else None

    record = {
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        # the checkouts are named by their sha below, not by local paths
        "command": " ".join([Path(sys.argv[0]).name, *(
            {str(args.parent): "PARENT", str(args.change): "CHANGE"}.get(a, a)
            for a in sys.argv[1:])]),
        "host": host(),
        # the tree of src/ names the measured code even after a commit is amended
        "checkouts": {side: {"git_sha": known_commit(git_rev(path, "HEAD")),
                             "src_tree": tree_hash(path / "src"),
                             "dirty": bool(subprocess.run(
                                 ["git", "-C", str(path), "status", "--porcelain", "src"],
                                 capture_output=True, text=True).stdout.strip())}
                      for side, path in sides.items()},
        "seconds": args.seconds,
        "workloads": {},
    }
    if previous is not None:
        change = previous["checkouts"]["change"]
        record["previous"] = {"file": args.previous.name,
                              "change": known_commit(change.get("git_sha")),
                              "change_src_tree": change.get("src_tree")}

    def save():
        # after every workload, so an interrupted record keeps what it measured
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    save()
    for workload in filter(None, args.workloads.split(",")):
        pairs = []
        for k, seed in enumerate(args.seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side], provenance = run_once(sides[side], workload, seed, args.seconds, 0)
                # one benchmark provenance per side: numpy, caches, thread settings
                record["checkouts"][side].setdefault("perfbench_provenance", provenance)
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{side} run_s {pair[side].get('metrics', {}).get('run_s')}"
                for side in ("parent", "change")), flush=True)
        entry = {"pairs": pairs, "summary": summarise(pairs)}
        if previous is not None:
            entry["vs_previous"] = versus(entry, previous["workloads"].get(workload))
        if workload in args.trace_workloads.split(","):
            traced = {"parent": [], "change": []}
            for k in range(args.trace_runs):
                for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                    traced[side].append(run_once(sides[side], workload, 0, args.seconds, 1)[0])
            entry["trace_seed0"] = {
                side: {"runs": len(runs),
                       "malformed": sum(bool(r.get("malformed")) for r in runs),
                       "failed": sum(r.get("failed") or 0 for r in runs),
                       "missing": sorted({m for r in runs for m in r.get("missing", ())}),
                       "median": trace_summary(runs)}
                for side, runs in traced.items()}
        record["workloads"][workload] = entry
        save()
    if args.tier1:
        record["tier1"] = {side: tier1(path) for side, path in sides.items()}
        save()
    for workload, entry in record["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{workload:22s} {name:14s} parent {s['parent']['median']:.6g} "
                  f"(IQR {s['parent']['iqr']:.3g})  change {s['change']['median']:.6g}  "
                  f"ratio {s['median_ratio']}  won {s['change_better_pairs']}/{s['pairs']}"
                  f"  vs previous {(entry.get('vs_previous') or {}).get(name)}")
    for side, t in record.get("tier1", {}).items():
        print(f"tier-1 {side}: {t['wall_s']:.1f} s, {t['summary']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
