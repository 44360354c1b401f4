"""Self-test of the benchmark at small sizes.

    python3 perfbench/selftest.py

Runs from the root of a source checkout, like ``run.py``.  Deliberately
not named ``test_*.py``: it belongs to the benchmark, not to the package's
test suite.
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run

run.load_package()

import numpy as np  # noqa: E402

import fvadvect  # noqa: E402
import harness  # noqa: E402
import layertrace  # noqa: E402
from workloads import WORKLOADS, Advection, values  # noqa: E402

END_UNITS, LAYER_UNITS = run.declared_metrics()
SECONDS = 0.05

SMALL = {
    "slotted-rotation-2d": dict(n=64, t_final=0.02),
    "cosine8-unlimited-2d": dict(n=32, t_final=0.1),
    "stability-table": dict(dims=(1,)),
}


def small(name):
    return dataclasses.replace(WORKLOADS[name], **SMALL[name])


class WorkloadSelfTest(unittest.TestCase):
    def test_every_workload_has_a_small_variant(self):
        self.assertEqual(set(SMALL), set(WORKLOADS))

    def test_end_to_end_reports_every_metric(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                ledger, metrics, report = harness.end_to_end(small(name), 1, SECONDS)
                self.assertEqual(ledger.failures, [])
                self.assertEqual(set(metrics), set(END_UNITS))
                self.assertTrue(all(v > 0 for v in metrics.values()), metrics)
                self.assertEqual(report["fail_ratio"], 0.0)

    def test_traced_run_reports_every_layer_metric(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                ledger, metrics, report = harness.traced(small(name), 1, SECONDS)
                self.assertEqual(ledger.failures, [])
                self.assertEqual(report["missing"], [])
                self.assertEqual(set(metrics), set(LAYER_UNITS))

    def test_seed_moves_the_feature_by_a_sub_cell_offset(self):
        w = small("cosine8-unlimited-2d")
        base, moved = w.build(0), w.build(7)
        spec0 = fvadvect.problems.standard_problem("cosine8", "constant", base.grid)
        self.assertEqual(tuple(base.spec.center), tuple(spec0.center))
        shift = np.abs(np.subtract(moved.spec.center, base.spec.center))
        self.assertTrue(np.all((0 < shift) & (shift <= 0.5 * base.grid.h)))
        self.assertFalse(np.array_equal(values(base.q0), values(moved.q0)))
        self.assertEqual(values(w.build(7).q0).tobytes(), values(moved.q0).tobytes())


class FaultSelfTest(unittest.TestCase):
    def test_nan_from_fct_advance_counts_as_failed(self):
        def poison(original):
            def fake(*args, **kwargs):
                q, etas = original(*args, **kwargs)
                values(q)[...] = np.nan
                return q, etas
            return fake

        with layertrace.patched("fct", "fct_advance", poison), \
                contextlib.redirect_stderr(io.StringIO()):
            ledger, metrics, report = harness.end_to_end(
                small("slotted-rotation-2d"), 1, SECONDS)
        self.assertGreater(ledger.failed, 0)
        self.assertGreater(report["fail_ratio"], 0.0)
        for silent in ("run_s", "step_ms_p50"):
            self.assertNotIn(silent, metrics)
        self.assertNotIn("max_error", report)

    def test_output_check_catches_one_ulp(self):
        w = small("cosine8-unlimited-2d")
        case = w.build(0)
        out = w.timed(case).output
        bumped = out.copy()
        bumped.flat[0] = np.nextafter(bumped.flat[0], 1.0)
        self.assertEqual(w.check(case, out, out), [])
        self.assertTrue(w.check(case, bumped, out))

    def test_removed_function_is_missing_not_zero(self):
        removed = fvadvect.analysis.max_stable_sigma
        holders = [m for m in layertrace.package_modules()
                   if getattr(m, "max_stable_sigma", None) is removed]
        for m in holders:
            delattr(m, "max_stable_sigma")
        try:
            ledger, metrics, report = harness.traced(small("cosine8-unlimited-2d"), 1, SECONDS)
        finally:
            for m in holders:
                m.max_stable_sigma = removed
        self.assertEqual(ledger.failures, [])
        gone = ["analysis.max_stable_sigma.calls", "analysis.max_stable_sigma.self_ms"]
        self.assertEqual(report["missing"], gone)
        for name in gone:
            self.assertNotIn(name, metrics)
        self.assertIn("analysis.rk4_amplification.calls", metrics)

    def test_changed_eta_return_is_missing_not_zero(self):
        self.assertIsNone(layertrace._eta_counts(object()))
        self.assertEqual(layertrace._eta_counts((None, None)), (0, 0))


class ContractSelfTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([w["why"] for w in spec["workloads"]],
                         [w.why for w in WORKLOADS.values()])
        expected = list(layertrace.layer_metric_units()) + ["trace.overhead_ratio"]
        self.assertEqual(list(LAYER_UNITS), expected)
        self.assertIsInstance(WORKLOADS["slotted-rotation-2d"], Advection)

    def test_layer_map_names_real_workloads_and_metrics(self):
        layer_map = json.loads((run.HERE / "layer_map.json").read_text())
        for entry in layer_map["layer_effects"]:
            self.assertLessEqual(set(entry["moves"]), set(END_UNITS), entry["layer"])
            named = set(entry["where"]) | set(entry.get("no_change_on", [])) \
                | set(entry.get("little_on", []))
            self.assertLessEqual(named, set(WORKLOADS), entry["layer"])
        for name in layer_map["counters"]:
            self.assertIn(name, LAYER_UNITS)

    def test_last_line_is_the_result_object(self):
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", "stability-table",
             "--seed", "0", "--seconds", "0.01", "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=170,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(list(result), ["correct", "attempted", "failed", "metrics"])
        self.assertIs(result["correct"], True)
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()}, END_UNITS)

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload", "stability-table",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
