"""One benchmark run: the untraced end-to-end pass or the traced layer pass.

Every solve, set-up probe and memory pass is one attempted operation.  An
operation that raises or fails a check is counted as failed and yields no
number; ``correct`` is true only when none failed.
"""

import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

import layertrace
from workloads import CheckFailed

# Set-up is short next to a run, so it is repeated until both limits are met.
SETUP_MIN_REPS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 2000
# Relative slack between the traced solve's wall time and the span total.
SPAN_ACCOUNTING_TOL = 0.01
# The benchmark's own span around each traced solve; its self time is the
# part of run_s that no package span covers.
ROOT_SPAN = "run"


class Ledger:
    """Counts attempted and failed operations and keeps the failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def attempt(self, label, operation):
        """Run ``operation()``; return its value, or None if it failed."""
        self.attempted += 1
        try:
            return operation()
        except CheckFailed as exc:
            self.failures.append(f"{label}: {exc}")
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
        return None

    @property
    def failed(self):
        return len(self.failures)


def _checked(workload, case, timing, reference):
    found = workload.check(case, timing.output, reference)
    if found:
        raise CheckFailed("; ".join(found))
    return timing


def setup_samples(workload, seed):
    """Repeated set-up times; one operation for the ledger."""
    samples = []
    start = perf_counter()
    while len(samples) < SETUP_MAX_REPS and (
        len(samples) < SETUP_MIN_REPS or perf_counter() - start < SETUP_MIN_SECONDS
    ):
        samples.append(workload.setup_seconds(seed))
    return samples


def end_to_end(workload, seed, seconds):
    """Untraced pass.  Returns (ledger, metrics, report)."""
    ledger = Ledger()
    metrics, report = {}, {}
    setups = ledger.attempt("setup", lambda: setup_samples(workload, seed))
    if setups:
        metrics["setup_s"] = statistics.median(setups)
        report["setup_samples"] = len(setups)
    case = ledger.attempt("build", lambda: workload.build(seed))
    if ledger.failed:
        return ledger, metrics, report
    verified = ledger.attempt("verify", lambda: workload.verify(case))
    reference = None
    if verified is not None:
        reference, quality = verified
        metrics["l1_error"] = quality.pop("l1_error")
        report.update((k, v) for k, v in quality.items() if v is not None)
    runs, steps = [], []
    start = perf_counter()
    while not runs or perf_counter() - start < seconds:
        timing = ledger.attempt(
            "timed solve", lambda: _checked(workload, case, workload.timed(case), reference)
        )
        if timing is None:
            break
        runs.append(timing.run_s)
        steps.extend(timing.step_ms)
    if runs:
        metrics["run_s"] = statistics.median(runs)
        report["solves"] = len(runs)
    if steps:
        p50, p90 = np.percentile(steps, [50, 90])
        metrics["step_ms_p50"] = float(p50)
        metrics["step_ms_p90"] = float(p90)
        report["step_samples"] = len(steps)
    peak = ledger.attempt("memory", lambda: workload.peak_memory(case))
    if peak is not None:
        metrics["peak_mem_mb"] = peak
    report["fail_ratio"] = ledger.failed / ledger.attempted
    return ledger, metrics, report


def _traced_solve(workload, seed, reference):
    """Build and solve under the tracer.

    Returns (tracer, timing, case, errors), where errors lists a span total
    that does not match the traced run_s and failed output checks against
    ``reference``.
    """
    with layertrace.Tracer() as tracer:
        case = workload.build(seed)
        timing = workload.timed(case, around=lambda: tracer.span(ROOT_SPAN))
    errors = []
    root = next(i for i, span in enumerate(tracer.spans) if span[0] == ROOT_SPAN)
    # Spans recorded after the root are its descendants; their self times
    # and the root's own telescope to the root's duration.
    accounted = sum(tracer.self_times()[root:])
    if abs(accounted - timing.run_s) > SPAN_ACCOUNTING_TOL * timing.run_s + 1e-4:
        errors.append(
            f"span self times {accounted:.6f} s do not account for the traced "
            f"run_s {timing.run_s:.6f} s"
        )
    errors.extend(workload.check(case, timing.output, reference))
    return tracer, timing, case, errors


def traced(workload, seed, seconds):
    """Traced pass: untraced and traced solves in pairs.

    Returns (ledger, metrics, report); metrics are medians over the traced
    solves, normalised per step (per run for a workload without steps).
    """
    ledger = Ledger()
    metrics, report = {}, {}
    case = ledger.attempt("build", lambda: workload.build(seed))
    if ledger.failed:
        return ledger, metrics, report
    verified = ledger.attempt("verify", lambda: workload.verify(case))
    reference = verified[0] if verified is not None else None
    layer_runs, ratios, outside, missing = [], [], [], set()
    start = perf_counter()
    while not ratios or perf_counter() - start < seconds:
        plain = ledger.attempt(
            "untraced solve", lambda: _checked(workload, case, workload.timed(case), reference)
        )
        if plain is None:
            break

        def traced_op():
            tracer, timing, traced_case, errors = _traced_solve(workload, seed, plain.output)
            if errors:
                raise CheckFailed("; ".join(errors))
            cells = traced_case.cells if traced_case is not None else 1
            return tracer, timing, tracer.summary(timing.steps, cells)

        done = ledger.attempt("traced solve", traced_op)
        if done is None:
            break
        tracer, timing, summary = done
        layer_runs.append(summary)
        ratios.append(timing.run_s / plain.run_s)
        outside.append(tracer.self_ms(ROOT_SPAN) / 1e3 / timing.run_s)
        missing.update(tracer.missing_metrics())
    if layer_runs:
        for name in layertrace.layer_metric_units():
            if name not in missing:
                metrics[name] = statistics.median(run[name] for run in layer_runs)
        metrics["trace.overhead_ratio"] = statistics.median(ratios)
        report["traced_solves"] = len(layer_runs)
        report["run_share_outside_package_spans"] = statistics.median(outside)
    report["missing"] = sorted(missing)
    report["fail_ratio"] = ledger.failed / ledger.attempted
    return ledger, metrics, report
