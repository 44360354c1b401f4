"""Layer tracing from outside the package.

Every traced function is replaced, for the duration of a ``Tracer`` block,
at each module attribute that a caller looks up: ``fvadvect.fct`` imports
``rk4_high_order_step`` from ``fvadvect.highorder``, so both bindings are
swapped for one wrapper.  The package itself is never edited.

A span is ``[name, parent index, start, end]``.  Spans stay in memory
until the block ends; self time is a span's duration less that of its
direct children.
"""

import contextlib
import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

import numpy as np

PACKAGE = "fvadvect"

# (module, function, runs inside the time-step loop).  Step-loop kernels
# additionally report self time per cell per step.
TARGETS = (
    ("schemes", "face_interpolate", True),
    ("schemes", "product_rule_flux", True),
    ("highorder", "rk4_high_order_step", True),
    ("highorder", "spatial_flux", True),
    ("grid", "flux_divergence", True),
    ("grid", "fill_ghosts", True),
    ("grid", "conserved_sum", False),
    ("loworder", "ctu_fluxes", True),
    ("loworder", "low_order_update", True),
    ("fct", "second_differences", True),
    ("fct", "antidiffusive", True),
    ("fct", "preconstrain", True),
    ("fct", "compute_bounds", True),
    ("fct", "smooth_extremum_flags", True),
    ("fct", "extremum_bound_correction", True),
    ("fct", "laplacian_flags", True),
    ("fct", "compute_pqr", True),
    ("fct", "hybridize", True),
    ("fct", "fct_advance", True),
    ("driver", "integrate", False),
    ("velocity", "face_average_velocity", False),
    ("velocity", "cell_average_velocity", False),
    ("problems", "initial_condition", False),
    ("analysis", "max_stable_sigma", False),
    ("analysis", "rk4_amplification", False),
)

ROLL = "numpy.roll"
ETA = "fct.eta_below_one_frac"


def layer_metric_units(targets=TARGETS):
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for module, func, kernel in targets:
        units[f"{module}.{func}.calls"] = "count"
        units[f"{module}.{func}.self_ms"] = "ms"
        if kernel:
            units[f"{module}.{func}.ns_per_cell"] = "ns"
    units[f"{ROLL}.calls"] = "count"
    units[ETA] = "fraction"
    return units


class Patch:
    """Swap every binding of one function object across loaded modules.

    ``modules`` are the namespaces to scan: each ``fvadvect`` submodule for
    package functions, plus ``numpy`` itself for ``numpy.roll``.
    """

    def __init__(self):
        self._saved = []

    def replace(self, original, replacement, modules):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def restore(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()


def package_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def lookup(module, func):
    """The package function ``fvadvect.<module>.<func>``, or None if gone."""
    try:
        mod = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    fn = getattr(mod, func, None)
    return fn if callable(fn) else None


class patched:
    """Context manager: replace ``fvadvect.<module>.<func>`` everywhere.

    Used for fakes (fault injection, set-up probes).  Raises ``LookupError``
    when the function no longer exists.
    """

    def __init__(self, module, func, make_replacement):
        self.module, self.func = module, func
        self.make_replacement = make_replacement
        self._patch = Patch()

    def __enter__(self):
        original = lookup(self.module, self.func)
        if original is None:
            raise LookupError(f"{PACKAGE}.{self.module}.{self.func} is missing")
        self._patch.replace(original, self.make_replacement(original), package_modules())
        return self

    def __exit__(self, *exc):
        self._patch.restore()
        return False


def _eta_counts(result):
    """(faces with eta < 1, faces) from ``fct_advance``'s return value.

    Returns None when the value no longer has the ``(q, etas)`` shape, so
    the counter is reported as missing rather than as zero.
    """
    if not (isinstance(result, tuple) and len(result) == 2):
        return None
    etas = result[1]
    if etas is None:
        return 0, 0
    try:
        return (sum(int(np.count_nonzero(e < 1.0)) for e in etas),
                sum(int(np.size(e)) for e in etas))
    except TypeError:
        return None


class Tracer:
    """Spans around every function in ``targets`` plus a ``numpy.roll`` count."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.roll_calls = 0
        self.eta_touched = 0
        self.eta_faces = 0
        self.missing = set()
        self._stack = []
        self._patch = Patch()

    def _wrap(self, name, fn):
        observe_eta = name == "fct.fct_advance"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe_eta:
                self._observe_eta(result)
            return result

        return traced

    def _observe_eta(self, result):
        counts = _eta_counts(result)
        if counts is None:
            self.missing.add(ETA)
        else:
            self.eta_touched += counts[0]
            self.eta_faces += counts[1]

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the body of the ``with`` block."""
        rec = [name, self._stack[-1] if self._stack else -1, perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def self_ms(self, name):
        """Summed self time of every span called ``name``, in ms."""
        return 1e3 * sum(
            own for (span_name, *_), own in zip(self.spans, self.self_times())
            if span_name == name
        )

    def __enter__(self):
        modules = package_modules()
        for module, func, _ in self.targets:
            original = lookup(module, func)
            if original is None:
                self.missing.add(f"{module}.{func}")
                continue
            self._patch.replace(original, self._wrap(f"{module}.{func}", original), modules)
        roll = np.roll

        def counted_roll(*args, **kwargs):
            self.roll_calls += 1
            return roll(*args, **kwargs)

        self._patch.replace(roll, counted_roll, modules + [sys.modules["numpy"]])
        return self

    def __exit__(self, *exc):
        self._patch.restore()
        return False

    def self_times(self):
        """Per-span self time in seconds, aligned with ``self.spans``."""
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self, steps, cells):
        """Per-layer metrics normalised per step (pass ``steps=1`` for per run)."""
        calls, self_s = Counter(), Counter()
        for (name, *_), own in zip(self.spans, self.self_times()):
            calls[name] += 1
            self_s[name] += own
        out = {}
        for module, func, kernel in self.targets:
            name = f"{module}.{func}"
            if name in self.missing:
                continue
            out[f"{name}.calls"] = calls[name] / steps
            out[f"{name}.self_ms"] = 1e3 * self_s[name] / steps
            if kernel:
                out[f"{name}.ns_per_cell"] = 1e9 * self_s[name] / steps / cells
        out[f"{ROLL}.calls"] = self.roll_calls / steps
        if ETA not in self.missing:
            out[ETA] = self.eta_touched / self.eta_faces if self.eta_faces else 0.0
        return out

    def missing_metrics(self):
        """Names of every per-layer metric this run could not measure."""
        return sorted(
            metric for metric in layer_metric_units(self.targets)
            if any(metric == m or metric.startswith(m + ".") for m in self.missing)
        )
