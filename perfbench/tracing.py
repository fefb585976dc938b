"""Spans and counts taken from outside the program, for the traced run.

The engine and the CLI import functions by name, so each wrapper is patched
into the module where the name is looked up (``episim.engine.step``,
``episim.cli.write_replicates``), not where it is defined. A name a later
version no longer has is listed in ``missing`` and skipped, never an error.
Counts come from return values and arguments of the stage functions, never
from per-agent calls.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module the name is looked up in, attribute, span name)
TARGETS = (
    ("engine", "initialize", "engine.initialize"),
    ("engine", "step", "engine.step"),
    ("engine", "status_at", "viral_load.status_at"),
    ("engine", "external_exposure_step", "transmission.external_exposure_step"),
    ("engine", "internal_propagation_step", "transmission.internal_propagation_step"),
    ("engine", "run_testing_day", "testing.run_testing_day"),
    ("engine", "deliver_results", "testing.deliver_results"),
    ("engine", "vaccination_step", "interventions.vaccination_step"),
    ("engine", "self_isolation_step", "interventions.self_isolation_step"),
    ("engine", "isolation_exit_step", "interventions.isolation_exit_step"),
    ("engine", "recovered_to_susceptible_step", "interventions.recovered_to_susceptible_step"),
    ("engine", "apply_positive_result", "interventions.apply_positive_result"),
    ("cli", "run_replicates", "engine.run_replicates"),
    ("cli", "write_replicates", "cli.write_replicates"),
    ("cli", "read_run_csv", "cli.read_run_csv"),
    ("cli", "write_report", "cli.write_report"),
)

# Spans whose call count is also reported.
COUNTED_CALLS = ("viral_load.status_at", "testing.run_testing_day", "engine.run_replicates")

# Called before a span with its arguments; the value is passed to the counter.
BEFORE = {
    # samples taken = growth of the pending-results list passed as argument 3
    "testing.run_testing_day": lambda args: len(args[3]),
}


# span -> counts from (return value, arguments, value from BEFORE, the
# isolated-healthy compartment)
COUNTERS = {
    "transmission.external_exposure_step":
        lambda r, a, b, h: {"transmission.exposures_external": len(r)},
    "transmission.internal_propagation_step":
        lambda r, a, b, h: {"transmission.exposures_internal": len(r)},
    "testing.run_testing_day":
        lambda r, a, b, h: {"testing.tests": int(r), "testing.samples": len(a[3]) - b},
    "testing.deliver_results":
        lambda r, a, b, h: {"testing.results_delivered": len(r),
                            "testing.positive_results": sum(1 for x in r if x.positive)},
    "interventions.vaccination_step":
        lambda r, a, b, h: {"interventions.vaccinations": len(r)},
    "interventions.self_isolation_step":
        lambda r, a, b, h: {"interventions.self_isolations": len(r)},
    "interventions.isolation_exit_step":
        lambda r, a, b, h: {"interventions.releases": len(r)},
    "interventions.recovered_to_susceptible_step":
        lambda r, a, b, h: {"interventions.returns_to_susceptible": len(r)},
    "interventions.apply_positive_result":
        lambda r, a, b, h: {"interventions.test_isolations": int(r is not None),
                            "interventions.false_isolations": int(r is not None and r == h)},
}


class Tracer:
    """Per-span total and self seconds, call counts and stage counts of one
    traced body call."""

    def __init__(self, modules: tuple[str, ...]):
        self.modules = modules
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.step_ms: list[float] = []
        self.missing: list[str] = []
        # one [child seconds] cell per open span; the root collects the rest
        self._stack: list[list[float]] = [[0.0]]
        self._healthy = None

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        patched = []
        try:
            core = importlib.import_module("episim.core")
            self._healthy = getattr(getattr(core, "Compartment", None), "ISOLATED_HEALTHY", None)
            for module_name, attr, span in TARGETS:
                if module_name not in self.modules:
                    continue
                try:
                    module = importlib.import_module(f"episim.{module_name}")
                except ModuleNotFoundError:
                    module = None
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                setattr(module, attr, self._wrap(original, span))
                patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def _wrap(self, fn, span: str):
        stack = self._stack
        before_hook = BEFORE.get(span)
        counter = COUNTERS.get(span)
        keep_samples = span == "engine.step"

        def wrapper(*args, **kwargs):
            before = self._hook(span, before_hook, args) if before_hook else None
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.seconds[span] += dt
                self.self_seconds[span] += dt - frame[0]
                self.calls[span] += 1
                if keep_samples:
                    self.step_ms.append(dt * 1e3)
            if counter:
                counts = self._hook(span, counter, result, args, before, self._healthy)
                if counts:
                    self.counts.update(counts)
            # the counting above is charged to no span's self time
            stack[-1][0] += perf_counter() - t0
            return result

        return wrapper

    def _hook(self, span: str, fn, *args):
        try:
            return fn(*args)
        except (AttributeError, IndexError, KeyError, TypeError):
            # the stage's arguments or return value no longer fit the counter
            name = f"counts of {span}"
            if name not in self.missing:
                self.missing.append(name)
            return None
