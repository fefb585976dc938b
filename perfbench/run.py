"""Benchmark of the episim simulator.

Run from the repository root:

    python3 perfbench/run.py --workload spread_vax --seed 1 --seconds 40 --trace 0

Workloads (defined, with the reason for each, in ``workloads.py``):
``spread_vax`` and ``pooled_testing`` are one large ``episim.run`` each;
``sweep`` is ``episim sweep --jobs 2`` over an 8-cell grid plus
``episim report``. The seed sets the simulation's ``baseSeed``.

With ``--trace 0`` the workload body is repeated for ``--seconds`` and the
end-to-end metrics are medians over the repetitions. With ``--trace 1``
untraced and traced calls alternate; the per-layer metrics come from the
traced ones (see ``tracing.py``). Every call's output is checked; a call or
sweep cell that raises or fails a check counts in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records versions, commit, core count, seed, config and sample counts.
``--scale tiny`` shrinks every workload for the smoke test.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "agent_days_per_s": "agent-days/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_SPANS = [span for _, _, span in tracing.TARGETS]
PER_LAYER_COUNTS = [
    "transmission.exposures_external",
    "transmission.exposures_internal",
    "testing.tests",
    "testing.results_delivered",
    "testing.positive_results",
    "interventions.test_isolations",
    "interventions.false_isolations",
    "interventions.self_isolations",
    "interventions.releases",
    "interventions.returns_to_susceptible",
    "interventions.vaccinations",
]
PER_LAYER = {
    **{f"{span}.s": "s" for span in PER_LAYER_SPANS},
    **{f"{span}.calls": "count" for span in tracing.COUNTED_CALLS},
    "engine.step.self_s": "s",
    "engine.step.p50_ms": "ms",
    "engine.step.p90_ms": "ms",
    **{name: "count" for name in PER_LAYER_COUNTS},
    "testing.tests_per_sample": "ratio",
    "engine.worker_busy_frac": "ratio",
    "cli.bytes_written": "bytes",
    "cli.files_written": "count",
    "trace_overhead_frac": "ratio",
    "trace.missing": "count",
}


def import_program():
    """Import episim from this checkout's ``src``; exit 2 when it is absent."""
    if not (SRC / "episim" / "__init__.py").is_file():
        print(f"error: no episim package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    # pool workers started by spawn or forkserver import episim afresh
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import episim
    import episim.cli  # noqa: F401  (imported for episim.cli.main)

    return episim


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; for children it is the largest one waited for
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


class Runner:
    """Calls the workload body, checks each output and keeps the tallies."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprint = None
        self.files_written = 0
        self.bytes_written = 0

    def call(self) -> float | None:
        """One checked body call; returns its wall time, None if it raised."""
        units = self.workload.units
        gc.collect()  # each call starts from the same heap
        t0 = perf_counter()
        try:
            output = self.workload.body()
            wall = perf_counter() - t0
            outcome = self.workload.check(output)
        except Exception:
            self.attempted += units
            self.failed += units
            self.problems.append(traceback.format_exc())
            return None
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        self.files_written = outcome.files_written
        self.bytes_written = outcome.bytes_written
        if self.fingerprint is None:
            self.fingerprint = outcome.fingerprint
        elif outcome.fingerprint != self.fingerprint:
            # every call runs the same (config, runIndex): outputs must match
            self.failed += outcome.attempted
            self.problems.append("output differs from the first call's")
        return wall


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4, method="inclusive")


def measure(workload, seconds: float) -> tuple[Runner, dict, dict]:
    """End-to-end metrics with tracing off."""
    setup: list[float] = []
    runner = Runner(workload)
    walls: list[float] = []
    start = perf_counter()
    while runner.attempted == 0 or (
        walls and perf_counter() - start + statistics.median(walls) <= seconds
    ):
        # set-up calls are spread over the run, so that they meet the same
        # machine load as the body calls
        for _ in range(workload.setups_per_call):
            t0 = perf_counter()
            workload.setup()
            setup.append(perf_counter() - t0)
        wall = runner.call()
        if wall is not None:
            walls.append(wall)
    wall_s = statistics.median(walls) if walls else 0.0
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": wall_s,
        "agent_days_per_s": workload.agent_days / wall_s if walls else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {
        "setup_calls": len(setup),
        "setup_s_quartiles": quartiles(setup),
        "body_calls": len(walls),
        "wall_s_all": walls,
    }
    return runner, metrics, samples


def measure_traced(workload, seconds: float) -> tuple[Runner, dict, dict]:
    """Per-layer metrics: untraced and traced calls of the same body alternate."""
    plain = Runner(workload)
    traced = Runner(workload)
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    busy: list[float] = []
    tracers: list[tracing.Tracer] = []
    start = perf_counter()
    while not tracers or (
        traced_walls and plain_walls
        and perf_counter() - start
        + statistics.median(traced_walls) + statistics.median(plain_walls) <= seconds
    ):
        # pool workers are children: their CPU over an untraced sweep's wall
        cpu0 = children_cpu_s()
        wall = plain.call()
        if wall is not None:
            plain_walls.append(wall)
            busy.append((children_cpu_s() - cpu0) / (workloads.JOBS * wall))
        tracer = tracing.Tracer(workload.traced_modules)
        with tracer.installed():
            wall = traced.call()
        tracers.append(tracer)
        if wall is not None:
            traced_walls.append(wall)
    if plain.fingerprint != traced.fingerprint:
        # wrappers must not change what the program computes
        traced.failed += traced.attempted - traced.failed
        traced.problems.append("traced output differs from the untraced output")

    def med(values):
        return statistics.median(values) if values else 0.0

    metrics = {f"{span}.s": med([t.seconds[span] for t in tracers]) for span in PER_LAYER_SPANS}
    metrics.update({f"{span}.calls": tracers[0].calls[span] for span in tracing.COUNTED_CALLS})
    steps = [ms for t in tracers for ms in t.step_ms]
    step_q = statistics.quantiles(steps, n=10, method="inclusive") if len(steps) > 1 else [0.0] * 9
    metrics.update({
        "engine.step.self_s": med([t.self_seconds["engine.step"] for t in tracers]),
        "engine.step.p50_ms": step_q[4],
        "engine.step.p90_ms": step_q[8],
    })
    counts = tracers[0].counts
    if any(t.counts != counts for t in tracers):
        traced.failed += 1
        traced.problems.append("stage counts differ between traced calls")
    metrics.update({name: counts[name] for name in PER_LAYER_COUNTS})
    samples_taken = counts["testing.samples"]
    metrics.update({
        "testing.tests_per_sample": counts["testing.tests"] / samples_taken if samples_taken else 0.0,
        "engine.worker_busy_frac": med(busy),
        "cli.bytes_written": traced.bytes_written,
        "cli.files_written": traced.files_written,
        "trace_overhead_frac": (med(traced_walls) / med(plain_walls) - 1.0
                                if traced_walls and plain_walls else 0.0),
    })
    missing = sorted({name for t in tracers for name in t.missing})
    metrics["trace.missing"] = len(missing)
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.problems += traced.problems
    samples = {
        "pairs": len(tracers),
        "untraced_wall_s_all": plain_walls,
        "traced_wall_s_all": traced_walls,
        "step_samples": len(steps),
        "missing": missing,
    }
    return plain, metrics, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    episim = import_program()
    import numpy

    out_dir = ROOT / "perfbench" / "_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make_workload(
            episim, args.workload, args.seed, args.scale == "tiny", out_dir
        )
        measure_fn = measure_traced if args.trace else measure
        runner, metrics, samples = measure_fn(workload, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            out_dir.parent.rmdir()

    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "episim": getattr(episim, "__version__", None),
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        **workload.describe(),
        **samples,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
