"""The benchmark's workloads, their reference values and the output checks.

A workload turns the benchmark seed into program inputs, runs its body
through the public entry points only (``episim.run``, ``episim.initialize``
and ``episim.cli.main``) and checks what the body produced. Each check reads
the run CSVs and summaries in the format the CLI writes, so that a change to
the in-memory record type does not break the check.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

# Sweep workers; the benchmark machine has two cores.
JOBS = 2

# --- run workloads ----------------------------------------------------------

# spread_vax: transmission, status updates and the interventions do the work
# (traced split: internal propagation, status_at and vaccination lead) and
# testing is never called, so a testing optimisation must show no change here.
SPREAD_VAX = {
    "popSize": 30_000,
    "timeHorizon": 120,
    "initialInfected": 200,
    "daysBetweenTesting": 0,
    "initProportionVaccinated": 0.2,
    "vaccinesAvailablePerDay": 100,
    "daysTilSusceptible": 20,
}

# pooled_testing: run_testing_day takes about two thirds of the time and no
# vaccine is given; this is the workload for a faster testing stage.
POOLED_TESTING = {
    "popSize": 25_000,
    "timeHorizon": 120,
    "initialInfected": 200,
    "daysBetweenTesting": 2,
    "firstDayOfTesting": 7,
    "poolingType": "average",
    "poolSize": 5,
    "daysDelayTestResults": 2,
    "noTestingPostIsolationDays": 14,
    "vaccinesAvailablePerDay": 0,
}

# --- sweep workload -----------------------------------------------------------

# sweep: many short runs go through the process pools and every run's CSV and
# JSON files are written and read back by `episim report`. The grid covers
# poolSize 1 and larger, average and exponential pooling, and a short delay.
SWEEP_BASE = {
    "popSize": 2000,
    "timeHorizon": 120,
    "initialInfected": 40,
    "firstDayOfTesting": 7,
    "daysDelayTestResults": 1,
}
SWEEP_AXES = [
    {
        "name": "pooling",
        "values": [
            {"label": "single", "overrides": {"poolSize": 1}},
            {"label": "avg-5", "overrides": {"poolingType": "average", "poolSize": 5}},
            {"label": "exp-5", "overrides": {"poolingType": "exponential", "poolSize": 5}},
            {"label": "exp-10", "overrides": {"poolingType": "exponential", "poolSize": 10}},
        ],
    },
    {"name": "daysBetweenTesting", "values": [2, 7]},
]
SWEEP_REPLICATES = 3

# Smoke-test size: every workload's code paths, in about a second.
TINY = {"popSize": 600, "timeHorizon": 30, "initialInfected": 10}
TINY_SWEEP = {"popSize": 200, "timeHorizon": 30, "initialInfected": 6}

# --- reference values -----------------------------------------------------------

# Mean totals per run, measured over seeds 1-5 at full size. A run passes when
# |value - ref| <= REL_TOL * ref + ABS_TOL. Across seeds the totals spread by
# about 1-2% (tests 0.1-0.7%, false isolations up to 10%), so the tolerance is
# four or more standard deviations: a deliberate change of the random stream
# passes, and a change to the model (contact rate, test accuracy, pooling
# rule, isolation policy) that moves a total by more fails.
REFERENCE = {
    "spread_vax": {"total_infections": 53_640, "total_tests": 0, "total_false_isolations": 0},
    "pooled_testing": {
        "total_infections": 31_510, "total_tests": 374_590, "total_false_isolations": 1405,
    },
}
# Per sweep cell label, means over the cell's replicates.
SWEEP_REFERENCE = {
    "single/2 days": {"total_infections": 1724, "total_tests": 100_640, "total_false_isolations": 1013},
    "single/7 days": {"total_infections": 3318, "total_tests": 30_280, "total_false_isolations": 212},
    "avg-5/2 days": {"total_infections": 1858, "total_tests": 31_240, "total_false_isolations": 91},
    "avg-5/7 days": {"total_infections": 3411, "total_tests": 16_210, "total_false_isolations": 58},
    "exp-5/2 days": {"total_infections": 1849, "total_tests": 31_200, "total_false_isolations": 95},
    "exp-5/7 days": {"total_infections": 3396, "total_tests": 16_280, "total_false_isolations": 55},
    "exp-10/2 days": {"total_infections": 1840, "total_tests": 28_480, "total_false_isolations": 175},
    "exp-10/7 days": {"total_infections": 3339, "total_tests": 18_640, "total_false_isolations": 102},
}
REL_TOL = {"total_infections": 0.1, "total_tests": 0.05, "total_false_isolations": 0.25}
ABS_TOL = {"total_infections": 20, "total_tests": 20, "total_false_isolations": 10}

# Run-CSV columns the checks read.
COMPARTMENTS = ("s_u", "s_v", "e", "i_s", "i_a", "r", "iso_healthy", "iso_sick")
CUMULATIVE = ("cum_infections", "cum_false_iso", "cum_cost", "vaccinated_total")


@dataclass
class Outcome:
    """What the check of one body call found."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # identical for identical outputs; compared across calls and modes
    fingerprint: Any = None
    files_written: int = 0
    bytes_written: int = 0


def read_rows(path: Path) -> list[dict[str, float]]:
    with path.open(newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_run(rows: list[dict[str, float]], summary: dict, config) -> list[str]:
    """Problems in one run's daily rows (run-CSV columns) and summary."""
    problems = []
    if len(rows) != config.timeHorizon:
        problems.append(f"{len(rows)} daily rows, expected {config.timeHorizon}")
    for row in rows:
        total = sum(row[c] for c in COMPARTMENTS)
        if total != config.popSize:
            problems.append(f"day {row['day']:.0f}: {total:.0f} agents, expected {config.popSize}")
    for col in CUMULATIVE:
        values = [row[col] for row in rows]
        if any(b < a for a, b in zip(values, values[1:])):
            problems.append(f"{col} decreases")
    tests = sum(row["tests_today"] for row in rows)
    if tests != summary["total_tests"]:
        problems.append(f"total_tests {summary['total_tests']} != sum of tests_today {tests:.0f}")
    if not math.isclose(summary["total_cost"], summary["total_tests"] * config.costPerTest,
                        rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"total_cost {summary['total_cost']} != tests x costPerTest")
    if rows:
        last = rows[-1]
        if last["cum_infections"] != summary["total_infections"]:
            problems.append("total_infections differs from the last cum_infections")
        if last["cum_false_iso"] != summary["total_false_isolations"]:
            problems.append("total_false_isolations differs from the last cum_false_iso")
    return problems


def check_reference(name: str, summaries: list[dict], reference: dict | None) -> list[str]:
    if reference is None:
        return []
    problems = []
    for key, ref in reference.items():
        mean = statistics.fmean(s[key] for s in summaries)
        if abs(mean - ref) > REL_TOL[key] * ref + ABS_TOL[key]:
            problems.append(f"{name}: mean {key} {mean:.1f} is out of tolerance of {ref}")
    return problems


class RunWorkload:
    """One ``episim.run`` of a fixed config; set-up is ``episim.initialize``."""

    units = 1  # attempts counted per body call
    setups_per_call = 4
    traced_modules = ("engine", "cli")

    def __init__(self, episim, name: str, doc: dict, seed: int, tiny: bool, out_dir: Path):
        self.episim = episim
        self.name = name
        self.doc = {**doc, **(TINY if tiny else {}), "baseSeed": seed}
        self.config = episim.config_from_dict(self.doc)
        self.reference = None if tiny else REFERENCE[name]
        self.out_dir = out_dir
        self.agent_days = self.config.popSize * self.config.timeHorizon

    def describe(self) -> dict:
        return {"config": self.doc}

    def setup(self) -> None:
        self.episim.initialize(self.config, self.episim.make_rng(self.config.baseSeed, 0))

    def body(self):
        return self.episim.run(self.config, 0)

    def check(self, output) -> Outcome:
        summary, records = output
        path = self.out_dir / "run.csv"
        self.episim.cli.write_run_csv(path, records)
        summary_doc = dataclasses.asdict(summary)
        problems = check_run(read_rows(path), summary_doc, self.config)
        problems += check_reference(self.name, [summary_doc], self.reference)
        path.unlink()
        return Outcome(1, int(bool(problems)), problems, summary)


class SweepWorkload:
    """``episim sweep --jobs 2`` over the grid, then ``episim report``.

    Set-up is loading the spec and building its cells. Each sweep cell is
    one attempt for ``failed``.
    """

    setups_per_call = 40
    # Only the names the CLI looks up run in this process; the engine's
    # stages run in the pool's workers, where spans could not be collected.
    traced_modules = ("cli",)

    def __init__(self, episim, name: str, seed: int, tiny: bool, out_dir: Path):
        self.episim = episim
        self.name = name
        self.spec = {
            "base": {**SWEEP_BASE, **(TINY_SWEEP if tiny else {}), "baseSeed": seed},
            "axes": SWEEP_AXES,
            "replicates": SWEEP_REPLICATES,
        }
        self.tiny = tiny
        self.out_dir = out_dir
        self.spec_path = out_dir / "sweep.json"
        self.spec_path.write_text(json.dumps(self.spec, indent=2))
        # one attempt per sweep cell
        self.units = len(episim.cli.load_sweep_spec(str(self.spec_path)).cells())
        base = self.spec["base"]
        self.agent_days = self.units * SWEEP_REPLICATES * base["popSize"] * base["timeHorizon"]
        self.calls = 0

    def describe(self) -> dict:
        return {"sweep_spec": self.spec, "jobs": JOBS}

    def setup(self) -> None:
        self.episim.cli.load_sweep_spec(str(self.spec_path)).cells()

    def body(self) -> Path:
        self.calls += 1
        sweep_dir = self.out_dir / f"sweep_{self.calls}"
        with contextlib.redirect_stdout(io.StringIO()):
            status = self.episim.cli.main(
                ["sweep", "--spec", str(self.spec_path), "--out", str(sweep_dir),
                 "--jobs", str(JOBS)]
            )
            if status == 0:
                status = self.episim.cli.main(
                    ["report", str(sweep_dir), "--out", str(sweep_dir / "report_rebuilt.csv")]
                )
        if status != 0:
            raise RuntimeError(f"episim exited with status {status}")
        return sweep_dir

    def check(self, sweep_dir: Path) -> Outcome:
        try:
            return self._check(sweep_dir)
        finally:
            shutil.rmtree(sweep_dir, ignore_errors=True)

    def _check(self, sweep_dir: Path) -> Outcome:
        outcome = Outcome(self.units)
        files = [p for p in sorted(sweep_dir.rglob("*")) if p.is_file()]
        outcome.files_written = len(files)
        outcome.bytes_written = sum(p.stat().st_size for p in files)
        written = read_csv_rows(sweep_dir / "report.csv")
        rebuilt = read_csv_rows(sweep_dir / "report_rebuilt.csv")
        cell_dirs = sorted(d for d in sweep_dir.iterdir() if (d / "cell.json").is_file())
        if len(cell_dirs) != self.units:
            outcome.problems.append(f"{len(cell_dirs)} cell directories, expected {self.units}")
            outcome.failed = self.units
        summaries_bytes = []
        for pos, cell_dir in enumerate(cell_dirs):
            problems = self._check_cell(cell_dir, summaries_bytes)
            row_w = written[pos] if pos < len(written) else None
            row_r = rebuilt[pos] if pos < len(rebuilt) else None
            if row_w is None or row_w != row_r:
                problems.append(f"{cell_dir.name}: report.csv row differs from `episim report`")
            if problems:
                outcome.problems += problems
                outcome.failed = min(self.units, outcome.failed + 1)
        outcome.fingerprint = (tuple(summaries_bytes), (sweep_dir / "report.csv").read_bytes())
        return outcome

    def _check_cell(self, cell_dir: Path, summaries_bytes: list) -> list[str]:
        label = json.loads((cell_dir / "cell.json").read_text())["label"]
        config = self.episim.config_from_dict(json.loads((cell_dir / "config.json").read_text()))
        run_csvs = sorted(cell_dir.glob("run_*.csv"))
        problems = []
        if len(run_csvs) != SWEEP_REPLICATES:
            problems.append(f"{label}: {len(run_csvs)} runs, expected {SWEEP_REPLICATES}")
        summaries = []
        for run_csv in run_csvs:
            summary_path = cell_dir / run_csv.name.replace("run_", "summary_").replace(".csv", ".json")
            raw = summary_path.read_bytes()
            summaries_bytes.append(raw)
            summaries.append(json.loads(raw))
            problems += [f"{label}/{run_csv.name}: {p}"
                         for p in check_run(read_rows(run_csv), summaries[-1], config)]
        if summaries and not self.tiny:
            problems += check_reference(label, summaries, SWEEP_REFERENCE[label])
        return problems


def read_csv_rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))[1:]


WORKLOADS = ("spread_vax", "pooled_testing", "sweep")


def make_workload(episim, name: str, seed: int, tiny: bool, out_dir: Path):
    if name == "sweep":
        return SweepWorkload(episim, name, seed, tiny, out_dir)
    doc = {"spread_vax": SPREAD_VAX, "pooled_testing": POOLED_TESTING}[name]
    return RunWorkload(episim, name, doc, seed, tiny, out_dir)
