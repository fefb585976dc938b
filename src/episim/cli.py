"""Command-line frontend: scenario runs, sweep grids with comparison reports,
transmission calibration, and report regeneration from saved outputs."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .calibration import (
    effective_r_series,
    estimate_beta,
    expected_infectious_duration,
)
from .core import (
    ConfigError,
    ScenarioConfig,
    SimulationError,
    config_from_dict,
    default_config,
    validate_config,
)
from .engine import (
    AGGREGATE_COLUMNS,
    DailyRecord,
    ReplicateResult,
    RunSummary,
    default_jobs,
    run_replicates,
)

# Stable run-CSV schema: column -> DailyRecord attribute.
RECORD_COLUMNS = [
    ("day", "day"),
    ("s_u", "s_u"),
    ("s_v", "s_v"),
    ("e", "e"),
    ("i_s", "i_s"),
    ("i_a", "i_a"),
    ("r", "r"),
    ("iso_healthy", "iso_healthy"),
    ("iso_sick", "iso_sick"),
    ("new_ext", "new_exposures_external"),
    ("new_int", "new_exposures_internal"),
    ("cum_infections", "cumulative_total_infections"),
    ("cum_false_iso", "cumulative_false_isolations"),
    ("tests_today", "tests_used_today"),
    ("cum_cost", "cumulative_cost"),
    ("vaccinated_total", "vaccinated_total"),
]
RECORD_HEADER = [name for name, _ in RECORD_COLUMNS]

_SHORT_NAME = {attr: name for name, attr in RECORD_COLUMNS}


def compute_cost_metrics(total_cost: float, config: ScenarioConfig) -> float:
    """Total testing cost normalized per person per simulated day."""
    if config.timeHorizon <= 0 or config.popSize <= 0:
        raise ConfigError("cost metric requires timeHorizon > 0 and popSize > 0")
    return total_cost / (config.timeHorizon * config.popSize)


# ---------------------------------------------------------------------------
# File emission


def write_run_csv(path: Path, records: list[DailyRecord]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_HEADER)
        for rec in records:
            writer.writerow([getattr(rec, attr) for _, attr in RECORD_COLUMNS])


def read_run_csv(path: Path) -> list[dict[str, float]]:
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RECORD_HEADER:
            raise ConfigError(f"{path}: unexpected run CSV columns")
        return [{k: float(v) for k, v in row.items()} for row in reader]


def write_aggregate_csv(path: Path, aggregate: dict[str, dict[str, np.ndarray]],
                        n_days: int) -> None:
    header = ["day"]
    for col in AGGREGATE_COLUMNS:
        short = _SHORT_NAME[col]
        header += [f"mean_{short}", f"min_{short}", f"max_{short}"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for day in range(n_days):
            row: list[Any] = [day]
            for col in AGGREGATE_COLUMNS:
                bands = aggregate[col]
                row += [
                    float(bands["mean"][day]),
                    float(bands["min"][day]),
                    float(bands["max"][day]),
                ]
            writer.writerow(row)


def summary_to_dict(summary: RunSummary) -> dict:
    return dataclasses.asdict(summary)


def write_json(path: Path, payload: Any) -> None:
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_replicates(out_dir: Path, config: ScenarioConfig,
                     result: ReplicateResult) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "config.json", config.to_dict())
    for summary, records in zip(result.summaries, result.records):
        idx = summary.run_index
        write_run_csv(out_dir / f"run_{idx:03d}.csv", records)
        write_json(out_dir / f"summary_{idx:03d}.json", summary_to_dict(summary))
    if result.aggregate:
        write_aggregate_csv(
            out_dir / "aggregate.csv", result.aggregate, config.timeHorizon
        )


# ---------------------------------------------------------------------------
# Config and sweep-spec loading


def load_config(path: Optional[str]) -> ScenarioConfig:
    if path is None:
        return default_config()
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    return config_from_dict(doc)


def require_valid(config: ScenarioConfig) -> None:
    report = validate_config(config)
    if not report.ok:
        raise ConfigError("invalid config:\n" + str(report))


@dataclass(frozen=True)
class SweepCell:
    index: int
    label: str
    overrides: dict[str, Any]
    config: ScenarioConfig

    @property
    def dirname(self) -> str:
        return f"cell_{self.index:03d}"


@dataclass
class SweepSpec:
    base: dict[str, Any]
    axes: list[tuple[str, list[tuple[str, dict[str, Any]]]]]
    replicates: int
    max_runs: int

    def cells(self) -> list[SweepCell]:
        """Cartesian product of the axes, applied over the base config."""
        out: list[SweepCell] = []
        choice_lists = [axis_values for _, axis_values in self.axes]
        for idx, combo in enumerate(itertools.product(*choice_lists)):
            doc = dict(self.base)
            overrides: dict[str, Any] = {}
            for _, value_overrides in combo:
                overrides.update(value_overrides)
            doc.update(overrides)
            label = "/".join(value_label for value_label, _ in combo) or "base"
            config = config_from_dict(doc)
            require_valid(config)
            out.append(SweepCell(idx, label, overrides, config))
        labels = [c.label for c in out]
        if len(set(labels)) != len(labels):
            raise ConfigError("sweep produces duplicate scenario labels")
        if len(out) * self.replicates > self.max_runs:
            raise ConfigError(
                f"sweep needs {len(out) * self.replicates} runs, "
                f"over the cap of {self.max_runs}"
            )
        return out


def _axis_value_label(field_name: str, value: Any) -> str:
    # mirror the scenario-label convention used in comparison figures
    if field_name == "poolSize":
        return f"PS {value}"
    if field_name == "daysBetweenTesting":
        return f"{value} days"
    return f"{field_name}={value}"


def sweep_from_dict(doc: dict) -> SweepSpec:
    if not isinstance(doc, dict):
        raise ConfigError("sweep spec must be an object")
    unknown = set(doc) - {"base", "axes", "replicates", "maxRuns"}
    if unknown:
        raise ConfigError(f"unknown sweep spec field(s): {', '.join(sorted(unknown))}")
    base = doc.get("base", {})
    if not isinstance(base, dict):
        raise ConfigError("sweep spec 'base' must be a config object")
    config_from_dict(base)  # reject unknown fields early
    replicates = doc.get("replicates", 1)
    if not isinstance(replicates, int) or replicates < 1:
        raise ConfigError("sweep spec 'replicates' must be an integer >= 1")
    max_runs = doc.get("maxRuns", 100_000)

    axes: list[tuple[str, list[tuple[str, dict[str, Any]]]]] = []
    for pos, axis in enumerate(doc.get("axes", [])):
        if not isinstance(axis, dict) or "name" not in axis or "values" not in axis:
            raise ConfigError(f"axes[{pos}]: expected an object with 'name' and 'values'")
        name = axis["name"]
        values: list[tuple[str, dict[str, Any]]] = []
        for value in axis["values"]:
            if isinstance(value, dict):
                if "overrides" not in value:
                    raise ConfigError(
                        f"axes[{pos}] ({name}): object values need an 'overrides' map"
                    )
                overrides = value["overrides"]
                label = str(value.get("label", len(values)))
            else:
                # scalar shorthand: the axis name is the config field
                overrides = {name: value}
                label = _axis_value_label(name, value)
            for field_name in overrides:
                if field_name not in {f.name for f in dataclasses.fields(ScenarioConfig)}:
                    raise ConfigError(
                        f"axes[{pos}] ({name}): unknown config field {field_name!r}"
                    )
            values.append((label, overrides))
        if not values:
            raise ConfigError(f"axes[{pos}] ({name}): needs at least one value")
        axes.append((name, values))
    return SweepSpec(base=base, axes=axes, replicates=replicates, max_runs=max_runs)


def load_sweep_spec(path: str) -> SweepSpec:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"sweep spec not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    return sweep_from_dict(doc)


# ---------------------------------------------------------------------------
# Comparison report

REPORT_HEADER = [
    "label", "runs",
    "mean_total_infections", "std_total_infections",
    "mean_false_isolations", "std_false_isolations",
    "mean_cost_per_person_per_day",
]


def _mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return float(arr.mean()), std


def report_row(label: str, infections: list[float], false_isolations: list[float],
               costs_ppd: list[float]) -> dict[str, Any]:
    mean_inf, std_inf = _mean_std(infections)
    mean_fi, std_fi = _mean_std(false_isolations)
    mean_cost, _ = _mean_std(costs_ppd)
    return {
        "label": label,
        "runs": len(infections),
        "mean_total_infections": mean_inf,
        "std_total_infections": std_inf,
        "mean_false_isolations": mean_fi,
        "std_false_isolations": std_fi,
        "mean_cost_per_person_per_day": mean_cost,
    }


def rows_from_summaries(label: str, config: ScenarioConfig,
                        summaries: list[RunSummary]) -> dict[str, Any]:
    return report_row(
        label,
        [s.total_infections for s in summaries],
        [s.total_false_isolations for s in summaries],
        [compute_cost_metrics(s.total_cost, config) for s in summaries],
    )


def write_report(out_dir: Path, rows: list[dict[str, Any]]) -> None:
    with (out_dir / "report.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_HEADER)
        writer.writeheader()
        writer.writerows(rows)
    write_json(out_dir / "report.json", rows)


def format_report(rows: list[dict[str, Any]]) -> str:
    lines = [",".join(REPORT_HEADER)]
    for row in rows:
        lines.append(",".join(str(row[col]) for col in REPORT_HEADER))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, baseSeed=args.seed)
    require_valid(config)
    result = run_replicates(config, args.runs, jobs=args.jobs)
    write_replicates(Path(args.out), config, result)
    print(f"wrote {args.runs} run(s) to {args.out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = load_sweep_spec(args.spec)
    cells = spec.cells()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for cell in cells:
        result = run_replicates(cell.config, spec.replicates, jobs=args.jobs)
        cell_dir = out_dir / cell.dirname
        write_replicates(cell_dir, cell.config, result)
        write_json(
            cell_dir / "cell.json",
            {
                "label": cell.label,
                "overrides": cell.overrides,
                "replicates": spec.replicates,
            },
        )
        rows.append(rows_from_summaries(cell.label, cell.config, result.summaries))
        print(f"{cell.label}: done ({spec.replicates} runs)")
    write_report(out_dir, rows)
    print(f"wrote report for {len(cells)} scenario(s) to {out_dir / 'report.csv'}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    require_valid(config)
    tau = expected_infectious_duration(config)
    beta = estimate_beta(args.target_r0, config)
    print(f"expected infectious duration: {tau:.6g} days")
    print(f"estimated beta for R0={args.target_r0:g}: {beta:.6g}")
    payload: dict[str, Any] = {
        "target_r0": args.target_r0,
        "expected_infectious_duration": tau,
        "beta": beta,
    }
    series = None
    if args.validate:
        baseline = dataclasses.replace(
            config,
            betaDaily=beta,
            daysBetweenTesting=0,
            vaccinesAvailablePerDay=0,
            initProportionVaccinated=0.0,
        )
        result = run_replicates(baseline, args.runs, jobs=args.jobs)
        means = []
        series = []
        for records in result.records:
            rs = effective_r_series(records, tau)
            series.append(rs)
            means.append(rs.early_mean())
        early_mean = float(np.nanmean(means))
        payload["validation"] = {
            "runs": args.runs,
            "early_window_mean_r": early_mean,
        }
        print(
            f"validation over {args.runs} baseline run(s): "
            f"early-window mean R_t = {early_mean:.4g}"
        )
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(out_dir / "calibration.json", payload)
        if series is not None:
            with (out_dir / "rt_series.csv").open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["run", "day", "r_t", "early_window"])
                for run_idx, rs in enumerate(series):
                    for day in rs.days:
                        value = rs.values[day]
                        writer.writerow([
                            run_idx,
                            int(day),
                            "" if math.isnan(value) else float(value),
                            int(bool(rs.early_window[day])),
                        ])
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Rebuild the comparison report from per-run CSVs of a sweep directory."""
    out_dir = Path(args.sweep_dir)
    if not out_dir.is_dir():
        raise ConfigError(f"not a directory: {out_dir}")
    cell_dirs = sorted(d for d in out_dir.iterdir() if (d / "cell.json").is_file())
    if not cell_dirs:
        raise ConfigError(f"no sweep cells found under {out_dir}")
    rows = []
    for cell_dir in cell_dirs:
        with (cell_dir / "cell.json").open() as fh:
            meta = json.load(fh)
        with (cell_dir / "config.json").open() as fh:
            config = config_from_dict(json.load(fh))
        infections, false_iso, costs = [], [], []
        for run_csv in sorted(cell_dir.glob("run_*.csv")):
            rows_csv = read_run_csv(run_csv)
            if not rows_csv:
                raise ConfigError(f"{run_csv}: empty run CSV")
            final = rows_csv[-1]
            infections.append(final["cum_infections"])
            false_iso.append(final["cum_false_iso"])
            costs.append(compute_cost_metrics(final["cum_cost"], config))
        if not infections:
            raise ConfigError(f"{cell_dir}: no run CSVs")
        rows.append(report_row(meta["label"], infections, false_iso, costs))
    sys.stdout.write(format_report(rows))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=REPORT_HEADER)
            writer.writeheader()
            writer.writerows(rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="episim",
        description="Agent-based epidemic simulator with testing, isolation, "
        "and vaccination interventions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario for N replicates")
    p_run.add_argument("--config", help="scenario config JSON (defaults used if omitted)")
    p_run.add_argument("--seed", type=int, help="override the config baseSeed")
    p_run.add_argument("--runs", type=int, default=1, help="number of replicates")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--jobs", type=int, default=default_jobs(),
                       help="parallel replicate workers")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a scenario grid and compare")
    p_sweep.add_argument("--spec", required=True, help="sweep spec JSON")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--jobs", type=int, default=default_jobs())
    p_sweep.set_defaults(func=cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="estimate beta for a target R0")
    p_cal.add_argument("--config", help="scenario config JSON")
    p_cal.add_argument("--target-r0", type=float, default=5.0, dest="target_r0")
    p_cal.add_argument("--validate", action="store_true",
                       help="run baseline replicates and report early R_t")
    p_cal.add_argument("--runs", type=int, default=20,
                       help="validation replicates (with --validate)")
    p_cal.add_argument("--jobs", type=int, default=default_jobs())
    p_cal.add_argument("--out", help="directory for calibration.json / rt_series.csv")
    p_cal.set_defaults(func=cmd_calibrate)

    p_rep = sub.add_parser("report", help="rebuild a comparison report from run CSVs")
    p_rep.add_argument("sweep_dir", help="directory written by 'episim sweep'")
    p_rep.add_argument("--out", help="also write the recomputed report CSV here")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
