"""Command-line frontend: scenario runs, sweep grids with comparison reports,
transmission calibration, and report regeneration from saved outputs."""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import itertools
import json
import math
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence, TextIO

import numpy as np

from .calibration import estimate_beta, final_size_r0, infectious_days
from .core import (
    ConfigError,
    ScenarioConfig,
    SimulationError,
    _as_int,
    config_from_dict,
)
from .engine import (
    RECORD_DTYPE,
    RunSummary,
    cost_per_person_day,
    default_jobs,
    run_replicates,
)

# ---------------------------------------------------------------------------
# File emission


def write_numeric_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Rows of numbers under ``header``, in the bytes of ``csv.writer``: no
    name or number needs quoting, and a float is written as its repr."""
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def write_run_csv(path: Path, records: np.ndarray) -> None:
    """One row per entry of a run's records, under the RECORD_DTYPE names."""
    write_numeric_csv(path, RECORD_DTYPE.names, records.tolist())


def read_run_csv(path: Path) -> np.ndarray:
    """The records of a run CSV as :func:`write_run_csv` wrote them; a
    ConfigError naming the file if it holds anything else."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            rows = [tuple(row) for row in reader if row]
        except (csv.Error, ValueError) as exc:  # ValueError: bytes that are not UTF-8
            raise ConfigError(f"{path}: {exc}") from None
    if header != list(RECORD_DTYPE.names):
        raise ConfigError(f"{path}: unexpected run CSV columns")
    try:
        # a missing or extra field, or a value that does not parse as its
        # column's type, is a ValueError; an integer beyond int64 overflows
        return np.array(rows, dtype=RECORD_DTYPE)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def write_aggregate_csv(path: Path, records: list[np.ndarray]) -> None:
    """Per-day mean, min and max over the replicates of every record field
    but the day."""
    columns = RECORD_DTYPE.names[1:]
    header = ["day"] + [f"{band}_{col}" for col in columns for band in ("mean", "min", "max")]
    # (runs, fields, days); every count is below 2**53, so exact as a float
    values = np.array([[run[col] for col in columns] for run in records], dtype=np.float64)
    bands = np.stack([values.mean(axis=0), values.min(axis=0), values.max(axis=0)], axis=-1)
    rows = bands.transpose(1, 0, 2).reshape(values.shape[2], -1).tolist()  # in header order
    write_numeric_csv(path, header, ([day, *row] for day, row in enumerate(rows)))


def write_json(path: Path, payload: Any) -> None:
    with path.open("w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_replicates(out_dir: Path, config: ScenarioConfig,
                     runs: list[tuple[RunSummary, np.ndarray]]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "config.json", config.to_dict())
    for summary, records in runs:
        idx = summary.run_index
        write_run_csv(out_dir / f"run_{idx:03d}.csv", records)
        write_json(out_dir / f"summary_{idx:03d}.json", dataclasses.asdict(summary))
    write_aggregate_csv(out_dir / "aggregate.csv", [records for _, records in runs])


# ---------------------------------------------------------------------------
# Config and sweep-spec loading


def read_json(path: Path) -> Any:
    """The JSON document in ``path``; a ConfigError naming the file if it is
    not valid JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        # JSONDecodeError, bytes that are not UTF-8, or nesting too deep to parse
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None


def load_config(path: Optional[str]) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig()
    try:
        doc = read_json(path)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    return config_from_dict(doc)


@dataclass(frozen=True)
class SweepCell:
    label: str
    overrides: dict[str, Any]
    config: ScenarioConfig


@dataclass
class SweepSpec:
    base: dict[str, Any]
    # each axis is its list of (label, overrides) values
    axes: list[list[tuple[str, dict[str, Any]]]]
    replicates: int
    max_runs: int

    def cells(self) -> list[SweepCell]:
        """Cartesian product of the axes, applied over the base config.

        The run count is checked against the cap before any cell is built.
        Each cell is then built once; an error in it is raised as ``sweep
        cell '<label>': <message>``.
        """
        runs = math.prod(len(values) for values in self.axes) * self.replicates
        if runs > self.max_runs:
            raise ConfigError(f"sweep needs {runs} runs, over the cap of {self.max_runs}")
        out: list[SweepCell] = []
        for combo in itertools.product(*self.axes):
            overrides: dict[str, Any] = {}
            for _, value_overrides in combo:
                overrides.update(value_overrides)
            label = "/".join(value_label for value_label, _ in combo) or "base"
            try:
                config = config_from_dict({**self.base, **overrides})
            except ConfigError as exc:
                raise ConfigError(f"sweep cell {label!r}: {exc}") from None
            out.append(SweepCell(label, overrides, config))
        labels = [c.label for c in out]
        if len(set(labels)) != len(labels):
            raise ConfigError("sweep produces duplicate scenario labels")
        return out


def _axis_value_label(field_name: str, value: Any) -> str:
    # mirror the scenario-label convention used in comparison figures
    if field_name == "poolSize":
        return f"PS {value}"
    if field_name == "daysBetweenTesting":
        return f"{value} days"
    return f"{field_name}={value}"


def _positive_int(doc: dict, key: str, default: int) -> int:
    value = _as_int(doc.get(key, default), f"sweep spec '{key}'")
    if value < 1:
        raise ConfigError(f"sweep spec '{key}' must be an integer >= 1, got {value!r}")
    return value


def sweep_from_dict(doc: dict) -> SweepSpec:
    if not isinstance(doc, dict):
        raise ConfigError("sweep spec must be an object")
    unknown = set(doc) - {"base", "axes", "replicates", "maxRuns"}
    if unknown:
        raise ConfigError(f"unknown sweep spec field(s): {', '.join(sorted(unknown))}")
    base = doc.get("base", {})
    if not isinstance(base, dict):
        raise ConfigError("sweep spec 'base' must be a config object")
    replicates = _positive_int(doc, "replicates", 1)
    max_runs = _positive_int(doc, "maxRuns", 100_000)
    axis_docs = doc.get("axes", [])
    if not isinstance(axis_docs, list):
        raise ConfigError("sweep spec 'axes' must be a list")

    axes: list[list[tuple[str, dict[str, Any]]]] = []
    for pos, axis in enumerate(axis_docs):
        if not isinstance(axis, dict) or "name" not in axis or "values" not in axis:
            raise ConfigError(f"axes[{pos}]: expected an object with 'name' and 'values'")
        name = axis["name"]
        if not isinstance(name, str):
            raise ConfigError(f"axes[{pos}]: 'name' must be a string")
        if not isinstance(axis["values"], list) or not axis["values"]:
            raise ConfigError(f"axes[{pos}] ({name}): 'values' must be a non-empty list")
        values: list[tuple[str, dict[str, Any]]] = []
        for value in axis["values"]:
            if isinstance(value, dict):
                if not isinstance(value.get("overrides"), dict):
                    raise ConfigError(
                        f"axes[{pos}] ({name}): object values need an 'overrides' map"
                    )
                overrides = value["overrides"]
                label = str(value.get("label", len(values)))
            else:
                # scalar shorthand: the axis name is the config field
                overrides = {name: value}
                label = _axis_value_label(name, value)
            values.append((label, overrides))
        axes.append(values)
    return SweepSpec(base=base, axes=axes, replicates=replicates, max_runs=max_runs)


def load_sweep_spec(path: str) -> SweepSpec:
    try:
        doc = read_json(path)
    except FileNotFoundError:
        raise ConfigError(f"sweep spec not found: {path}") from None
    return sweep_from_dict(doc)


# ---------------------------------------------------------------------------
# Comparison report

def _mean_std(values: np.ndarray) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return float(arr.mean()), std


def report_row(label: str, finals: np.ndarray, config: ScenarioConfig) -> dict[str, Any]:
    """One report row from ``finals``, the last record of each of a cell's
    runs."""
    mean_inf, std_inf = _mean_std(finals["cum_infections"])
    mean_fi, std_fi = _mean_std(finals["cum_false_iso"])
    costs = cost_per_person_day(finals["cum_cost"], config)
    return {
        "label": label,
        "runs": len(finals),
        "mean_total_infections": mean_inf,
        "std_total_infections": std_inf,
        "mean_false_isolations": mean_fi,
        "std_false_isolations": std_fi,
        "mean_cost_per_person_per_day": float(costs.mean()),
    }


def write_report_csv(fh: TextIO, rows: list[dict[str, Any]]) -> None:
    """The rows under the keys of the first; every caller has at least one."""
    writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)


def write_report(out_dir: Path, rows: list[dict[str, Any]]) -> None:
    with (out_dir / "report.csv").open("w", newline="") as fh:
        write_report_csv(fh, rows)
    write_json(out_dir / "report.json", rows)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, baseSeed=args.seed)
    Path(args.out).mkdir(parents=True, exist_ok=True)  # an unusable --out fails before any run
    [runs] = run_replicates([config], args.runs, jobs=args.jobs)
    write_replicates(Path(args.out), config, runs)
    print(f"wrote {args.runs} run(s) to {args.out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = load_sweep_spec(args.spec)
    cells = spec.cells()
    out_dir = Path(args.out)
    # a reused --out would mix the old cells into what `episim report` reads
    stale = sorted(d.name for d in out_dir.glob("cell_*") if d.is_dir())
    if stale:
        raise ConfigError(
            f"{out_dir} already holds sweep cells ({', '.join(stale)}); "
            "choose a new --out"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    # each cell is written while the pool runs the later ones; leaving the
    # block, on an error too, shuts the pool down
    with contextlib.closing(run_replicates([cell.config for cell in cells], spec.replicates,
                                           jobs=args.jobs)) as results:
        for i, (cell, runs) in enumerate(zip(cells, results)):
            cell_dir = out_dir / f"cell_{i:03d}"
            write_replicates(cell_dir, cell.config, runs)
            write_json(
                cell_dir / "cell.json",
                {
                    "label": cell.label,
                    "overrides": cell.overrides,
                    "replicates": spec.replicates,
                },
            )
            finals = np.concatenate([records[-1:] for _, records in runs])
            rows.append(report_row(cell.label, finals, cell.config))
            print(f"{cell.label}: done ({spec.replicates} runs)")
    write_report(out_dir, rows)
    print(f"wrote report for {len(cells)} scenario(s) to {out_dir / 'report.csv'}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    tau = infectious_days(config)
    beta = estimate_beta(args.target_r0, tau)
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    print(f"infectious days per episode: {tau:.6g}")
    print(f"estimated beta for R0={args.target_r0:g} (the disease's own, with no testing, "
          f"isolation or vaccination): {beta:.6g}")
    payload: dict[str, Any] = {"target_r0": args.target_r0, "infectious_days": tau, "beta": beta}
    if args.validate:
        # the disease alone: no importation, loss of immunity or intervention
        baseline = dataclasses.replace(
            config, betaDaily=beta, daysBetweenTesting=0, vaccinesAvailablePerDay=0,
            initProportionVaccinated=0.0, selfIsolationOnSymptomsProb=0.0,
            externalExposureProbDaily=0.0, daysTilSusceptible=config.timeHorizon)
        [runs] = run_replicates([baseline], args.runs, jobs=args.jobs)
        r0 = float(np.mean([final_size_r0(records) for _, records in runs]))
        not_over = sum(int(records[-1]["e"] + records[-1]["i_s"] + records[-1]["i_a"] > 0)
                       for _, records in runs)
        # null, not NaN, when undefined: JSON has no NaN
        payload["validation"] = {"runs": args.runs,
                                 "final_size_r0": None if math.isnan(r0) else r0}
        shown = ("undefined (no susceptible at the start or the end, or no seed)"
                 if math.isnan(r0) else f"{r0:.4g}")
        line = f"validation over {args.runs} baseline run(s): R0 from the final size = {shown}"
        if not_over:
            line += (f"; {not_over} run(s) end with agents in E or I, so it reads low: "
                     "a longer timeHorizon lets the outbreak end")
        print(line)
    if out_dir:
        write_json(out_dir / "calibration.json", payload)
    return 0


def _by_index(path: Path) -> tuple[int, str]:
    """Sort key of a zero-padded index in a name: cell_1000 after cell_999."""
    return len(path.name), path.name


def cmd_report(args: argparse.Namespace) -> int:
    """Rebuild the comparison report from per-run CSVs of a sweep directory."""
    out_dir = Path(args.sweep_dir)
    if not out_dir.is_dir():
        raise ConfigError(f"not a directory: {out_dir}")
    cell_dirs = sorted((d for d in out_dir.iterdir() if (d / "cell.json").is_file()), key=_by_index)
    if not cell_dirs:
        raise ConfigError(f"no sweep cells found under {out_dir}")
    rows = []
    for cell_dir in cell_dirs:
        meta = read_json(cell_dir / "cell.json")
        if not isinstance(meta, dict) or "label" not in meta:
            raise ConfigError(f"{cell_dir / 'cell.json'}: expected an object with a 'label'")
        config_path = cell_dir / "config.json"
        doc = read_json(config_path)
        try:
            config = config_from_dict(doc)
        except ConfigError as exc:
            raise ConfigError(f"{config_path}: {exc}") from None
        finals = []
        for run_csv in sorted(cell_dir.glob("run_*.csv"), key=_by_index):
            records = read_run_csv(run_csv)
            if len(records) != config.timeHorizon:
                raise ConfigError(f"{run_csv}: {len(records)} rows, expected timeHorizon "
                                  f"{config.timeHorizon}")
            finals.append(records[-1:])
        if not finals:
            raise ConfigError(f"{cell_dir}: no run CSVs")
        rows.append(report_row(meta["label"], np.concatenate(finals), config))
    write_report_csv(sys.stdout, rows)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            write_report_csv(fh, rows)
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
                       help="run baseline replicates and report R0 from their final size")
    p_cal.add_argument("--runs", type=int, default=20,
                       help="validation replicates (with --validate)")
    p_cal.add_argument("--jobs", type=int, default=default_jobs())
    p_cal.add_argument("--out", help="directory for calibration.json")
    p_cal.set_defaults(func=cmd_calibrate)

    p_rep = sub.add_parser("report", help="rebuild a comparison report from run CSVs")
    p_rep.add_argument("sweep_dir", help="directory written by 'episim sweep'")
    p_rep.add_argument("--out", help="also write the recomputed report CSV here")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in ("jobs", "runs"):
            if getattr(args, flag, 1) < 1:
                raise ConfigError(f"--{flag} must be >= 1, got {getattr(args, flag)}")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, MemoryError, BrokenProcessPool) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
