"""Command-line error reporting: user input never ends in a traceback."""

import csv
import io
import json
import multiprocessing

import numpy as np
import pytest

from episim import cli
from episim.core import ConfigError, ScenarioConfig, SimulationError
from episim.engine import run


@pytest.mark.parametrize("field,value", [
    ("V0", 0),
    ("VF", -1),
    ("tP", {"type": "gamma_shifted", "shape": 1, "scale": 0.1, "shift": -5}),
])
def test_run_rejects_trajectory_outside_its_domain(tmp_path, capsys, field, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"popSize": 50, "timeHorizon": 5, "initialInfected": 5,
                                  field: value}))
    status = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                       "--jobs", "1"])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error: invalid config")
    assert f"{field}:" in err
    assert not (tmp_path / "out").exists()


INF = float("inf")


@pytest.mark.parametrize("field,value", [
    ("costPerTest", INF),
    ("betaDaily", INF),
    ("vaccineAcceptProbStd", INF),
    ("tP", {"type": "gamma_shifted", "shape": INF, "scale": 1.0, "shift": 0.5}),
    ("VP", {"type": "gamma_shifted", "shape": 2.0, "scale": INF, "shift": 1e4}),
], ids=["costPerTest", "betaDaily", "vaccineAcceptProbStd", "tP-shape", "VP-scale"])
def test_run_rejects_a_value_that_is_not_finite(tmp_path, capsys, field, value):
    # JSON configs may hold Infinity
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"popSize": 50, "timeHorizon": 5, "initialInfected": 3,
                                  "daysBetweenTesting": 1, "firstDayOfTesting": 0,
                                  field: value}))
    status = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                       "--jobs", "1"])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error: invalid config")
    assert f"{field}:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad,dist", [
    ("low", {"type": "uniform", "low": "a", "high": 2}),
    ("low", {"type": "uniform", "low": None, "high": 2}),
    ("low", {"type": "uniform", "low": True, "high": 2}),
    ("shape", {"type": "gamma_shifted", "shape": [1], "scale": 1}),
    ("value", {"type": "constant", "value": "3"}),
])
def test_run_rejects_non_numeric_distribution_parameter(tmp_path, capsys, bad, dist):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"popSize": 50, "timeHorizon": 5, "initialInfected": 5,
                                  "t0": dist}))
    status = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                       "--jobs", "1"])
    err = capsys.readouterr().err
    # a config error, reported like every other one
    assert status == 2
    assert err.startswith(f"error: t0.{bad}: expected a number, got ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field,value", [
    ("betaDaily", 10**400),
    ("tP.value", {"type": "constant", "value": 10**400}),
], ids=["betaDaily", "tP-value"])
def test_run_rejects_an_integer_too_large_for_a_float(tmp_path, capsys, field, value):
    # JSON has no limit on an integer literal, but a float field must hold it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"popSize": 50, "timeHorizon": 5, "initialInfected": 3,
                                  field.split(".")[0]: value}))
    status = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                       "--jobs", "1"])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith(f"error: {field}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_simulation_error_is_reported_without_traceback(tmp_path, capsys, monkeypatch):
    def failing_run(*args, **kwargs):
        raise SimulationError("day 3: an agent's compartment code is out of range")

    monkeypatch.setattr(cli, "run_replicates", failing_run)
    status = cli.main(["run", "--out", str(tmp_path / "out"), "--jobs", "1"])
    err = capsys.readouterr().err
    assert status == 1
    assert err == "error: day 3: an agent's compartment code is out of range\n"


@pytest.mark.parametrize("field,value", [
    ("popSize", 1e30),
    ("timeHorizon", 1e30),
    ("poolSize", 2**63),
    ("poolSize", 1e30),
], ids=["popSize-1e30", "timeHorizon-1e30", "poolSize-2**63", "poolSize-1e30"])
def test_run_rejects_an_integer_beyond_int64(tmp_path, capsys, field, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"popSize": 50, "timeHorizon": 5, "initialInfected": 3,
                                  "daysBetweenTesting": 1, "firstDayOfTesting": 0,
                                  field: value}))
    status = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                       "--jobs", "1"])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error: invalid config")
    assert f"{field}: must be in [0, 2**63 - 1]" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_time_horizon_beyond_exact_float32_days(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"popSize": 50, "timeHorizon": 2**24 + 1,
                                  "initialInfected": 3}))
    status = cli.main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                       "--jobs", "1"])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error: invalid config")
    assert "timeHorizon: must be <= 2**24" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_memory_error_is_reported_without_traceback(tmp_path, capsys, monkeypatch):
    # a popSize that fits in int64 can still be more than memory holds
    def failing_run(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 EiB for an array")

    monkeypatch.setattr(cli, "run_replicates", failing_run)
    status = cli.main(["run", "--out", str(tmp_path / "out"), "--jobs", "1"])
    err = capsys.readouterr().err
    assert status == 1
    assert err == "error: Unable to allocate 8.00 EiB for an array\n"


SMALL_BASE = {"popSize": 60, "timeHorizon": 8, "initialInfected": 3}


def write_spec(tmp_path, spec):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_a_failed_cell_write_shuts_the_sweep_pool_down(tmp_path, capsys, monkeypatch):
    # the cells are written while the pool runs the later ones; an error in
    # the first write must not leave the pool's workers running
    def failing_write(*args):
        raise OSError("No space left on device")

    monkeypatch.setattr(cli, "write_replicates", failing_write)
    spec = write_spec(tmp_path, {"base": SMALL_BASE, "replicates": 2,
                                 "axes": [{"name": "poolSize", "values": [1, 2, 5]}]})
    status = cli.main(["sweep", "--spec", spec, "--out", str(tmp_path / "out"), "--jobs", "2"])
    assert status == 3
    assert capsys.readouterr().err == "I/O error: No space left on device\n"
    assert multiprocessing.active_children() == []


def test_report_stdout_matches_report_csv_with_a_comma_label(tmp_path, capsys):
    spec = write_spec(tmp_path, {
        "base": dict(SMALL_BASE, daysBetweenTesting=2),
        "axes": [{"name": "pooling", "values": [
            {"label": "pool 5, 2 days", "overrides": {"poolSize": 5}},
            {"label": "single", "overrides": {"poolSize": 1}},
        ]}],
        "replicates": 2,
    })
    out = tmp_path / "out"
    assert cli.main(["sweep", "--spec", spec, "--out", str(out), "--jobs", "1"]) == 0
    capsys.readouterr()
    assert cli.main(["report", str(out), "--out", str(tmp_path / "rebuilt.csv")]) == 0
    stdout = capsys.readouterr().out
    written = (out / "report.csv").read_bytes()
    assert stdout.encode() == written == (tmp_path / "rebuilt.csv").read_bytes()
    rows = list(csv.reader(io.StringIO(stdout)))
    assert [len(row) for row in rows] == [len(rows[0])] * 3
    assert rows[1][0] == "pool 5, 2 days"


def test_report_orders_cells_by_index_past_999(tmp_path, capsys):
    # a sweep writes cell_{index:03d}, so from 1,000 cells on a name is
    # longer; as text, cell_1000 would sort between cell_100 and cell_101
    spec = write_spec(tmp_path, {
        "base": SMALL_BASE,
        "axes": [{"name": "cells", "values": [
            {"label": label, "overrides": {}} for label in ("A", "B", "C")]}],
        "replicates": 1,
    })
    out = tmp_path / "out"
    assert cli.main(["sweep", "--spec", spec, "--out", str(out), "--jobs", "1"]) == 0
    for index, name in enumerate(("cell_100", "cell_101", "cell_1000")):
        (out / f"cell_{index:03d}").rename(out / name)
    capsys.readouterr()
    assert cli.main(["report", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert [row[0] for row in csv.reader(io.StringIO(stdout))] == ["label", "A", "B", "C"]
    assert stdout.encode() == (out / "report.csv").read_bytes()


@pytest.mark.parametrize("field,value", [
    ("maxRuns", "x"),
    ("maxRuns", 0),
    ("replicates", True),
    ("replicates", 1.5),
    ("axes", 5),
    ("values", 3),
    ("values", []),
    ("overrides", 7),
    ("name", ["poolSize"]),
])
def test_sweep_rejects_malformed_spec(tmp_path, capsys, field, value):
    axis = {"name": "pooling", "values": [{"label": "single", "overrides": {"poolSize": 1}}]}
    spec = {"base": SMALL_BASE, "axes": [axis], "replicates": 1}
    if field in ("maxRuns", "replicates", "axes"):
        spec[field] = value
    elif field == "overrides":
        axis["values"][0]["overrides"] = value
    else:
        axis[field] = value
    out = tmp_path / "out"
    status = cli.main(["sweep", "--spec", write_spec(tmp_path, spec), "--out", str(out),
                       "--jobs", "1"])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_counts_follow_the_integer_rule_of_config_fields():
    # an integral float is an integer, as it is for popSize
    spec = cli.sweep_from_dict({"base": SMALL_BASE, "replicates": 2.0, "maxRuns": 10.0})
    assert (spec.replicates, spec.max_runs) == (2, 10)
    assert type(spec.replicates) is int


@pytest.mark.parametrize("field", ["timeHorizon", "popSize"])
def test_sweep_rejects_empty_cells_before_writing(tmp_path, capsys, field):
    base = dict(SMALL_BASE, initialInfected=0, **{field: 0})
    spec = write_spec(tmp_path, {"base": base, "axes": [{"name": "poolSize", "values": [1, 5]}]})
    out = tmp_path / "out"
    status = cli.main(["sweep", "--spec", spec, "--out", str(out), "--jobs", "1"])
    err = capsys.readouterr().err
    assert status == 2
    assert f"{field}: must be >= 1" in err
    assert not out.exists()


def test_sweep_checks_the_cap_before_building_any_cell(tmp_path, monkeypatch):
    calls = 0
    parse = cli.config_from_dict

    def counting_parse(doc):
        nonlocal calls
        calls += 1
        return parse(doc)

    monkeypatch.setattr(cli, "config_from_dict", counting_parse)
    axes = [{"name": name, "values": list(range(1, 51))}
            for name in ("poolSize", "daysBetweenTesting")]
    spec = cli.load_sweep_spec(write_spec(tmp_path, {
        "base": SMALL_BASE, "axes": axes, "replicates": 1, "maxRuns": 10,
    }))
    with pytest.raises(ConfigError, match="^sweep needs 2500 runs, over the cap of 10$"):
        spec.cells()
    assert calls == 0


def test_sweep_names_the_cell_with_an_unknown_field(tmp_path, capsys):
    spec = write_spec(tmp_path, {"base": SMALL_BASE, "axes": [
        {"name": "pooling", "values": [
            {"label": "single", "overrides": {"poolSize": 1}},
            {"label": "typo", "overrides": {"popsize": 5}},
        ]},
    ]})
    out = tmp_path / "out"
    status = cli.main(["sweep", "--spec", spec, "--out", str(out), "--jobs", "1"])
    err = capsys.readouterr().err
    assert status == 2
    assert err == "error: sweep cell 'typo': unknown config field(s): popsize\n"
    assert not out.exists()


def test_calibrate_without_a_final_size_r0_writes_null(tmp_path, capsys):
    # every agent a seed: no susceptible at the start
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"popSize": 100, "timeHorizon": 20, "initialInfected": 100}))
    out = tmp_path / "out"
    status = cli.main(["calibrate", "--config", str(config), "--validate", "--runs", "2",
                       "--jobs", "1", "--out", str(out)])
    assert status == 0
    assert "R0 from the final size = undefined" in capsys.readouterr().out

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    payload = json.loads((out / "calibration.json").read_text(), parse_constant=reject)
    assert payload["validation"] == {"runs": 2, "final_size_r0": None}


def test_calibrate_says_when_the_outbreak_is_not_over(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"popSize": 1000, "timeHorizon": 30, "initialInfected": 20}))
    out = tmp_path / "out"
    status = cli.main(["calibrate", "--config", str(config), "--target-r0", "2", "--validate",
                       "--runs", "2", "--jobs", "1", "--out", str(out)])
    assert status == 0
    assert "2 run(s) end with agents in E or I, so it reads low" in capsys.readouterr().out
    validation = json.loads((out / "calibration.json").read_text())["validation"]
    assert 0 < validation["final_size_r0"] < 2


def test_calibrate_takes_a_clipped_normal_trajectory(tmp_path, capsys):
    tp = {"type": "normal_clipped", "mean": 2.0, "std": 0.5, "low": 0.0, "high": 5.0}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tP": tp}))
    assert cli.main(["calibrate", "--config", str(config)]) == 0
    assert "infectious days per episode: 9.2" in capsys.readouterr().out


@pytest.mark.parametrize("target", ["nan", "inf", "-inf", "0", "-1"])
def test_calibrate_rejects_a_target_r0_that_is_not_positive_and_finite(
    tmp_path, capsys, target
):
    out = tmp_path / "out"
    status = cli.main(["calibrate", f"--target-r0={target}", "--out", str(out)])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (out / "calibration.json").exists()


def small_sweep(tmp_path, out, cells=1):
    values = [{"label": f"pool {k}", "overrides": {"poolSize": k}} for k in range(1, cells + 1)]
    spec = write_spec(tmp_path, {"base": dict(SMALL_BASE, daysBetweenTesting=2),
                                 "axes": [{"name": "pooling", "values": values}]})
    return cli.main(["sweep", "--spec", spec, "--out", str(out), "--jobs", "1"])


def edit_csv(edit):
    """A damage that rewrites the lines of a run CSV with ``edit``."""
    def damage(path):
        path.write_text("\n".join(edit(*path.read_text().splitlines())) + "\n")
    return damage


@pytest.mark.parametrize("name,damage", [
    ("cell.json", lambda path: path.write_text("{not json")),
    ("cell.json", lambda path: path.write_text("{}")),
    ("config.json", lambda path: path.write_text("{not json")),
    ("run_000.csv", edit_csv(lambda head, first, *rest: [head, "abc" + first[1:], *rest])),
    ("run_000.csv", edit_csv(lambda head, *rows: [head.replace("day", "date"), *rows])),
    ("run_000.csv", edit_csv(lambda head, *rows: [head])),
    ("run_000.csv", edit_csv(lambda head, first, *rest: [head, first[:first.rindex(",")], *rest])),
    ("run_000.csv", edit_csv(lambda head, first, *rest: [head, first + ",1", *rest])),
    ("run_000.csv", lambda path: path.write_bytes(b"\xff\xfe" + path.read_bytes())),
    ("run_000.csv", edit_csv(lambda head, *rows: [head, *rows[:3]])),
], ids=["cell-not-json", "cell-without-label", "config-not-json", "csv-non-numeric",
        "csv-wrong-header", "csv-header-only", "csv-missing-field", "csv-extra-field",
        "csv-not-utf8", "csv-truncated"])
def test_report_on_a_damaged_sweep_names_the_file(tmp_path, capsys, name, damage):
    out = tmp_path / "out"
    assert small_sweep(tmp_path, out) == 0
    damage(out / "cell_000" / name)
    capsys.readouterr()
    status = cli.main(["report", str(out)])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error: ")
    assert str(out / "cell_000" / name) in err
    assert "Traceback" not in err


def test_sweep_rejects_an_out_holding_cells(tmp_path, capsys):
    out = tmp_path / "out"
    assert small_sweep(tmp_path, out, cells=3) == 0
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    status = small_sweep(tmp_path, out, cells=1)
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error: ") and "cell_000" in err
    # nothing was written or deleted
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("command", [
    ["run"],
    ["sweep", "--spec", "sweep.json"],
    ["calibrate"],
])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_a_job_count_below_one_is_rejected(tmp_path, capsys, command, jobs):
    out = tmp_path / "out"
    status = cli.main([*command, "--out", str(out), "--jobs", jobs])
    err = capsys.readouterr().err
    assert status == 2
    assert err == f"error: --jobs must be >= 1, got {jobs}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["calibrate", "--validate"]])
def test_a_run_count_below_one_is_rejected_before_writing(tmp_path, capsys, command):
    out = tmp_path / "out"
    status = cli.main([*command, "--out", str(out), "--runs", "0", "--jobs", "1"])
    assert status == 2
    assert capsys.readouterr().err == "error: --runs must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "sweep", "calibrate"])
def test_an_out_that_is_a_file_fails_before_any_run(tmp_path, capsys, monkeypatch, command):
    def unreachable(*args, **kwargs):
        raise AssertionError("run_replicates was called")

    monkeypatch.setattr(cli, "run_replicates", unreachable)
    spec = write_spec(tmp_path, {"base": SMALL_BASE,
                                 "axes": [{"name": "poolSize", "values": [1, 5]}]})
    args = {"run": ["run", "--runs", "4"],
            "sweep": ["sweep", "--spec", spec],
            "calibrate": ["calibrate", "--validate", "--runs", "2"]}[command]
    out = tmp_path / "afile"
    out.write_text("kept\n")
    status = cli.main([*args, "--out", str(out), "--jobs", "1"])
    err = capsys.readouterr().err
    assert status == 3
    assert err.startswith("I/O error: ")
    assert out.read_text() == "kept\n"


def test_run_seed_overrides_the_config_base_seed(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_BASE))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--seed", "5", "--out", str(out),
                     "--jobs", "1"]) == 0
    assert json.loads((out / "config.json").read_text())["baseSeed"] == 5
    _, records = run(ScenarioConfig(**SMALL_BASE, baseSeed=5), 0)
    assert np.array_equal(cli.read_run_csv(out / "run_000.csv"), records)


def config_file(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_with(**fields):
    return lambda tmp_path: ["run", "--config", config_file(tmp_path, dict(SMALL_BASE, **fields)),
                             "--jobs", "1"]


def sweep_of(spec):
    return lambda tmp_path: ["sweep", "--spec", write_spec(tmp_path, spec), "--jobs", "1"]


def report_of(damage):
    """``report`` on a one-cell sweep that ``damage(cell_dir)`` has changed."""
    def make_args(tmp_path):
        assert small_sweep(tmp_path, tmp_path / "sweep") == 0
        damage(tmp_path / "sweep" / "cell_000")
        return ["report", str(tmp_path / "sweep")]
    return make_args


def clipped(mean, std, low, high):
    return {"type": "normal_clipped", "mean": mean, "std": std, "low": low, "high": high}


def set_pooling_type(cell_dir):
    path = cell_dir / "config.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text()), poolingType="bogus")))


def remove_run_csvs(cell_dir):
    for path in cell_dir.glob("run_*.csv"):
        path.unlink()


def make_empty_dir(tmp_path):
    (tmp_path / "empty").mkdir()
    return ["report", str(tmp_path / "empty")]


@pytest.mark.parametrize("make_args,message", [
    (lambda tmp_path: ["run", "--config", str(tmp_path / "absent.json")],
     "config file not found: "),
    (lambda tmp_path: ["run", "--config", config_file(tmp_path, [SMALL_BASE])],
     "config document must be an object, got list"),
    (run_with(tP={"type": "gamma_shifted", "shape": 1.5, "scale": 0, "shift": 0.5}),
     "tP: requires scale > 0"),
    (run_with(t0=clipped(3, -1, 2, 4)), "t0: requires std >= 0"),
    (run_with(t0=clipped(3, 1, 4, 2)), "t0: requires low <= high"),
    (run_with(t0=[3]), "t0: expected a number or an object, got [3]"),
    (run_with(popSize=0, initialInfected=0), "popSize: must be >= 1"),
    (lambda tmp_path: ["sweep", "--spec", str(tmp_path / "absent.json")],
     "sweep spec not found: "),
    (sweep_of([]), "sweep spec must be an object"),
    (sweep_of({"bogus": 1}), "unknown sweep spec field(s): bogus"),
    (sweep_of({"base": 3}), "sweep spec 'base' must be a config object"),
    (sweep_of({"axes": [3]}), "axes[0]: expected an object with 'name' and 'values'"),
    (sweep_of({"base": SMALL_BASE, "axes": [{"name": "poolSize", "values": [5, 5]}]}),
     "sweep produces duplicate scenario labels"),
    (lambda tmp_path: ["report", config_file(tmp_path, SMALL_BASE)], "not a directory: "),
    (make_empty_dir, "no sweep cells found under "),
    (report_of(lambda cell_dir: (cell_dir / "config.json").write_text('{"popSize": -1}')),
     "cell_000/config.json: "),
    (report_of(set_pooling_type), "cell_000/config.json: invalid config:\npoolingType: "),
    (report_of(remove_run_csvs), "cell_000: no run CSVs"),
    (lambda tmp_path: ["calibrate", "--config", config_file(
        tmp_path, dict(SMALL_BASE, t0=0, tP=0, tS=0, tF=0))],
     "no episode of this config is ever infectious"),
    # infectious for one day in about half of the episodes: tau is 0.5
    (lambda tmp_path: ["calibrate", "--target-r0", "1e308", "--validate", "--config", config_file(
        tmp_path, dict(SMALL_BASE, t0=0, tP=0, tS=0, V0=1e4, VF=1e4,
                       tF={"type": "uniform", "low": 0.5, "high": 1.5}))],
     "target R0 1e+308 over 0.500046 infectious days gives a beta that is not finite"),
    (lambda tmp_path: ["calibrate", "--config", config_file(
        tmp_path, dict(SMALL_BASE, timeHorizon=0))],
     "timeHorizon: must be >= 1"),
], ids=["run-config-missing", "run-config-list", "run-gamma-scale-0", "run-clipped-std",
        "run-clipped-bounds", "run-dist-list", "run-no-agents", "sweep-spec-missing",
        "sweep-spec-list", "sweep-spec-unknown", "sweep-spec-base", "sweep-spec-axis",
        "sweep-duplicate-labels", "report-file", "report-empty-dir", "report-bad-config",
        "report-bogus-pooling-type", "report-no-run-csvs", "calibrate-zero-tau",
        "calibrate-infinite-beta", "calibrate-no-days"])
def test_a_rejected_input_exits_2_with_its_message(tmp_path, capsys, make_args, message):
    args = make_args(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    status = cli.main([*args, "--out", str(out)])
    err = capsys.readouterr().err
    assert status == 2
    assert err.startswith("error: ")
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_a_scalar_axis_without_a_figure_label_is_named_by_field(tmp_path):
    spec = write_spec(tmp_path, {"base": SMALL_BASE,
                                 "axes": [{"name": "betaDaily", "values": [0.3]}]})
    out = tmp_path / "out"
    assert cli.main(["sweep", "--spec", spec, "--out", str(out), "--jobs", "1"]) == 0
    with (out / "report.csv").open(newline="") as fh:
        assert [row["label"] for row in csv.DictReader(fh)] == ["betaDaily=0.3"]
