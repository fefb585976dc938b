"""Command-line error reporting: user input never ends in a traceback."""

import csv
import io
import json

import pytest

from episim import cli
from episim.core import SimulationError


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


def test_simulation_error_is_reported_without_traceback(tmp_path, capsys, monkeypatch):
    def failing_run(*args, **kwargs):
        raise SimulationError("conservation violated on day 3: 99 != 100")

    monkeypatch.setattr(cli, "run_replicates", failing_run)
    status = cli.main(["run", "--out", str(tmp_path / "out"), "--jobs", "1"])
    err = capsys.readouterr().err
    assert status == 1
    assert err == "error: conservation violated on day 3: 99 != 100\n"


SMALL_BASE = {"popSize": 60, "timeHorizon": 8, "initialInfected": 3}


def write_spec(tmp_path, spec):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(spec))
    return str(path)


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
    assert [len(row) for row in rows] == [len(cli.REPORT_HEADER)] * 3
    assert rows[1][0] == "pool 5, 2 days"


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


@pytest.mark.parametrize("field", ["timeHorizon", "popSize"])
def test_sweep_rejects_empty_cells_before_writing(tmp_path, capsys, field):
    base = dict(SMALL_BASE, initialInfected=0, **{field: 0})
    spec = write_spec(tmp_path, {"base": base, "axes": [{"name": "poolSize", "values": [1, 5]}]})
    out = tmp_path / "out"
    status = cli.main(["sweep", "--spec", spec, "--out", str(out), "--jobs", "1"])
    err = capsys.readouterr().err
    assert status == 2
    assert "requires timeHorizon > 0 and popSize > 0" in err
    assert not out.exists()


def test_calibrate_without_early_window_writes_null(tmp_path, capsys):
    # with 100 agents, 20 infectious leave under 80% of them susceptible
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"popSize": 100, "timeHorizon": 20, "initialInfected": 5}))
    out = tmp_path / "out"
    status = cli.main(["calibrate", "--config", str(config), "--validate", "--runs", "2",
                       "--jobs", "1", "--out", str(out)])
    assert status == 0
    assert "no run has an early window" in capsys.readouterr().out

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    payload = json.loads((out / "calibration.json").read_text(), parse_constant=reject)
    assert payload["validation"] == {"runs": 2, "early_window_mean_r": None}


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
], ids=["cell-not-json", "cell-without-label", "config-not-json", "csv-non-numeric",
        "csv-wrong-header", "csv-header-only", "csv-missing-field", "csv-extra-field",
        "csv-not-utf8"])
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
