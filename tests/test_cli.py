"""Command-line error reporting: user input never ends in a traceback."""

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


def test_simulation_error_is_reported_without_traceback(tmp_path, capsys, monkeypatch):
    def failing_run(*args, **kwargs):
        raise SimulationError("conservation violated on day 3: 99 != 100")

    monkeypatch.setattr(cli, "run_replicates", failing_run)
    status = cli.main(["run", "--out", str(tmp_path / "out"), "--jobs", "1"])
    err = capsys.readouterr().err
    assert status == 1
    assert err == "error: conservation violated on day 3: 99 != 100\n"
