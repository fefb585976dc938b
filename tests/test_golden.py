"""Golden traces: the run CSV of small configs, and every file the CLI writes
for a small run, sweep, report and calibration, pinned by SHA-256.

A run is a pure function of (config, runIndex), so these hashes change only
when the model or the order of random draws changes. A change that moves
them on purpose says so in CHANGES.md and records the new hashes here; the
statistical-equivalence test shows that the new stream is distributed as
the old one. ``python tests/test_golden.py`` prints the current ``GOLDEN`` and
``GOLDEN_OUTPUTS``, ready to paste.

Together the configs reach average and exponential pooling, single tests,
delayed results, the post-isolation holdback, zero-length isolation, fast
loss of immunity, vaccination, a run without testing, trajectories that make
every status transition, from the exposure day on, and a population large
enough for the exposure stages to draw a count and then who. The output trees
cover the aggregate CSV, the summary and cell JSONs, both report files, the
rebuilt report and the calibration JSON.
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from episim import cli
from episim.cli import write_run_csv
from episim.core import Constant, ScenarioConfig, Uniform
from episim.engine import run

BASE = dict(popSize=500, timeHorizon=50, initialInfected=15, baseSeed=7)
CONFIGS = {
    "average-5-delay-2": dict(
        daysBetweenTesting=2, firstDayOfTesting=3, poolingType="average", poolSize=5,
        daysDelayTestResults=2, noTestingPostIsolationDays=7,
    ),
    "exponential-10-no-isolation": dict(
        daysBetweenTesting=3, firstDayOfTesting=3, poolingType="exponential",
        poolSize=10, daysDelayTestResults=1, isolationLength=0,
    ),
    "single-fast-reinfection": dict(
        daysBetweenTesting=4, firstDayOfTesting=2, poolSize=1,
        daysDelayTestResults=3, daysTilSusceptible=5,
    ),
    "exponential-4-vaccination": dict(
        daysBetweenTesting=2, firstDayOfTesting=5, poolingType="exponential", poolSize=4,
        daysDelayTestResults=2, initProportionVaccinated=0.2, vaccinesAvailablePerDay=15,
    ),
    "no-testing-vaccination": dict(
        initProportionVaccinated=0.2, vaccinesAvailablePerDay=15, daysTilSusceptible=10,
    ),
    # loads from the exposure day, above or below the cut from the start, peaks
    # below V0 and declines that rise again: in run 1 every status transition,
    # E -> I_s, E -> I_a, E -> R, I_s -> R and I_a -> R, occurs
    "edge-trajectories": dict(
        t0=Constant(0.0), V0=Uniform(1e2, 1e5), VP=Uniform(1e1, 1e5), VF=Uniform(1e2, 1e4),
        tF=Uniform(0.0, 6.0), infectiousViralLoadCut=1e4, selfIsolationOnSymptomsProb=0.3,
        betaDaily=0.8, daysBetweenTesting=4, firstDayOfTesting=3, poolSize=5,
        daysDelayTestResults=1,
    ),
    # above transmission.SPARSE_EXPOSURE_AGENTS: each exposure stage draws a
    # count and then who, and the doses are many among many willing
    "sparse-exposure-vaccination": dict(
        popSize=12_000, timeHorizon=30, initialInfected=100, daysBetweenTesting=3,
        firstDayOfTesting=5, poolSize=4, daysDelayTestResults=1, vaccinesAvailablePerDay=100,
        initProportionVaccinated=0.1,
    ),
}
GOLDEN = {
    "average-5-delay-2": "50631b1f1b2e010c934396e807bf7db1a0a3e3c2031acfeebfe22d4985c92aef",
    "edge-trajectories": "56337b6a32d5c115b21558a75a9bd53b18941aee4f408316303906806c25cf3d",
    "exponential-10-no-isolation": "8620a7317e39aa295a8812539e78054c6eeedc59bc8e27f8cfa64a857a49c4bd",
    "exponential-4-vaccination": "6eaec7bd0d6273f681804ba95a48e7dbc7774acad22a31b3e6e56a282fb792d8",
    "no-testing-vaccination": "1382bdd0a14562759799dd9363cfece45f2eeb41e5def58e42a5fed15ec88ac4",
    "single-fast-reinfection": "287ecd8fc16542324cfa20cc886d1a59083729e0d0439ed2e845e41e93aea5da",
    "sparse-exposure-vaccination": "f25941029188041128bd56b2a0b9111f7c2aebab3dd2678652c02d590085607c",
}


def run_csv_sha256(name, tmp_path):
    _, records = run(ScenarioConfig(**{**BASE, **CONFIGS[name]}), 1)
    path = tmp_path / f"{name}.csv"
    write_run_csv(path, records)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_csv_matches_golden_hash(name, tmp_path):
    assert run_csv_sha256(name, tmp_path) == GOLDEN[name]


# ---------------------------------------------------------------------------
# Output trees: every file the CLI writes, pinned by SHA-256.

RUN_CONFIG = dict(
    popSize=300, timeHorizon=30, initialInfected=10, baseSeed=11,
    daysBetweenTesting=3, firstDayOfTesting=2, poolingType="average", poolSize=4,
    daysDelayTestResults=1, initProportionVaccinated=0.1, vaccinesAvailablePerDay=5,
)
SWEEP_SPEC = {
    "base": dict(popSize=200, timeHorizon=30, initialInfected=8, baseSeed=5,
                 firstDayOfTesting=3, daysDelayTestResults=1, vaccinesAvailablePerDay=4),
    "axes": [
        {"name": "pooling", "values": [
            {"label": "single", "overrides": {"poolSize": 1}},
            # a comma in a label must be quoted in every report
            {"label": "pool 5, exponential",
             "overrides": {"poolingType": "exponential", "poolSize": 5}},
        ]},
        {"name": "daysBetweenTesting", "values": [2, 5]},
    ],
    "replicates": 3,
}
# seeds enough to spread; 25 days end the baseline runs mid-outbreak, so the
# final-size R0 is defined but reads low
CALIBRATE_CONFIG = dict(popSize=1000, timeHorizon=25, initialInfected=30, baseSeed=3)


def tree_sha256(root):
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def write_outputs(root):
    """Run every subcommand into ``root``; returns the SHA-256 of each file."""
    root.mkdir()
    run_config = root.parent / "run_config.json"
    run_config.write_text(json.dumps(RUN_CONFIG))
    spec = root.parent / "sweep.json"
    spec.write_text(json.dumps(SWEEP_SPEC))
    cal_config = root.parent / "calibrate_config.json"
    cal_config.write_text(json.dumps(CALIBRATE_CONFIG))
    commands = [
        ["run", "--config", str(run_config), "--runs", "3", "--jobs", "2",
         "--out", str(root / "run")],
        ["sweep", "--spec", str(spec), "--jobs", "2", "--out", str(root / "sweep")],
        ["report", str(root / "sweep"), "--out", str(root / "report_rebuilt.csv")],
        ["calibrate", "--config", str(cal_config), "--validate", "--runs", "3",
         "--jobs", "2", "--out", str(root / "calibrate")],
    ]
    for argv in commands:
        assert cli.main(argv) == 0, argv
    return tree_sha256(root)


GOLDEN_OUTPUTS = {
    "calibrate/calibration.json": "f08e05eff9322bec5bd6478298506eb410df574044482d9cfeea3cd26b17cd2b",
    "report_rebuilt.csv": "c00235f79247572613d2d0016978863f396378e8fdc0ed3dd717c4f017927648",
    "run/aggregate.csv": "6664041b932ae5de88705b973127aefefdf3572caa00033b33301f4fd2750574",
    "run/config.json": "6f9d1bcc80e733ac09e580183f9876ff48d8443bd9b36bd17e37d5eec5579e80",
    "run/run_000.csv": "ad904150e1cbdbe8303863309d94e8c4732236a1cadcce10993fb4b0ec749914",
    "run/run_001.csv": "afce980b0328e2a0ebcc49282746afd98e3159d9cf78644878451aa51ea18197",
    "run/run_002.csv": "f20174cdbdd8307f8411ce16b57e13b877b8f60ed5e1fc46fb24ba897bcaa0f4",
    "run/summary_000.json": "d3d5fd865be7cde4c3f2eddcefc9310fc94f1de5b2e6c73f192f57fe3b91589a",
    "run/summary_001.json": "24b16dbab676f9576e089ca4c43e8ece8b2d50507a282f90db7c8f61c18d0e43",
    "run/summary_002.json": "c8ad896e9ebacdd3f04eccbc61b32d6f5f966bef8d993d2d34297c3eab59d184",
    "sweep/cell_000/aggregate.csv": "f21f4970501f24b75faf8afb588a139862f625b4e87da061e8c8eb00d1a27bb2",
    "sweep/cell_000/cell.json": "e4fc9bc0b8163e5bed01f31c752cba8b6d3a331d71c37a14594d2c472c15e6f1",
    "sweep/cell_000/config.json": "83d161a9bd78bdd201ace8458063b1f18fc352b10baf05cbee4825390505d6ff",
    "sweep/cell_000/run_000.csv": "fa42647c99eb2d5637e85a66b630204593dac4b0eb6ba502c74bbef29b18512f",
    "sweep/cell_000/run_001.csv": "7cfe2d7f0055e23b76f9dd52e3518a8ed52d289df6070143a25ef109f2dd532b",
    "sweep/cell_000/run_002.csv": "d6ed409ae78de942e1b9b0ea8e409b6b1f5dc9406210656978b9aa0fae5b32be",
    "sweep/cell_000/summary_000.json": "1f59f951d1c0ab613e9ecc52ed84120d58f2d23a5ef43a4ab11c2829d5f84bc5",
    "sweep/cell_000/summary_001.json": "04bf75b220059277eb3a7a5fc486338d8f4f09bc549454a0af01e2d7b80855e5",
    "sweep/cell_000/summary_002.json": "b16e37760a0778f753a4ab4970a44808d17874380aa52d90a4e465cc4791f4e3",
    "sweep/cell_001/aggregate.csv": "06ba4fa761949bc2e4324df2877e803842e82f707b850fc1d7d1af3c18f364cf",
    "sweep/cell_001/cell.json": "d8477b86fe25f311c2911b82262a35775c2de4153caa486fdc03f88a3c4437de",
    "sweep/cell_001/config.json": "40c3344d292c305d7ebc6ab0c59159c72f80631f07a1dab786d35b927d2e6be9",
    "sweep/cell_001/run_000.csv": "7c9a6e429f948ad6405d764453e64b9c12b2fa8bdd2456e9184bf86e21bbe89d",
    "sweep/cell_001/run_001.csv": "dfaff15f684b7b428d900b5d6e2bd27b60e8f6a855573678c4bf026c51dd9001",
    "sweep/cell_001/run_002.csv": "1884cc0dd32489babcb076412539c08d4e5eeb91e05d0d998f38c028b7323452",
    "sweep/cell_001/summary_000.json": "de6dde0a5ba5f48b0e37ee3141cc2d8a9c124c2cba27ec65eb777effa1688af9",
    "sweep/cell_001/summary_001.json": "f18f08a4d8acb8787200ab37d0b88d713c00d3ef29bd339253e2d7c2cd157033",
    "sweep/cell_001/summary_002.json": "a353283c9e081ec166d9eed5e097468531b25f8448f529f762084095c3cf418c",
    "sweep/cell_002/aggregate.csv": "948a2c6fba6e75601fc69304afed9bffbe3208e1fd6bfbe3cf03b98bb9631cf7",
    "sweep/cell_002/cell.json": "25f915ea1d86a8851fc9a98a1939a55a48a074da1e17470e7a1a3d1d1f3876d9",
    "sweep/cell_002/config.json": "7fcfe62738ed39ac4be8a1e7e99f99e2becb928c1788d982389e52a58db6a098",
    "sweep/cell_002/run_000.csv": "8c8aab224d40699769d10ce3bcd6a93a8856406834cdf8ab04f9c3cc5fdbe725",
    "sweep/cell_002/run_001.csv": "acf09cec4b5228279ce1881ac0ef20844c979263b9b5b5be76d97be324ea11f1",
    "sweep/cell_002/run_002.csv": "27bee18b2649d76a5a5ffb22d62089d5e09cee3eb548491ef31e43221db4da72",
    "sweep/cell_002/summary_000.json": "8c5f216532db0318d4da737d12124527a0615d180c6bc6c2e465e8e8ad9929b0",
    "sweep/cell_002/summary_001.json": "3b2a5196e728ab76c3347231d8b869b0f5f0f691763a8351175acc9731e7080b",
    "sweep/cell_002/summary_002.json": "a1b23d82c660f1873eb325cc639857315e497a56f4db90ff4de330e850e4bdb3",
    "sweep/cell_003/aggregate.csv": "7a63f928a7b90b19e5af474f9b84637d7b263b9ade1c666366efc4909edad0cd",
    "sweep/cell_003/cell.json": "c78a2d0f996c5fbbca206935103769fac1499e9a635c8e00646fbf954dcd761b",
    "sweep/cell_003/config.json": "d946ddce9453a5492ddb3fca6f31f34e7c775f7fa3a4e5f0d796c1ccd078b0c1",
    "sweep/cell_003/run_000.csv": "9870b3e124b5c80df313f583849e371d13e2adbeaee885f1319bbf90d593e794",
    "sweep/cell_003/run_001.csv": "06d352a0493950b4e7a502bdb213162c91df634bdb9796e2a317e0ee4c317d81",
    "sweep/cell_003/run_002.csv": "45a042ad794932dfc56e43d501fd4e359fc0f3a5b4cda29150e1c624b22b26f8",
    "sweep/cell_003/summary_000.json": "639a0c0c71a8ebc427265e49cf327d3377c890408c443d83a8114356d35cc163",
    "sweep/cell_003/summary_001.json": "0e3e14968bc5de7b732d96854da6fa606e40d4d0ae9f5cac8431be1d398f1355",
    "sweep/cell_003/summary_002.json": "fb89d901293fa0e5d6e6028846ce4d52eec7c1c0d20f31e86fd1baa180e030d3",
    "sweep/report.csv": "c00235f79247572613d2d0016978863f396378e8fdc0ed3dd717c4f017927648",
    "sweep/report.json": "2f75601051061dd2e2eecbf543584840db1b132925c3e357a39daccf0a3306f4",
}


def test_output_files_match_golden_hashes(tmp_path):
    assert write_outputs(tmp_path / "out") == GOLDEN_OUTPUTS


def test_sweep_writes_identical_files_for_any_job_count(tmp_path):
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps(SWEEP_SPEC))
    trees = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs_{jobs}"
        assert cli.main(["sweep", "--spec", str(spec), "--jobs", str(jobs),
                         "--out", str(out)]) == 0
        trees.append(tree_sha256(out))
    assert trees[0] == trees[1]
    assert len(trees[0]) == 4 * 9 + 2


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        tables = {"GOLDEN": {name: run_csv_sha256(name, Path(tmp)) for name in sorted(CONFIGS)},
                  "GOLDEN_OUTPUTS": write_outputs(Path(tmp) / "out")}
    for table, digests in tables.items():
        print(f"{table} = {{")
        for key, digest in digests.items():
            print(f'    "{key}": "{digest}",')
        print("}")
