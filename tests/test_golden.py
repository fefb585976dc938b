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
every status transition, from the exposure day on, and populations large
enough for the exposure stages to draw a count and then who, one of them
with every move between compartments. The output trees cover the aggregate
CSV, the summary and cell JSONs, both report files, the rebuilt report and
the calibration JSON.
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
    # above the size rule too, with every move between compartments: loss of
    # immunity, releases into the post-isolation holdback, self-isolation,
    # isolation on a result delivered two days after its test, and vaccination
    "sparse-waning-holdback": dict(
        popSize=10_000, initialInfected=100, daysTilSusceptible=5, isolationLength=5,
        daysBetweenTesting=2, firstDayOfTesting=3, poolSize=4, daysDelayTestResults=2,
        noTestingPostIsolationDays=7, initProportionVaccinated=0.1, vaccinesAvailablePerDay=100,
    ),
}
GOLDEN = {
    "average-5-delay-2": "0a691fc4e7d8186cb1c4feec866a710c93648253c18290ba9595e85745d67047",
    "edge-trajectories": "ac42afcb1eea5d5085d3f2f79addc6aff7532fd4a043530a80efbce32d4c24d2",
    "exponential-10-no-isolation": "f3f576a45dafe208696b14798c194050a8d89659970ca7787ff203a2e34fed8c",
    "exponential-4-vaccination": "f60909f98142bf728a342f86d457c219680e21c159d020fff19137f43595870d",
    "no-testing-vaccination": "1382bdd0a14562759799dd9363cfece45f2eeb41e5def58e42a5fed15ec88ac4",
    "single-fast-reinfection": "d9a4fdd9b43af2675bf21c95eb5bd9f240871b32d83b96d965156d43929024a1",
    "sparse-exposure-vaccination": "f25941029188041128bd56b2a0b9111f7c2aebab3dd2678652c02d590085607c",
    "sparse-waning-holdback": "1932b9f640a58e835b41b114e4ff467ae6aa2313a8425db16e1ce23c2b7348ea",
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
    "report_rebuilt.csv": "13918f877b7662bcea1a70807d11097758d3f80a2c341caee9eafca9e1277dd2",
    "run/aggregate.csv": "093a9b90873281b6b28481433c760bc64dce5fcb119c39a8fd96eb96cbc2b03c",
    "run/config.json": "6f9d1bcc80e733ac09e580183f9876ff48d8443bd9b36bd17e37d5eec5579e80",
    "run/run_000.csv": "7f85cc8e54969c5cd4eca59a59a606dd79c9040bb16f459e7607a917ccb88aff",
    "run/run_001.csv": "79c8cfd40b6a12ee408c63e445ad04fb9a133b12656a3bc96c51e0085d68f6a9",
    "run/run_002.csv": "be577e5b3b45566c22d62cf0433b3af4d6ef67f3d61852e155a0cf7ea852c945",
    "run/summary_000.json": "c21f003b681bc454b1298910710979dffddc92988031c93f972786abed968c16",
    "run/summary_001.json": "64204b2717d977b5afd2645129eb46a4352d7f516439cf0576cc33d351c7f393",
    "run/summary_002.json": "e28a7be711dd36300a718ed578d10ce915f18dfbe1427fc7450a5db51c92ff6c",
    "sweep/cell_000/aggregate.csv": "2dc07051232c5895d4b92350b4d85c0092443374c078890f6f8c846770e9f289",
    "sweep/cell_000/cell.json": "e4fc9bc0b8163e5bed01f31c752cba8b6d3a331d71c37a14594d2c472c15e6f1",
    "sweep/cell_000/config.json": "83d161a9bd78bdd201ace8458063b1f18fc352b10baf05cbee4825390505d6ff",
    "sweep/cell_000/run_000.csv": "1457edff012acce849a44b3c885f00c11e2c86b208911903f4e3349670fea64b",
    "sweep/cell_000/run_001.csv": "d36a60007b7bac773b659c89f208fd5b1eeaacdde39d69fe3b4215fcdcc843db",
    "sweep/cell_000/run_002.csv": "55355f90b4129de74e925bdd20a67ed89204c4dd42831a3f607c8d59722a5874",
    "sweep/cell_000/summary_000.json": "fb9f04de7b904adf7fdcd7e3dc09436f1d9aec11f3bb2b900a5725958d3e0990",
    "sweep/cell_000/summary_001.json": "e3ea975d5d358ec035560fae01000c9c1f66131477bf70d2905869f2c22acb16",
    "sweep/cell_000/summary_002.json": "a40819c0b1feb61b60b5e5af03ca4ff91be59921f730cd622f1ba0a433b204f0",
    "sweep/cell_001/aggregate.csv": "b011e71f740390ff4251fce268499a14803d04be77a1320fb61c26e348294236",
    "sweep/cell_001/cell.json": "d8477b86fe25f311c2911b82262a35775c2de4153caa486fdc03f88a3c4437de",
    "sweep/cell_001/config.json": "40c3344d292c305d7ebc6ab0c59159c72f80631f07a1dab786d35b927d2e6be9",
    "sweep/cell_001/run_000.csv": "e24e9553148f8e5497e06a368526393c9df79db13f92726d6beb69c55c76f38c",
    "sweep/cell_001/run_001.csv": "3fa2e56c015bbaec590919f3e16044a03db593c28b85e49bd82a0731303f9f8d",
    "sweep/cell_001/run_002.csv": "99b80f37194232b8440eb68b688fe33ea497c9269e997c5d4c6b85079bf58213",
    "sweep/cell_001/summary_000.json": "046799e0b50efe4cddf530ecc99d35d92b0da6ece0d7609b0cc075003cdc80a7",
    "sweep/cell_001/summary_001.json": "b0176cde40a39423f283daff028861c21676798c1f042ed2b379361abdb3b38c",
    "sweep/cell_001/summary_002.json": "57e990efe13c6b386ce7f0cd03a0202d607178597bfb64dabb12e6561acfbce5",
    "sweep/cell_002/aggregate.csv": "db46fbb02257980e08109517fb9cf653d1d3f312e7a999d91828330758dc8ba5",
    "sweep/cell_002/cell.json": "25f915ea1d86a8851fc9a98a1939a55a48a074da1e17470e7a1a3d1d1f3876d9",
    "sweep/cell_002/config.json": "7fcfe62738ed39ac4be8a1e7e99f99e2becb928c1788d982389e52a58db6a098",
    "sweep/cell_002/run_000.csv": "9ebe3c70eebb28a7802eaecac4d28a8f952b1634cadea6e763233df14b83f5a9",
    "sweep/cell_002/run_001.csv": "449e59896a83b465209764853ad31c7f445a43113b0c06c83588f63751413ca0",
    "sweep/cell_002/run_002.csv": "370709a6e07e35542d1aeb6f2726793563f764c844b64ca156775721d3e37286",
    "sweep/cell_002/summary_000.json": "d17712ef9d12baaca3442c9bb900dbc08a99779a29d008e064c67f4c848b4846",
    "sweep/cell_002/summary_001.json": "dfecb738accfd54001da2369ede57a02a9332f978fcf726b40839c018c0d0ee2",
    "sweep/cell_002/summary_002.json": "086b59eb3b28673daffb145335eddec5713c5cd6b84d5edfb824a7a252cdd2b0",
    "sweep/cell_003/aggregate.csv": "c3cbc2e3363d6fd89f030f0ace696f7d48846466eed0548ab2ae69345de600ba",
    "sweep/cell_003/cell.json": "c78a2d0f996c5fbbca206935103769fac1499e9a635c8e00646fbf954dcd761b",
    "sweep/cell_003/config.json": "d946ddce9453a5492ddb3fca6f31f34e7c775f7fa3a4e5f0d796c1ccd078b0c1",
    "sweep/cell_003/run_000.csv": "2556ef9feff13702ba3aecdd23034395c9e1542d266b397621cb9bee503731cb",
    "sweep/cell_003/run_001.csv": "feb857403516869ef9f27e613ad4f409fc6c629f694519db25b2a1d149586b2d",
    "sweep/cell_003/run_002.csv": "8ebbb4e12b1f42e0a2ee4916dc01a242392ece32c60d9cf6e6c894691e80c65a",
    "sweep/cell_003/summary_000.json": "e498e8739cd672561395b3077f01b20341cecdc5d2cdda43de3382a9c1a3fee4",
    "sweep/cell_003/summary_001.json": "7ef9a660b35ef5cd261f28bb6573ebcb5cca4c158e60005716998c6418410fb6",
    "sweep/cell_003/summary_002.json": "fdeedcfbd2545c40ac35c637daca9696f199580a373de9adb6634358a2c0b6c5",
    "sweep/report.csv": "13918f877b7662bcea1a70807d11097758d3f80a2c341caee9eafca9e1277dd2",
    "sweep/report.json": "6c3a5ada9796bf0008b7802fb8c45d748aa6ab29a73ff0cdf82e848e7c0ad45e",
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
