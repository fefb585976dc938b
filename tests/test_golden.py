"""Golden traces: the run CSV of small configs, and every file the CLI writes
for a small run, sweep, report and calibration, pinned by SHA-256.

A run is a pure function of (config, runIndex), so these hashes change only
when the model or the order of random draws changes. A change that moves
them on purpose says so in CHANGES.md and records the new hashes here; the
statistical-equivalence test shows that the new stream is distributed as
the old one.

Together the configs reach average and exponential pooling, single tests,
delayed results, the post-isolation holdback, zero-length isolation, fast
loss of immunity, vaccination, a run without testing, and trajectories that
make every status transition, from the exposure day on. The output trees
cover the aggregate CSV, the summary and cell JSONs, both report files, the
rebuilt report and the R_t series.
"""

import hashlib
import json

import pytest

from episim import cli
from episim.cli import write_run_csv
from episim.core import Constant, Uniform, default_config
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
}
GOLDEN = {
    "average-5-delay-2": "cfecf1c1ae997d6f3d04102cc8d1dfc395a2d41646c13b23fa81753b97abcc58",
    "edge-trajectories": "b9fcd9f58c2db2298a1721dfe5cb44fa66eb0bfca50cf4defc739bffaef64378",
    "exponential-10-no-isolation": "2f194a417e25dd0460436703e4e5bd54ad097da8860220b1941695e699424c93",
    "exponential-4-vaccination": "85d5bb08c5cde5a3c4d8b3b19ff9234258b5f2683472485d09190074183f685d",
    "no-testing-vaccination": "ebe9d8f29c7ce310d85a94168ed0ad51b3b91a62426de8565e8ef3e69309ad9f",
    "single-fast-reinfection": "d137a092213f7bb917b9930aa595f0b92c61b19bc70a2217778b13d28d165c2c",
}


def run_csv_sha256(name, tmp_path):
    _, records = run(default_config(**BASE, **CONFIGS[name]), 1)
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
# large enough for an early window: 20 or more infectious while S_u > 90%
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
    "calibrate/calibration.json": "daec938069cd9036b5d2ca5fe9450958c723c289aab8ebb29c2399b4e06f40dc",
    "calibrate/rt_series.csv": "e942002b843aff0a2fa0847c1857e7d33e4a0bfa99c8ff1c51a1038ac77956bf",
    "report_rebuilt.csv": "6d16b2b3459656f8b265b0207227bb3832889504c84878e5d7840178166065c1",
    "run/aggregate.csv": "e38711b24bf999c92b70ffbe514ea20668c9d5f121920dba0a3eff8c44586517",
    "run/config.json": "6f9d1bcc80e733ac09e580183f9876ff48d8443bd9b36bd17e37d5eec5579e80",
    "run/run_000.csv": "5ae74e910a00c5e3f549f49ce9772993bcf55e443e39b913f6eab14ea923935f",
    "run/run_001.csv": "e005477f275fc62a8990f53fd7d09f2111cc16ddc453395484d345fe1f39f69d",
    "run/run_002.csv": "a7adab670d444a440c86d12486fe01cf64055fec4a8993478e9fe0d5b16a78f9",
    "run/summary_000.json": "69b6d30a922f59b2d244ecde985e2b5e15e675d2f385464fd78f4161768a1ed9",
    "run/summary_001.json": "1d2bcd3a2ca2ee008638a6acbd54c93da0d609b92bbcfb0e1d8a94c83b48486d",
    "run/summary_002.json": "cc1b4c70e2c060dd8a7b3716bef23cd1150d09f4c44209446fa400256e5ee5bb",
    "sweep/cell_000/aggregate.csv": "629924ad807b4dda0f1ffcc9ec6e58672116c29a986697a87f1bc0159050eb43",
    "sweep/cell_000/cell.json": "e4fc9bc0b8163e5bed01f31c752cba8b6d3a331d71c37a14594d2c472c15e6f1",
    "sweep/cell_000/config.json": "83d161a9bd78bdd201ace8458063b1f18fc352b10baf05cbee4825390505d6ff",
    "sweep/cell_000/run_000.csv": "458adc12e7a66cf9280230d6e7889144a997feda0237972d41624c7118f2e627",
    "sweep/cell_000/run_001.csv": "a65ac99a83c921b334098e7af0e95b7d08470e1f3e8f12b08dced65ccdd038ce",
    "sweep/cell_000/run_002.csv": "d1b1bfff440c3ad122c925b404d5dc48ae05825a02fa51ae18fd8da5afe2c763",
    "sweep/cell_000/summary_000.json": "b033f33714c86e68140929336a76bda9eee275cf98c5e9d690191c8e0983c7f8",
    "sweep/cell_000/summary_001.json": "5930b91b53e7077bb72a8ee5a05b41b80a7fb479b661cebc80436bb9ac7e00bf",
    "sweep/cell_000/summary_002.json": "442bc9c2a09249b85e05b670fc2c3cef3b9f1889f5263c10ab69e5f2ceea11f5",
    "sweep/cell_001/aggregate.csv": "439ede4453ac80161b3434d8ffe6153d2efbfc01c8df36a656b5648e293e3a96",
    "sweep/cell_001/cell.json": "d8477b86fe25f311c2911b82262a35775c2de4153caa486fdc03f88a3c4437de",
    "sweep/cell_001/config.json": "40c3344d292c305d7ebc6ab0c59159c72f80631f07a1dab786d35b927d2e6be9",
    "sweep/cell_001/run_000.csv": "c9f62578b0532df444e2d91fc25c3b695dddd3d0ff61561690f2c276004e65e0",
    "sweep/cell_001/run_001.csv": "052c942db97eec3236388edb25522da43ecc81ccb76423e851dd451cd86d75b0",
    "sweep/cell_001/run_002.csv": "164f430bf0ed2f4de34166277f066361a9dd412ccd247f6e404edab823c6b429",
    "sweep/cell_001/summary_000.json": "540d51b8c6e37e1a92504ff1eb22b24bfd4f4b9107f3e0b956b59451d38d8fd4",
    "sweep/cell_001/summary_001.json": "8cb7ac3bb9bb7c53df502ad3618196aaa0e27c11a236f59adbc5c9dbc000f2d3",
    "sweep/cell_001/summary_002.json": "34f4c8a3f332d66d5b8f82e41ffc5fad62035b19370b051fc31762d2bbbdd67b",
    "sweep/cell_002/aggregate.csv": "54cc0e6edd0fc5e24063c1a8173bbe5fa5098f3babe6edf6464a470ada631fda",
    "sweep/cell_002/cell.json": "25f915ea1d86a8851fc9a98a1939a55a48a074da1e17470e7a1a3d1d1f3876d9",
    "sweep/cell_002/config.json": "7fcfe62738ed39ac4be8a1e7e99f99e2becb928c1788d982389e52a58db6a098",
    "sweep/cell_002/run_000.csv": "7b44c6f47c555aa585944d32e9c371e1adfe68a465d662cd0146c0d1c49cd462",
    "sweep/cell_002/run_001.csv": "d5dcd3031e041d6bfe40942fdaa3103ab5f15a67961638826fb6eb490a4e95cf",
    "sweep/cell_002/run_002.csv": "f4eb5e39025392899754d686e6ce78c296105417d40a8a73023fea049ca84aef",
    "sweep/cell_002/summary_000.json": "c0d385480faadf2d9b81ee4ea655a72634364a4a5605b170bd3d5e5ce3dbe187",
    "sweep/cell_002/summary_001.json": "a6f925f038b2d3ec1669f215e02598803f47be04673ef9491fd438e44fabe93e",
    "sweep/cell_002/summary_002.json": "6b70c6f3d72a6e5599b39d3944ce692ce2c02c963b4f6997e2a1b927d1ec50a4",
    "sweep/cell_003/aggregate.csv": "f9ccf4ab1f41b9dd22d8fb0b2f789e1f6eb721e4cbdc80654eaf1f58672eeecd",
    "sweep/cell_003/cell.json": "c78a2d0f996c5fbbca206935103769fac1499e9a635c8e00646fbf954dcd761b",
    "sweep/cell_003/config.json": "d946ddce9453a5492ddb3fca6f31f34e7c775f7fa3a4e5f0d796c1ccd078b0c1",
    "sweep/cell_003/run_000.csv": "4a1b119d776e51ee204de4ad62f374a5e8863d75a8cd70e448e1845b44477003",
    "sweep/cell_003/run_001.csv": "df3c4f5faae6434496ef71b5ea859ca7a663c4f0481ba41245ae752f2f73cb91",
    "sweep/cell_003/run_002.csv": "822d9e29a6b886a7c8788d7a4162e459b7d609adff49f282338e61a7c9887674",
    "sweep/cell_003/summary_000.json": "98f0782985ace069dcc2d9b1c236942a55f655ec72140658e8e0302b5126030a",
    "sweep/cell_003/summary_001.json": "3578864b4435b8603eb43f4896d7bfcfa87088f0c6d445855baf034c9de2a178",
    "sweep/cell_003/summary_002.json": "f20b144e8a6cf8b5f66726b3115e6949c6769e4d76d19b134de77acb5016e4b8",
    "sweep/report.csv": "6d16b2b3459656f8b265b0207227bb3832889504c84878e5d7840178166065c1",
    "sweep/report.json": "cd03399280ccf2b85f3413e2a77e4a21d88087e27d186a446b42eaf5622527e0",
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
