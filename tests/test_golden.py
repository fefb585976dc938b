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
    "average-5-delay-2": "fb90ef1d066fbe845171fe4c10c22d883e7e0b2e9b4014581f1cfd97e04ef5cd",
    "edge-trajectories": "e3d985d5e1e241829057da46a98de04a3e372d171c9ed7cf3337b5ff43f104ba",
    "exponential-10-no-isolation": "6619c5d1f39e7b12649a5b699fbf2c7200713b1a955235353dccb53f2dd32639",
    "exponential-4-vaccination": "b93848ee461e7b2e57dd6dd82530a50ff42b6b682cfa5dbd0ced32ffffdf4100",
    "no-testing-vaccination": "4f368e72337e793c059065eb364b54be1bdf81400888ac61189734cf04f2eb3f",
    "single-fast-reinfection": "4b1c93936946a119850e1b045f98b94af644324092595376f178fdfd2f500c02",
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
    "calibrate/calibration.json": "bb27945082bbc45647422735e95f83779f85499c6d939cc1134a204edec21632",
    "calibrate/rt_series.csv": "588a00fc2762027472fa07d149816fbf76a8cc6fb82045f32281f28b44aba7e0",
    "report_rebuilt.csv": "be524062640c409ea77ebac195886c6d907712c521c52a51a3127d5e82b9db6e",
    "run/aggregate.csv": "5641bb7a8d6054f2f7f6159e14b999ba3bbc593c485373e126f8de3d02c4f464",
    "run/config.json": "6f9d1bcc80e733ac09e580183f9876ff48d8443bd9b36bd17e37d5eec5579e80",
    "run/run_000.csv": "db8b1ac59d3f8da1708730adc981d37c75c68c96bdddec559aa10121e5a941ba",
    "run/run_001.csv": "f4ad9542d0787d23abc74319b79ca61f35a5e872162c976ae756bb7a00489506",
    "run/run_002.csv": "d2ac7d50339591c803edfe53b5e1c0bf3a5c064d0688aa6921bf34097250d7f2",
    "run/summary_000.json": "17b8e7f5cec77c2dd6fea47e1656452fe20bac2791cbae6482be46339a8c3ff1",
    "run/summary_001.json": "521a09cd2fe78abe9e237b9236a504cdb7eb803e38fafdb5184306c677a7fffc",
    "run/summary_002.json": "7a848069005bcec963b4122b91bc1db174921e9503a2086fb0fc3936fb437d59",
    "sweep/cell_000/aggregate.csv": "95d7e56b017c3dce4efe7763372a71dbee0e20ac1adbcbef38a8806be54fe8ee",
    "sweep/cell_000/cell.json": "e4fc9bc0b8163e5bed01f31c752cba8b6d3a331d71c37a14594d2c472c15e6f1",
    "sweep/cell_000/config.json": "83d161a9bd78bdd201ace8458063b1f18fc352b10baf05cbee4825390505d6ff",
    "sweep/cell_000/run_000.csv": "ca281a15358e45ccc2270bc5ed761d3e75a6a7201ce793d1f1fa4473f7b918d3",
    "sweep/cell_000/run_001.csv": "e070721e841efe21ac618805660b35c95a8268e6c2fd3e339efc81829b5fcb40",
    "sweep/cell_000/run_002.csv": "cd33a63bf2d7263542483cac27177d243ec1214b35966db030bdbdf53a7c4bcd",
    "sweep/cell_000/summary_000.json": "389d1232ca3c13e29e23997de5cc9013b597b2834c2d3485b27d35218675b101",
    "sweep/cell_000/summary_001.json": "a9891bc807e94e8bf1a7945fbb9d0f006b04706751647f840ff949e04e5322c8",
    "sweep/cell_000/summary_002.json": "2e8e9feb4044d5b1497f023261cb44f7de04401f052ba413284267afebc958bf",
    "sweep/cell_001/aggregate.csv": "d0f9d1074a6c7056ac8ab386d11038f0bb2dae38df0223ca1ef35f1fc1947883",
    "sweep/cell_001/cell.json": "d8477b86fe25f311c2911b82262a35775c2de4153caa486fdc03f88a3c4437de",
    "sweep/cell_001/config.json": "40c3344d292c305d7ebc6ab0c59159c72f80631f07a1dab786d35b927d2e6be9",
    "sweep/cell_001/run_000.csv": "ff6564fddc5dd78fa3b6b11a30bf15f79a6938c5c0632d4a2226b2364380aa1d",
    "sweep/cell_001/run_001.csv": "98c34a28a3abce85b0a665b80248ef2f15ffe8856f4b23e7bcefd0e17cf7ef05",
    "sweep/cell_001/run_002.csv": "a78d24c329ad384feb87149bb81e04fb93b7eead17ae939d0871f3d17a01c015",
    "sweep/cell_001/summary_000.json": "8a4061124863e61b1bc2ce604eb61c5e33e76436478a718ab3339fa5fbc5d1f7",
    "sweep/cell_001/summary_001.json": "c54102e54ff3ccdcbfe4a6a7e7b5dfb8140f3ed8ca2a67035409d3694a92bed2",
    "sweep/cell_001/summary_002.json": "5b5be2b56321fd2481312ec22d56bf905b90b9511d97a0ca9b428e55787cde62",
    "sweep/cell_002/aggregate.csv": "6267a51ee15e7096b53176db46dd0ef9e1e5c8e866aff4b3b24bff8fd9f083a2",
    "sweep/cell_002/cell.json": "25f915ea1d86a8851fc9a98a1939a55a48a074da1e17470e7a1a3d1d1f3876d9",
    "sweep/cell_002/config.json": "7fcfe62738ed39ac4be8a1e7e99f99e2becb928c1788d982389e52a58db6a098",
    "sweep/cell_002/run_000.csv": "8c54f266997ad55e43d7cd3713daa5fd0821cd427c9b83b3cc5e937e683ed504",
    "sweep/cell_002/run_001.csv": "dcdfcbf1ac203562c14bfecdd49e7da4404bdad119472a41309db390ffdbcdf0",
    "sweep/cell_002/run_002.csv": "94c6bad11768637d7d056bc66197aebc62ce2cfeaa92ba45d3c0f90911ebc268",
    "sweep/cell_002/summary_000.json": "5e9e639e3dca07c712c2c614549697f299d7d2a7bc34883ec0ad5535b5d59630",
    "sweep/cell_002/summary_001.json": "dcd5d0ae64cf8868a76e43d0ea6ba32a64fc339e7b14a29ac9412791ae0bd74e",
    "sweep/cell_002/summary_002.json": "9e6652fcda51e373fe97ee8d1c237957b7461467795e50b51f1dfeaa9b6ef805",
    "sweep/cell_003/aggregate.csv": "c24b5df7eaea5875184b6e277d12dd4ccd8f5592d5b7d4bab4654b5b4203e2d7",
    "sweep/cell_003/cell.json": "c78a2d0f996c5fbbca206935103769fac1499e9a635c8e00646fbf954dcd761b",
    "sweep/cell_003/config.json": "d946ddce9453a5492ddb3fca6f31f34e7c775f7fa3a4e5f0d796c1ccd078b0c1",
    "sweep/cell_003/run_000.csv": "7b1258db2fc3f0c5a7e71cca6196ccafa47427b562832414139e78b59b693319",
    "sweep/cell_003/run_001.csv": "16748353da2f9fb7cffa7e2d85462d26bcca21ab4772bc9078ecf0bce734f100",
    "sweep/cell_003/run_002.csv": "564bd1a3f500f0ca6c702b81baf004bec105977aca7878da1026963ba90462df",
    "sweep/cell_003/summary_000.json": "da20d7c3d5232fd4470d7ed812d45dd878f6be80908164bdb71768bb620c56db",
    "sweep/cell_003/summary_001.json": "550e90391646963860435544787e17371a335e2aa15282e64e3fa07308df5350",
    "sweep/cell_003/summary_002.json": "928e9f788c0033b749fa11d0c8c6ad9f38b46196068940ca3e2cdeb4e0b4993c",
    "sweep/report.csv": "be524062640c409ea77ebac195886c6d907712c521c52a51a3127d5e82b9db6e",
    "sweep/report.json": "d889058e789e963072b88fc9d4ba4100651e7a3ba00ecb8c2df7d5c06a752741",
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
