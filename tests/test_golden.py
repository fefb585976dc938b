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
loss of immunity, vaccination, a run without testing, and trajectories that
make every status transition, from the exposure day on. The output trees
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
}
GOLDEN = {
    "average-5-delay-2": "50631b1f1b2e010c934396e807bf7db1a0a3e3c2031acfeebfe22d4985c92aef",
    "edge-trajectories": "56337b6a32d5c115b21558a75a9bd53b18941aee4f408316303906806c25cf3d",
    "exponential-10-no-isolation": "8620a7317e39aa295a8812539e78054c6eeedc59bc8e27f8cfa64a857a49c4bd",
    "exponential-4-vaccination": "0c17acc7d1a56dabb05acf13149c673f2f31b7b94377255b2b0059e7f0089f5b",
    "no-testing-vaccination": "4f368e72337e793c059065eb364b54be1bdf81400888ac61189734cf04f2eb3f",
    "single-fast-reinfection": "287ecd8fc16542324cfa20cc886d1a59083729e0d0439ed2e845e41e93aea5da",
}


def run_csv_sha256(name, tmp_path):
    _, records = run(ScenarioConfig(**BASE, **CONFIGS[name]), 1)
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
    "report_rebuilt.csv": "eff2e71dc943e514010cbfde399911c0b60d9e6e00dff45e9fd6cf37ee7b51e9",
    "run/aggregate.csv": "c44cb2cda0c72b3bc84947fcbc73097e43be755d104aac0db1326be6c0947ef5",
    "run/config.json": "6f9d1bcc80e733ac09e580183f9876ff48d8443bd9b36bd17e37d5eec5579e80",
    "run/run_000.csv": "91b8c7d89eef016b28c17265955d22948cfd7953b2a76548261fe7605dd266ef",
    "run/run_001.csv": "d17e3a15597aee5c113f4a85829cbf13cc6a01b7a95901a475239c108bef24c3",
    "run/run_002.csv": "26a6ab6ee4127f8aed107f4076f4193482eaa35b494c09baa0c16789a68f7c72",
    "run/summary_000.json": "645535d240d6aaf3e9477ae26099a4cf338bddaf09f2870fbf9fbfa10fd7c678",
    "run/summary_001.json": "5e0830970d811032bb0e7abf2a27c60920204b062cdcdbb7d0ca14bac8a8af2d",
    "run/summary_002.json": "bebb9f0792125fae724ff0ca776c0455fbcbae34954fd5ad24653319acf9180c",
    "sweep/cell_000/aggregate.csv": "2f9b35164f5712f22f6117f929db0900568169f76e6f07356d28859bd7da5ddb",
    "sweep/cell_000/cell.json": "e4fc9bc0b8163e5bed01f31c752cba8b6d3a331d71c37a14594d2c472c15e6f1",
    "sweep/cell_000/config.json": "83d161a9bd78bdd201ace8458063b1f18fc352b10baf05cbee4825390505d6ff",
    "sweep/cell_000/run_000.csv": "bb99a47c788317c52950beea178b68090da3a33f0bc590509650ddb306526db9",
    "sweep/cell_000/run_001.csv": "e070721e841efe21ac618805660b35c95a8268e6c2fd3e339efc81829b5fcb40",
    "sweep/cell_000/run_002.csv": "e5fa3475e62b7d2f8b3e2ae43051c1e0da7b457f512293fc97c79b60a190e8af",
    "sweep/cell_000/summary_000.json": "e0a7a090606e4512a7c0742a1de5034f3b3bd3504b9f0c50a20ebcced69c2703",
    "sweep/cell_000/summary_001.json": "a9891bc807e94e8bf1a7945fbb9d0f006b04706751647f840ff949e04e5322c8",
    "sweep/cell_000/summary_002.json": "45277f3efc0c19b37fd787668c286e9d9bbd244a3dc709a6dde0fbfdf84caaac",
    "sweep/cell_001/aggregate.csv": "6c0ebbfb11a9aca7aa6e979731ed1daa02e94399c5ad4f6938de45a140e1c512",
    "sweep/cell_001/cell.json": "d8477b86fe25f311c2911b82262a35775c2de4153caa486fdc03f88a3c4437de",
    "sweep/cell_001/config.json": "40c3344d292c305d7ebc6ab0c59159c72f80631f07a1dab786d35b927d2e6be9",
    "sweep/cell_001/run_000.csv": "ff6564fddc5dd78fa3b6b11a30bf15f79a6938c5c0632d4a2226b2364380aa1d",
    "sweep/cell_001/run_001.csv": "605410f3fd9480b5e3e66e63d34225c0427d664029ed82b29e53fc3d11c75fe6",
    "sweep/cell_001/run_002.csv": "a78d24c329ad384feb87149bb81e04fb93b7eead17ae939d0871f3d17a01c015",
    "sweep/cell_001/summary_000.json": "8a4061124863e61b1bc2ce604eb61c5e33e76436478a718ab3339fa5fbc5d1f7",
    "sweep/cell_001/summary_001.json": "c54102e54ff3ccdcbfe4a6a7e7b5dfb8140f3ed8ca2a67035409d3694a92bed2",
    "sweep/cell_001/summary_002.json": "5b5be2b56321fd2481312ec22d56bf905b90b9511d97a0ca9b428e55787cde62",
    "sweep/cell_002/aggregate.csv": "510d89911778af337a3051ad2ffaa71caefb9de54eaef3ec658c4ce202bd94e4",
    "sweep/cell_002/cell.json": "25f915ea1d86a8851fc9a98a1939a55a48a074da1e17470e7a1a3d1d1f3876d9",
    "sweep/cell_002/config.json": "7fcfe62738ed39ac4be8a1e7e99f99e2becb928c1788d982389e52a58db6a098",
    "sweep/cell_002/run_000.csv": "1c847264d3a4fea0b6765355900be0a15afa9e7a60dc7c1216d2a3d5f6afb2d2",
    "sweep/cell_002/run_001.csv": "ef3c72446d9bb23cc0fe04fb40f85cf1954367798cc876b25742128f9a276609",
    "sweep/cell_002/run_002.csv": "c07276863a74e174be6c291339bdd21c516e4aaeaac68ae2386d084dbf91dab5",
    "sweep/cell_002/summary_000.json": "4301cc61d2ca41af7c381d4c491d1d0bc4f1685b9597ec793605f94e43666b1d",
    "sweep/cell_002/summary_001.json": "dcd5d0ae64cf8868a76e43d0ea6ba32a64fc339e7b14a29ac9412791ae0bd74e",
    "sweep/cell_002/summary_002.json": "8203dffc9cf49a29f7b939aa59b5ce9b3cf5ee292b637c93b37cc8587685020c",
    "sweep/cell_003/aggregate.csv": "630a214c36e50804c47208ec3eb487efe30c11347f17c8c9760e97f036964ce5",
    "sweep/cell_003/cell.json": "c78a2d0f996c5fbbca206935103769fac1499e9a635c8e00646fbf954dcd761b",
    "sweep/cell_003/config.json": "d946ddce9453a5492ddb3fca6f31f34e7c775f7fa3a4e5f0d796c1ccd078b0c1",
    "sweep/cell_003/run_000.csv": "5a907913781d3b294c21f19f3298bc9c193b1d932a4b1994e9fbde1ac14ce7bf",
    "sweep/cell_003/run_001.csv": "16748353da2f9fb7cffa7e2d85462d26bcca21ab4772bc9078ecf0bce734f100",
    "sweep/cell_003/run_002.csv": "564bd1a3f500f0ca6c702b81baf004bec105977aca7878da1026963ba90462df",
    "sweep/cell_003/summary_000.json": "daf10ae1e597aaff47451d43802501728cad88da433289926b811799d92d3000",
    "sweep/cell_003/summary_001.json": "550e90391646963860435544787e17371a335e2aa15282e64e3fa07308df5350",
    "sweep/cell_003/summary_002.json": "928e9f788c0033b749fa11d0c8c6ad9f38b46196068940ca3e2cdeb4e0b4993c",
    "sweep/report.csv": "eff2e71dc943e514010cbfde399911c0b60d9e6e00dff45e9fd6cf37ee7b51e9",
    "sweep/report.json": "5ad9b61456d7209a9b8c6f1c939fd2ec4f223fba1fdd62142818a5066ba902f2",
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
