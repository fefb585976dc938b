"""Golden traces: the run CSV of small configs, pinned by SHA-256.

A run is a pure function of (config, runIndex), so these hashes change only
when the model or the order of random draws changes. A change that moves
them on purpose says so in CHANGES.md and records the new hashes here; the
statistical-equivalence test shows that the new stream is distributed as
the old one.

Together the configs reach average and exponential pooling, single tests,
delayed results, the post-isolation holdback, zero-length isolation, fast
loss of immunity, vaccination, and a run without testing.
"""

import hashlib

import pytest

from episim.cli import write_run_csv
from episim.core import default_config
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
}
GOLDEN = {
    "average-5-delay-2": "cfecf1c1ae997d6f3d04102cc8d1dfc395a2d41646c13b23fa81753b97abcc58",
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
