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
    "average-5-delay-2": "50ee1ddf844dbc699d22173f203f25fbb2e887fd74ebb233e1208ebf43fa0480",
    "exponential-10-no-isolation": "16826c92c1b67e5a8c52aaae58b34f8f7aabea4fbe783f85b245cc28f29d623f",
    "exponential-4-vaccination": "e6ca48e44ba8f10b26e055d60d259115bf15a7099020ef51fd16a3cb2229964d",
    "no-testing-vaccination": "1094dc17fab711e468e06dfee97b3758ef9731b8849cebde3b42ae44b72cd130",
    "single-fast-reinfection": "eb16d15fd6cdfde3a7429636a726b0aa3b0db3ebf93eb6a93a2c4616490b5fe0",
}


def run_csv_sha256(name, tmp_path):
    _, records = run(default_config(**BASE, **CONFIGS[name]), 1)
    path = tmp_path / f"{name}.csv"
    write_run_csv(path, records)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_csv_matches_golden_hash(name, tmp_path):
    assert run_csv_sha256(name, tmp_path) == GOLDEN[name]
