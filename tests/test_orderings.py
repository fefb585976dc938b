"""Paired qualitative orderings of scenarios, from the testing literature.

Each comparison runs both scenarios with the same run indices, so a pair
shares its random streams (common random numbers) and differs only by the
scenario. Every pair must be ordered, not just the mean.

Power: over run indices 0-9 each effect is more than 15 paired SDs (change
minus reference):

- testing every 2 days against every 7: infections -1,593 on average, SD 65;
- results after 0 days against after 2 (Larremore et al., Sci Adv 7:eabd5393,
  2021): infections -1,117, SD 64;
- pools of 5 against single tests (Dorfman, Ann Math Stat 14:436, 1943):
  tests -69,245, SD 424.

So under a normal model a pair comes out misordered with probability below
1e-50, and a test failure means the effect is gone, not bad luck.
"""

import functools

import pytest

from episim import ScenarioConfig, run

BASE = {"popSize": 2000, "timeHorizon": 120, "initialInfected": 40, "firstDayOfTesting": 7,
        "baseSeed": 20}
SCENARIOS = {
    "every 2 days": {"daysBetweenTesting": 2, "daysDelayTestResults": 1},
    "every 7 days": {"daysBetweenTesting": 7, "daysDelayTestResults": 1},
    "delay 0": {"daysBetweenTesting": 2, "daysDelayTestResults": 0},
    "delay 2": {"daysBetweenTesting": 2, "daysDelayTestResults": 2},
    "pools of 5": {"daysBetweenTesting": 2, "daysDelayTestResults": 1, "poolSize": 5},
}
RUN_INDICES = range(10)


@functools.cache
def summaries(scenario):
    config = ScenarioConfig(**BASE, **SCENARIOS[scenario])
    return [run(config, i)[0] for i in RUN_INDICES]


@pytest.mark.parametrize("better,worse,metric", [
    ("every 2 days", "every 7 days", "total_infections"),
    ("delay 0", "delay 2", "total_infections"),
    ("pools of 5", "every 2 days", "total_tests"),
])
def test_every_pair_is_ordered(better, worse, metric):
    for i, low, high in zip(RUN_INDICES, summaries(better), summaries(worse)):
        assert getattr(low, metric) < getattr(high, metric), (i, metric)
