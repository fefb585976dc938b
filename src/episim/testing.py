"""Population testing: single-sample tests and two-stage pooled (Dorfman)
testing, with delayed result delivery.

A testing day works on whole arrays: the eligible ids, their viral loads,
one permutation into pools and one Bernoulli vector per test stage. Only
positive results change an agent's state, so only positive ids are queued,
bucketed by delivery day.
"""

from __future__ import annotations

import numpy as np

from .core import Population, ScenarioConfig
from .viral_load import current_loads


def single_positive_prob(loads: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Per-sample probability that a single test comes back positive."""
    return np.where(loads > config.detectionCut, 1.0 - config.fnrSingle, config.fprSingle)


def pool_positive_prob(
    loads: np.ndarray, starts: np.ndarray, sizes: np.ndarray, config: ScenarioConfig
) -> np.ndarray:
    """Stage-1 positive probability of each pool under ``config.poolingType``.

    Pool j holds the ``sizes[j]`` loads from ``loads[starts[j]]`` on; the
    pools cover ``loads`` in order. A pool of one gets the single-test
    probability under either rule.
    """
    if config.poolingType == "average":
        return single_positive_prob(np.add.reduceat(loads, starts) / sizes, config)
    # exponential, the one other type a ScenarioConfig admits
    k = np.add.reduceat(loads > config.detectionCut, starts, dtype=np.int64)
    return np.where(k == 0, config.fprSingle, 1.0 - config.fnrSingle ** k)


def eligible_ids(population: Population, day: int, config: ScenarioConfig) -> np.ndarray:
    """Sorted ids in the population and past any post-isolation holdback."""
    eligible = population.in_population()
    holdback = config.noTestingPostIsolationDays
    if holdback > 0:
        # never isolated -> NaN, which no comparison holds back
        eligible &= ~(day - population.release_day < holdback)
    return eligible.nonzero()[0]


def run_testing_day(
    population: Population,
    config: ScenarioConfig,
    day: int,
    pending: dict[int, np.ndarray],
    rng: np.random.Generator,
) -> int:
    """Sample and test every eligible agent; returns tests used today.

    A random permutation of the eligible ids cuts them into pools: contiguous
    runs of ``poolSize`` in the permuted order, the last one holding the
    remainder, so it may be smaller. Each pool is tested, then each member of
    a positive pool of two or more is tested singly; a pool of one is a
    single test with no stage 2. ``rng`` is the run's ``testing`` stream
    (:class:`~episim.core.Streams`). All outcomes use the sampling-day loads.
    The positive ids are queued, ascending, under ``pending[day +
    daysDelayTestResults]``; a run tests at most once a day, so no testing day
    finds that key taken. The tests used are one per pool plus one per
    stage-2 member test.
    """
    ids = eligible_ids(population, day, config)
    if ids.size == 0:
        return 0
    loads = current_loads(population, ids, day)
    order = rng.permutation(len(ids))
    ids, loads = ids[order], loads[order]
    starts = np.arange(0, len(ids), config.poolSize)
    # every pool but the last holds poolSize samples
    sizes = np.full(len(starts), config.poolSize)
    sizes[-1] = len(ids) - starts[-1]

    pool_positive = rng.random(len(starts)) < pool_positive_prob(loads, starts, sizes, config)
    single_positive = (pool_positive & (sizes == 1)).repeat(sizes)
    retest = (pool_positive & (sizes > 1)).repeat(sizes)
    retest_loads = loads[retest]
    retest_positive = rng.random(retest_loads.size) < single_positive_prob(retest_loads, config)
    positives = np.concatenate([ids[single_positive], ids[retest][retest_positive]])
    if positives.size:
        positives.sort()
        pending[day + config.daysDelayTestResults] = positives
    return len(starts) + int(retest_positive.size)


def deliver_results(pending: dict[int, np.ndarray], day: int) -> np.ndarray:
    """Remove today's positive results; returns their ids in ascending order."""
    return pending.pop(day, np.empty(0, dtype=np.int64))
