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
from .viral_load import load_array


def single_positive_prob(loads: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Per-sample probability that a single test comes back positive."""
    return np.where(loads > config.detectionCut, 1.0 - config.fnrSingle, config.fprSingle)


def pool_positive_prob(
    loads: np.ndarray, starts: np.ndarray, config: ScenarioConfig
) -> np.ndarray:
    """Stage-1 positive probability of each pool under ``config.poolingType``.

    Pool j holds ``loads[starts[j]:starts[j+1]]`` (the last pool runs to the
    end). A pool of one gets the single-test probability under either rule.
    """
    sizes = np.diff(starts, append=len(loads))
    if config.poolingType == "average":
        return single_positive_prob(np.add.reduceat(loads, starts) / sizes, config)
    if config.poolingType == "exponential":
        k = np.add.reduceat(loads > config.detectionCut, starts, dtype=np.int64)
        return np.where(k == 0, config.fprSingle, 1.0 - config.fnrSingle ** k)
    raise ValueError(f"unknown pooling type {config.poolingType!r}")


def partition_into_pools(
    n_samples: int, pool_size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """A random order of the samples and the start of each pool within it.

    Pools are contiguous runs of ``pool_size`` in the permuted order; the
    final pool keeps the remainder and may be smaller.
    """
    if pool_size < 1:
        raise ValueError("pool_size must be >= 1")
    return rng.permutation(n_samples), np.arange(0, n_samples, pool_size)


def eligible_ids(population: Population, day: int, config: ScenarioConfig) -> np.ndarray:
    """Sorted ids in the population and past any post-isolation holdback."""
    eligible = population.in_population()
    holdback = config.noTestingPostIsolationDays
    if holdback > 0:
        # never released -> NaN, which no comparison holds back
        eligible &= ~(day - population.last_exit_day < holdback)
    return eligible.nonzero()[0]


def current_loads(population: Population, ids: np.ndarray, day: int) -> np.ndarray:
    """Viral load on ``day`` of each agent in ``ids``.

    Loads are evaluated only inside an episode's load window, [first load
    day, last load day]; outside it, and for agents with no episode (whose
    key days are NaN), the load is exactly 0.
    """
    in_window = (population.first_load_day[ids] <= day) & (day <= population.last_load_day[ids])
    carriers = ids[in_window]
    loads = np.zeros(len(ids))
    loads[in_window] = load_array(
        population.trajectories(carriers), day - population.exposure_day[carriers]
    )
    return loads


def run_testing_day(
    population: Population,
    config: ScenarioConfig,
    day: int,
    pending: dict[int, list[np.ndarray]],
    rng: np.random.Generator,
) -> int:
    """Sample and test every eligible agent; returns tests used today.

    Draw order: one permutation of the eligible ids, which cuts them into
    pools; one uniform per pool for the stage-1 tests, in pool order; then
    one uniform per member of each positive pool of two or more for the
    stage-2 single tests, in pool order. A pool of one is a single test with
    no stage 2. All outcomes use the sampling-day loads. The positive ids are
    queued under ``pending[day + daysDelayTestResults]``. The tests used are
    one per pool plus one per stage-2 member test.
    """
    ids = eligible_ids(population, day, config)
    if ids.size == 0:
        return 0
    loads = current_loads(population, ids, day)
    order, starts = partition_into_pools(len(ids), config.poolSize, rng)
    ids, loads = ids[order], loads[order]
    sizes = np.diff(starts, append=len(ids))

    pool_positive = rng.random(len(starts)) < pool_positive_prob(loads, starts, config)
    single_positive = np.repeat(pool_positive & (sizes == 1), sizes)
    retest = np.repeat(pool_positive & (sizes > 1), sizes)
    retest_positive = rng.random(np.count_nonzero(retest)) < single_positive_prob(
        loads[retest], config
    )
    positives = np.concatenate([ids[single_positive], ids[retest][retest_positive]])
    if positives.size:
        pending.setdefault(day + config.daysDelayTestResults, []).append(positives)
    return len(starts) + int(retest_positive.size)


def deliver_results(pending: dict[int, list[np.ndarray]], day: int) -> np.ndarray:
    """Remove today's positive results; returns their ids in ascending order."""
    due = pending.pop(day, None)
    if not due:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(due))
