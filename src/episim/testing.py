"""Population testing: single-sample tests and two-stage pooled (Dorfman)
testing, with delayed result delivery.

A testing day cuts a uniform permutation of the eligible samples into
pools. Only the carriers, the agents inside their load window, and the
positives change anything: every other sample has load 0. So a population of
at least ``transmission.SPARSE_EXPOSURE_AGENTS`` agents draws the same law
per carrier and per positive: the carriers' pool positions, one stage-1 test
per pool that holds a carrier, one stage-2 test per carrier of a positive
pool, and counts for the rest, whose positive ids are a uniform subset of the
eligible non-carriers. A smaller population permutes every sample and draws
one Bernoulli vector per test stage. Only positive results change an agent's
state, so only positive ids are queued, bucketed by delivery day.
"""

from __future__ import annotations

import numpy as np

from .core import Population, ScenarioConfig
from .transmission import SPARSE_EXPOSURE_AGENTS, uniform_subset
from .viral_load import load_array


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
    return _pool_prob(np.add.reduceat(_pooled(loads, config), starts, dtype=float), sizes, config)


def _pooled(loads: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    # what a pool's test adds up over its samples: the loads under average
    # pooling, whether each is detectable under exponential pooling
    return loads if config.poolingType == "average" else loads > config.detectionCut


def _pool_prob(totals: np.ndarray, sizes: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    # the stage-1 positive probability of pools of sizes ``sizes`` whose
    # samples add up to ``totals`` (:func:`_pooled`)
    if config.poolingType == "average":
        return single_positive_prob(totals / sizes, config)
    # exponential, the one other type a ScenarioConfig admits
    return np.where(totals == 0, config.fprSingle, 1.0 - config.fnrSingle ** totals)


def eligible(population: Population, day: int, config: ScenarioConfig) -> np.ndarray:
    """Mask of the agents in the population and past any post-isolation
    holdback."""
    mask = population.in_population()
    holdback = config.noTestingPostIsolationDays
    if holdback > 0:
        # never isolated -> NaN, which no comparison holds back
        mask &= ~(day - population.release_day < holdback)
    return mask


def eligible_ids(population: Population, day: int, config: ScenarioConfig) -> np.ndarray:
    """Sorted ids in the population and past any post-isolation holdback."""
    return eligible(population, day, config).nonzero()[0]


def current_loads(population: Population, ids: np.ndarray, day: int) -> np.ndarray:
    """Viral load on ``day`` of each agent in ``ids``.

    Loads are evaluated only inside an episode's load window, [first load
    day, last load day], set when the episode starts; outside it, and for
    agents with no episode (whose days are NaN), the load is exactly 0.
    """
    in_window = (population.first_load_day[ids] <= day) & (day <= population.last_load_day[ids])
    carriers = ids[in_window]
    loads = np.zeros(len(ids))
    loads[in_window] = load_array(
        population.params.take(carriers, axis=1), day - population.exposure_day[carriers]
    )
    return loads


def run_testing_day(
    population: Population,
    config: ScenarioConfig,
    day: int,
    pending: dict[int, np.ndarray],
    rng: np.random.Generator,
) -> int:
    """Sample and test every eligible agent; returns tests used today.

    A uniform permutation of the eligible samples cuts them into pools:
    contiguous runs of ``poolSize``, the last one holding the remainder, so it
    may be smaller. Each pool is tested, then each member of a positive pool
    of two or more is tested singly; a pool of one is a single test with no
    stage 2. All outcomes use the sampling-day loads. Below
    ``SPARSE_EXPOSURE_AGENTS`` agents the permutation is drawn
    (:func:`_permuted_day`); from it on, only the carriers' places in it
    (:func:`_carrier_day`). ``rng`` is the run's ``testing`` stream, and
    :class:`~episim.core.Streams` gives both draw orders. The positive ids are
    queued, ascending, under ``pending[day + daysDelayTestResults]``; a run
    tests at most once a day, so no testing day finds that key taken. The
    tests used are one per pool plus one per stage-2 member test.
    """
    day_of = _permuted_day if population.comp.size < SPARSE_EXPOSURE_AGENTS else _carrier_day
    positives, tests = day_of(population, config, day, rng)
    if positives.size:
        positives.sort()
        pending[day + config.daysDelayTestResults] = positives
    return tests


def _permuted_day(population: Population, config: ScenarioConfig, day: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, int]:
    # every sample in a permuted order, one Bernoulli vector per test stage
    ids = eligible_ids(population, day, config)
    if ids.size == 0:
        return ids, 0
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
    return positives, len(starts) + int(retest_positive.size)


def _carrier_day(population: Population, config: ScenarioConfig, day: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, int]:
    # the law of _permuted_day, drawn per carrier and per positive: the
    # carriers' positions in the permutation, then counts for the samples of
    # load 0, all of which test as the false-positive rate
    sampled = eligible(population, day, config)
    in_window = (population.first_load_day <= day) & (day <= population.last_load_day)
    carriers = (sampled & in_window).nonzero()[0]
    m = np.count_nonzero(sampled)
    if m == 0:
        return np.empty(0, dtype=np.int64), 0
    k, fpr = config.poolSize, config.fprSingle
    pools = -(-m // k)
    last = m - k * (pools - 1)  # the size of the last pool
    positives, tests = [np.empty(0, dtype=np.int64)], pools
    # the members of positive pools of two or more that are not carriers, and
    # the positive pools of one that hold none
    retested = alone = 0
    held = np.empty(0, dtype=np.int64)
    if carriers.size:
        pool = rng.choice(m, carriers.size, replace=False) // k
        counts = np.bincount(pool, minlength=pools)
        held = counts.nonzero()[0]
        sizes = np.where(held == pools - 1, last, k)
        loads = load_array(population.params.take(carriers, axis=1),
                           day - population.exposure_day[carriers])
        totals = np.bincount(pool, _pooled(loads, config), pools)[held]
        positive = np.zeros(pools, dtype=bool)
        positive[held] = rng.random(held.size) < _pool_prob(totals, sizes, config)
        # per carrier: in a positive pool, and in a pool of one
        in_positive = positive[pool]
        alone_in = ((pool == pools - 1) & (last == 1)) | (k == 1)
        positives.append(carriers[in_positive & alone_in])
        retest = in_positive & ~alone_in
        retest_positive = (rng.random(np.count_nonzero(retest))
                           < single_positive_prob(loads[retest], config))
        positives.append(carriers[retest][retest_positive])
        tests += retest_positive.size
        retested = int((sizes - counts[held])[positive[held] & (sizes > 1)].sum())
    # the carrier-free pools, each positive with the false-positive rate: the
    # full ones as one count, the short last one on its own
    full = pools - (last < k)
    short = full < pools and (held.size == 0 or held[-1] != full)
    free_positive = int(rng.binomial(full - np.count_nonzero(held < full), fpr))
    if k == 1:
        alone += free_positive
    else:
        retested += k * free_positive
    if short and rng.random() < fpr:
        if last == 1:
            alone += 1
        else:
            retested += last
    tests += retested
    found = alone + int(rng.binomial(retested, fpr))
    if found:
        positives.append(uniform_subset(sampled & ~in_window, True, found, m - carriers.size, rng))
    return np.concatenate(positives), tests


def deliver_results(pending: dict[int, np.ndarray], day: int) -> np.ndarray:
    """Remove today's positive results; returns their ids in ascending order."""
    return pending.pop(day, np.empty(0, dtype=np.int64))
