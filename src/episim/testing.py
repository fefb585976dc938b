"""Population testing: single-sample tests and two-stage pooled (Dorfman)
testing, with delayed result delivery.

A testing day cuts the eligible samples, in a uniformly random order, into
pools. Only the carriers, the agents inside their load window, and the
positives change anything: every other sample has load 0. So a testing day
draws that law per carrier and per positive: the carriers' pool positions,
one stage-1 test per pool that holds a carrier, one stage-2 test per carrier
of a positive pool, and counts for the rest, whose positive ids are a
uniform subset of the eligible non-carriers. Only positive results change an
agent's state, so only positive ids are queued, bucketed by delivery day.
"""

from __future__ import annotations

import numpy as np

from .core import Population, ScenarioConfig
from .transmission import uniform_subset
from .viral_load import load_array


def single_positive_prob(loads: np.ndarray, config: ScenarioConfig) -> np.ndarray:
    """Per-sample probability that a single test comes back positive."""
    return np.where(loads > config.detectionCut, 1.0 - config.fnrSingle, config.fprSingle)


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


def run_testing_day(
    population: Population,
    config: ScenarioConfig,
    day: int,
    pending: dict[int, np.ndarray],
    rng: np.random.Generator,
) -> int:
    """Sample and test every eligible agent; returns tests used today.

    The eligible samples, in a uniformly random order, are cut into pools:
    contiguous runs of ``poolSize``, the last one holding the remainder, so it
    may be smaller. Each pool is tested, then each member of a positive pool
    of two or more is tested singly; a pool of one is a single test with no
    stage 2. All outcomes use the sampling-day loads. Only the carriers'
    places in that order are drawn, then counts for the samples of load 0,
    all of which test as the false-positive rate. ``rng`` is the run's
    ``testing`` stream, and :class:`~episim.core.Streams` gives the draw
    order. The positive ids are queued, ascending, under
    ``pending[day + daysDelayTestResults]``; a run tests at most once a day,
    so no testing day finds that key taken. The tests used are one per pool
    plus one per stage-2 member test.
    """
    sampled = eligible(population, day, config)
    in_window = (population.first_load_day <= day) & (day <= population.last_load_day)
    carriers = (sampled & in_window).nonzero()[0]
    m = np.count_nonzero(sampled)
    if m == 0:
        return 0
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
        held = np.bincount(pool, minlength=pools).nonzero()[0]
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
        retested = int(sizes[positive[held] & (sizes > 1)].sum()) - retest_positive.size
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
    positives = np.concatenate(positives)
    if positives.size:
        positives.sort()
        pending[day + config.daysDelayTestResults] = positives
    return tests


def deliver_results(pending: dict[int, np.ndarray], day: int) -> np.ndarray:
    """Remove today's positive results; returns their ids in ascending order."""
    return pending.pop(day, np.empty(0, dtype=np.int64))
