"""Population testing: single-sample tests and two-stage pooled (Dorfman)
testing, with delayed result delivery and test-count/cost accounting.

A testing day works on whole arrays: the eligible ids, their viral loads,
one permutation into pools and one Bernoulli vector per test stage. Only
positive results change an agent's state, so only positive ids are queued,
bucketed by delivery day.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import E, R, Population, ScenarioConfig
from .viral_load import load_array


@dataclass(frozen=True)
class TestSpec:
    """Operating characteristics of one test type."""

    detectionCut: float
    fprSingle: float
    fnrSingle: float
    daysDelayTestResults: int
    costPerTest: float

    @classmethod
    def from_config(cls, config: ScenarioConfig) -> "TestSpec":
        return cls(
            detectionCut=config.detectionCut,
            fprSingle=config.fprSingle,
            fnrSingle=config.fnrSingle,
            daysDelayTestResults=config.daysDelayTestResults,
            costPerTest=config.costPerTest,
        )


@dataclass
class TestLedger:
    """Running totals of tests administered and their cost."""

    tests_total: int = 0
    cost_total: float = 0.0

    def record(self, tests: int, cost_per_test: float) -> None:
        self.tests_total += tests
        self.cost_total += tests * cost_per_test


# Scalar rules for one test. They are the reference the vectorised testing
# day is checked against; the simulation itself uses the array forms below.


def single_test(viral_load: float, spec: TestSpec, rng: np.random.Generator) -> bool:
    """One test on one sample; True means positive.

    Samples at or below the detection cut can only false-positive; detectable
    samples miss at the false-negative rate.
    """
    if viral_load <= spec.detectionCut:
        return bool(rng.random() < spec.fprSingle)
    return bool(rng.random() < 1.0 - spec.fnrSingle)


def pool_test_average(
    loads: Sequence[float], spec: TestSpec, rng: np.random.Generator
) -> bool:
    """Stage-1 pool test where the pool's load is the mean of its samples."""
    return single_test(sum(loads) / len(loads), spec, rng)


def pool_test_exponential(
    loads: Sequence[float], spec: TestSpec, rng: np.random.Generator
) -> bool:
    """Stage-1 pool test driven by the number of detectable samples k.

    With no detectable sample the pool false-positives at the single-test
    rate; otherwise each detectable sample independently contributes, so the
    pool is positive with probability 1 - fnr**k.
    """
    k = sum(1 for v in loads if v > spec.detectionCut)
    if k == 0:
        p_positive = spec.fprSingle
    else:
        p_positive = 1.0 - spec.fnrSingle ** k
    return bool(rng.random() < p_positive)


# Array forms


def single_positive_prob(loads: np.ndarray, spec: TestSpec) -> np.ndarray:
    """Per-sample probability that a single test comes back positive."""
    return np.where(loads > spec.detectionCut, 1.0 - spec.fnrSingle, spec.fprSingle)


def pool_positive_prob(
    loads: np.ndarray, starts: np.ndarray, pooling_type: str, spec: TestSpec
) -> np.ndarray:
    """Stage-1 positive probability of each pool.

    Pool j holds ``loads[starts[j]:starts[j+1]]`` (the last pool runs to the
    end). A pool of one gets the single-test probability under either rule.
    """
    sizes = np.diff(starts, append=len(loads))
    if pooling_type == "average":
        return single_positive_prob(np.add.reduceat(loads, starts) / sizes, spec)
    if pooling_type == "exponential":
        k = np.add.reduceat(loads > spec.detectionCut, starts, dtype=np.int64)
        return np.where(k == 0, spec.fprSingle, 1.0 - spec.fnrSingle ** k)
    raise ValueError(f"unknown pooling type {pooling_type!r}")


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
    return np.flatnonzero(eligible)


def current_loads(population: Population, ids: np.ndarray, day: int) -> np.ndarray:
    """Viral load on ``day`` of each agent in ``ids``; 0 for agents outside
    E, I_s, I_a and R, who carry no trajectory."""
    comp = population.comp[ids]
    has_trajectory = (comp >= E) & (comp <= R)
    infected = ids[has_trajectory]
    loads = np.zeros(len(ids))
    loads[has_trajectory] = load_array(
        population.params[infected], day - population.exposure_day[infected]
    )
    return loads


def run_testing_day(
    population: Population,
    config: ScenarioConfig,
    day: int,
    pending: dict[int, list[np.ndarray]],
    ledger: TestLedger,
    rng: np.random.Generator,
) -> int:
    """Sample and test every eligible agent; returns tests used today.

    Draw order: one permutation of the eligible ids, which cuts them into
    pools; one uniform per pool for the stage-1 tests, in pool order; then
    one uniform per member of each positive pool of two or more for the
    stage-2 single tests, in pool order. A pool of one is a single test with
    no stage 2. All outcomes use the sampling-day loads. The positive ids are
    queued under ``pending[day + daysDelayTestResults]``. The ledger accrues
    one test per pool plus one per stage-2 member test.
    """
    spec = TestSpec.from_config(config)
    ids = eligible_ids(population, day, config)
    if ids.size == 0:
        return 0
    loads = current_loads(population, ids, day)
    order, starts = partition_into_pools(len(ids), config.poolSize, rng)
    ids, loads = ids[order], loads[order]
    sizes = np.diff(starts, append=len(ids))

    pool_positive = rng.random(len(starts)) < pool_positive_prob(
        loads, starts, config.poolingType, spec
    )
    single_positive = np.repeat(pool_positive & (sizes == 1), sizes)
    retest = np.repeat(pool_positive & (sizes > 1), sizes)
    retest_positive = rng.random(np.count_nonzero(retest)) < single_positive_prob(
        loads[retest], spec
    )
    positives = np.concatenate([ids[single_positive], ids[retest][retest_positive]])
    if positives.size:
        pending.setdefault(day + spec.daysDelayTestResults, []).append(positives)

    tests_used = len(starts) + int(retest_positive.size)
    ledger.record(tests_used, spec.costPerTest)
    return tests_used


def deliver_results(pending: dict[int, list[np.ndarray]], day: int) -> np.ndarray:
    """Remove today's positive results; returns their ids in ascending order."""
    due = pending.pop(day, None)
    if not due:
        return np.empty(0, dtype=np.int64)
    return np.sort(np.concatenate(due))
