"""Single and pooled testing and result delays."""

import dataclasses
import math

import numpy as np
import pytest

from episim.core import Compartment, Population, ScenarioConfig
from episim.testing import (
    deliver_results,
    eligible_ids,
    pool_positive_prob,
    run_testing_day,
)
from episim.transmission import SPARSE_EXPOSURE_AGENTS, episode_schedule, start_episodes

from reference import (
    ViralLoadProfile,
    load_at,
    pool_test_average,
    pool_test_exponential,
    profile_params,
    single_test,
)


def operating_point(cut, fpr, fnr):
    return ScenarioConfig(detectionCut=cut, fprSingle=fpr, fnrSingle=fnr)


# operating points for the two test types compared in the experiments
TEST_A = operating_point(100.0, 0.014, 0.06)
TEST_B = operating_point(1e6, 0.007, 0.15)


def frequency(fn, n=100_000):
    return sum(fn() for _ in range(n)) / n


def test_single_test_false_positive_rate():
    rng = np.random.default_rng(101)
    freq = frequency(lambda: single_test(0.0, TEST_A, rng))
    assert abs(freq - 0.014) < 0.002


def test_single_test_detection_rate():
    rng = np.random.default_rng(102)
    freq = frequency(lambda: single_test(1e6, TEST_A, rng))
    assert abs(freq - 0.94) < 0.003


def test_single_test_below_cut_only_false_positives():
    # 1e5 cp/ml is below the low-sensitivity test's cut
    rng = np.random.default_rng(103)
    freq = frequency(lambda: single_test(1e5, TEST_B, rng))
    assert abs(freq - 0.007) < 0.001


def test_pool_average_deterministic_threshold_paths():
    pool = (1e6, 0.0, 0.0, 0.0, 0.0)  # mean 2e5
    sure_a = operating_point(100.0, 0.0, 0.0)  # 2e5 > cut: always positive
    sure_b = operating_point(1e6, 0.0, 0.0)    # 2e5 <= cut: never positive
    rng = np.random.default_rng(1)
    assert pool_test_average(pool, sure_a, rng) is True
    assert pool_test_average(pool, sure_b, rng) is False


def test_pool_average_rates():
    pool = (1e6, 0.0, 0.0, 0.0, 0.0)
    rng = np.random.default_rng(104)
    freq_b = frequency(lambda: pool_test_average(pool, TEST_B, rng))
    assert abs(freq_b - 0.007) < 0.001
    freq_a = frequency(lambda: pool_test_average(pool, TEST_A, rng))
    assert abs(freq_a - 0.94) < 0.003


def test_pool_average_all_zero_loads_false_positive_rate():
    pool = (0.0,) * 5
    rng = np.random.default_rng(105)
    freq = frequency(lambda: pool_test_average(pool, TEST_A, rng), n=50_000)
    assert abs(freq - 0.014) < 0.003


def test_pool_exponential_no_detectable_sample():
    pool = (0.0,) * 5
    spec = operating_point(100.0, 0.014, 0.15)
    rng = np.random.default_rng(106)
    freq = frequency(lambda: pool_test_exponential(pool, spec, rng), n=50_000)
    assert abs(freq - 0.014) < 0.003


def test_pool_exponential_two_detectable_samples():
    # positive probability 1 - 0.15^2 = 0.9775
    pool = (1e4, 1e4, 0.0, 0.0, 0.0)
    spec = operating_point(100.0, 0.014, 0.15)
    rng = np.random.default_rng(107)
    freq = frequency(lambda: pool_test_exponential(pool, spec, rng))
    assert abs(freq - 0.9775) < 0.002


def test_pool_exponential_single_detectable_matches_single_test():
    pool = (1e4, 0.0, 0.0, 0.0, 0.0)
    spec = operating_point(100.0, 0.014, 0.15)
    rng = np.random.default_rng(108)
    freq = frequency(lambda: pool_test_exponential(pool, spec, rng), n=50_000)
    assert abs(freq - 0.85) < 0.006


def test_pool_positive_prob_matches_scalar_rules():
    # the stage-1 vector, drawn against the same uniforms as the scalar rules
    # applied pool by pool, must give the same outcome for every pool
    rng = np.random.default_rng(109)
    spec = operating_point(100.0, 0.2, 0.3)
    n = 4000
    loads = np.where(rng.random(n) < 0.3, 10 ** rng.uniform(0.0, 4.0, n), 0.0)
    for pooling_type, scalar_rule in (
        ("average", pool_test_average), ("exponential", pool_test_exponential),
    ):
        for pool_size in (1, 3, 10):
            starts = np.arange(0, n - 1, pool_size)  # n - 1: a short last pool
            vector_rng, scalar_rng = np.random.default_rng(110), np.random.default_rng(110)
            config = dataclasses.replace(spec, poolingType=pooling_type)
            bounds = np.append(starts, n - 1)
            prob = pool_positive_prob(loads[:n - 1], starts, np.diff(bounds), config)
            vector = vector_rng.random(len(starts)) < prob
            scalar = [
                scalar_rule(loads[a:b].tolist(), spec, scalar_rng)
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
            assert vector.tolist() == scalar, (pooling_type, pool_size)
            assert 0 < vector.sum() < len(vector)


def hot_population(n=100, hot_ids=(), load=1e8):
    """All-susceptible population; hot agents carry a flat high trajectory."""
    pop = Population(n)
    profile = ViralLoadProfile(
        t0=0.5, V0=load, tP=1.0, VP=load, tS=0.0, tF=50.0, VF=load, symptomatic=False
    )
    hot = np.array(hot_ids, dtype=np.int64)
    params = np.tile(profile_params(profile), (len(hot), 1)).T
    asymptomatic = np.zeros(len(hot), bool)
    start_episodes(pop, hot, 0, params,
                   episode_schedule(params, asymptomatic, asymptomatic, 1e3))
    pop.comp[hot] = Compartment.INFECTIOUS_ASYMPTOMATIC
    return pop


def queued_ids(pending):
    return sorted(int(i) for ids in pending.values() for i in ids)


def pool_count(n, pool_size, seed=1):
    """The pools of a testing day of ``n`` samples: with every load 0 and no
    false positive, no pool is positive, so the tests used are the pools."""
    cfg = ScenarioConfig(poolSize=pool_size, fprSingle=0.0)
    pending = {}
    used = run_testing_day(hot_population(n), cfg, 7, pending, np.random.default_rng(seed))
    assert pending == {}
    return used


def test_partition_exact_division():
    assert pool_count(10, 5) == 2


def test_partition_remainder_pool_is_smaller():
    assert pool_count(11, 5) == 3


def test_partition_pool_size_one_gives_singletons():
    assert pool_count(11, 1) == 11


def test_a_testing_day_with_no_eligible_agent_draws_nothing():
    pop = hot_population(10, hot_ids=(2, 5))
    pop.comp[:] = Compartment.ISOLATED_HEALTHY
    pop.comp[[2, 5]] = Compartment.ISOLATED_SICK
    cfg = ScenarioConfig(daysBetweenTesting=1, firstDayOfTesting=0, fprSingle=1.0)
    pending = {9: np.array([3])}
    rng = np.random.default_rng(12)
    rng_state = rng.bit_generator.state
    assert run_testing_day(pop, cfg, 7, pending, rng) == 0
    assert pending.keys() == {9} and pending[9].tolist() == [3]
    assert rng.bit_generator.state == rng_state


def test_run_testing_day_singletons():
    # every sample false-positives, so the queue shows who was sampled
    pop = hot_population(100)
    cfg = ScenarioConfig(daysBetweenTesting=1, firstDayOfTesting=0, poolSize=1,
                         fprSingle=1.0)
    pending = {}
    used = run_testing_day(pop, cfg, 7, pending, np.random.default_rng(1))
    assert used == 100
    assert queued_ids(pending) == list(range(100))


def test_run_testing_day_no_positive_pools():
    pop = hot_population(100)  # every load is 0
    cfg = ScenarioConfig(
        daysBetweenTesting=1, firstDayOfTesting=0, poolSize=5, fprSingle=0.0
    )
    pending = {}
    used = run_testing_day(pop, cfg, 7, pending, np.random.default_rng(2))
    assert used == 20
    assert pending == {}  # negative results are not queued


def test_run_testing_day_dorfman_count_three_positive_pools():
    # 3 detectable agents, fnr 0, fpr 0: positive pools = pools holding them.
    # seed 0 scatters them into 3 distinct pools (asserted below), so the
    # day must use 20 stage-1 tests + 3*5 follow-ups.
    pop = hot_population(100, hot_ids=(10, 40, 70))
    cfg = ScenarioConfig(
        daysBetweenTesting=1, firstDayOfTesting=0, poolSize=5,
        fprSingle=0.0, fnrSingle=0.0, detectionCut=100.0,
    )
    pending = {}
    used = run_testing_day(pop, cfg, 3, pending, np.random.default_rng(0))
    assert deliver_results(pending, 3).tolist() == [10, 40, 70]
    assert used == 35


def test_member_of_negative_pool_never_positive():
    # force stage 1 negative for every pool: all members must come back
    # negative even though they are detectable
    pop = hot_population(100, hot_ids=tuple(range(0, 100, 7)))
    cfg = ScenarioConfig(
        daysBetweenTesting=1, firstDayOfTesting=0, poolSize=5,
        fprSingle=0.0, fnrSingle=1.0,
    )
    pending = {}
    used = run_testing_day(pop, cfg, 3, pending, np.random.default_rng(3))
    assert used == 20
    assert pending == {}


def reference_eligible(pop, cfg, day):
    """The eligible ids, ascending, one agent at a time."""
    isolated = (Compartment.ISOLATED_HEALTHY, Compartment.ISOLATED_SICK)
    ids = []
    for i, (comp, release) in enumerate(zip(pop.comp.tolist(), pop.release_day.tolist())):
        held = not math.isnan(release) and day - release < cfg.noTestingPostIsolationDays
        if comp not in isolated and not held:
            ids.append(i)
    return ids


def reference_load(pop, i, day):
    """Agent i's viral load on ``day``; 0 without an episode."""
    if np.isnan(pop.exposure_day[i]):
        return 0.0
    profile = ViralLoadProfile(*pop.params[:, i], symptomatic=False)
    return load_at(profile, day - pop.exposure_day[i])


POOL_RULE = {"average": pool_test_average, "exponential": pool_test_exponential}


def reference_testing_day(pop, cfg, day, rng):
    """The testing day below the size rule one sample at a time with the
    scalar rules, drawing in the documented order; returns (sorted positive
    ids, tests used)."""
    ids = reference_eligible(pop, cfg, day)
    loads = [reference_load(pop, i, day) for i in ids]
    order = rng.permutation(len(ids))
    pools = [order[a:a + cfg.poolSize] for a in range(0, len(ids), cfg.poolSize)]
    stage1 = [POOL_RULE[cfg.poolingType]([loads[j] for j in pool], cfg, rng) for pool in pools]
    positives, tests = [], len(pools)
    for pool, pool_positive in zip(pools, stage1):
        if pool_positive and len(pool) == 1:
            positives.append(ids[pool[0]])
        elif pool_positive:
            for j in pool:
                tests += 1
                if single_test(loads[j], cfg, rng):
                    positives.append(ids[j])
    return sorted(positives), tests


def reference_carrier_day(pop, cfg, day, rng):
    """The testing day from the size rule on, one sample at a time with the
    scalar rules, drawing in the documented order; returns (sorted positive
    ids, tests used). A carrier is an eligible agent inside its load window;
    every other eligible agent is a sample of load 0."""
    ids = reference_eligible(pop, cfg, day)
    carriers = [i for i in ids if pop.first_load_day[i] <= day <= pop.last_load_day[i]]
    is_carrier = set(carriers)
    others = [i for i in ids if i not in is_carrier]
    m, k, fpr = len(ids), cfg.poolSize, cfg.fprSingle
    sizes = [min(k, m - a) for a in range(0, m, k)]
    # the carriers, ascending, take the positions drawn, in turn
    pool_of = {}
    if carriers:
        pool_of = {i: int(position) // k for i, position in
                   zip(carriers, rng.choice(m, len(carriers), replace=False))}
    members = {}
    for i in carriers:
        members.setdefault(pool_of[i], []).append(i)
    loads = {i: reference_load(pop, i, day) for i in carriers}
    positive_pool = {
        j: POOL_RULE[cfg.poolingType](
            [loads[i] for i in members[j]] + [0.0] * (sizes[j] - len(members[j])), cfg, rng)
        for j in sorted(members)}
    positives, tests = [], len(sizes)
    for i in carriers:
        j = pool_of[i]
        if positive_pool[j] and sizes[j] == 1:
            positives.append(i)
        elif positive_pool[j]:
            tests += 1
            if single_test(loads[i], cfg, rng):
                positives.append(i)
    # the samples of load 0: those retested, and those positive in a pool of one
    retested = sum(sizes[j] - len(members[j]) for j in members if positive_pool[j] and sizes[j] > 1)
    alone = 0
    free_full = sum(1 for j, size in enumerate(sizes) if size == k and j not in members)
    free_positive = int(rng.binomial(free_full, fpr))
    if k == 1:
        alone += free_positive
    else:
        retested += k * free_positive
    if sizes[-1] < k and len(sizes) - 1 not in members and rng.random() < fpr:
        if sizes[-1] == 1:
            alone += 1
        else:
            retested += sizes[-1]
    tests += retested
    found = alone + int(rng.binomial(retested, fpr))
    # which of them: the first distinct eligible non-carrier ids among
    # batches of uniform ids, or a choice among them all when many
    chosen = []
    if 8 * found > len(others):
        chosen = rng.choice(others, size=found, replace=False).tolist() if found else []
    unchosen = set(others) - set(chosen)
    while len(chosen) < found:
        batch = int(1.25 * (found - len(chosen)) * len(pop.comp) / len(others)) + 16
        for i in rng.integers(len(pop.comp), size=batch).tolist():
            if i in unchosen and len(chosen) < found:
                chosen.append(i)
                unchosen.remove(i)
    return sorted(positives + chosen), tests


def mixed_testing_population(n, rng):
    """A mixed population: trajectories at every stage, isolated agents, and
    agents inside and past the post-isolation holdback."""
    pop = Population(n)
    infected_comps = (
        Compartment.EXPOSED, Compartment.INFECTIOUS_SYMPTOMATIC,
        Compartment.INFECTIOUS_ASYMPTOMATIC, Compartment.RECOVERED,
    )
    ids = np.arange(0, n, 3)
    params, exposure_day = np.empty((7, ids.size)), np.empty(ids.size, dtype=np.int64)
    for j in range(ids.size):
        params[:, j] = profile_params(ViralLoadProfile(
            t0=float(rng.uniform(0, 4)), V0=10 ** float(rng.uniform(0, 3)),
            tP=float(rng.uniform(0, 3)), VP=10 ** float(rng.uniform(3, 8)),
            tS=0.0, tF=float(rng.uniform(0, 9)), VF=10 ** float(rng.uniform(0, 3)),
            symptomatic=False,
        ))
        exposure_day[j] = rng.integers(0, 16)
    asymptomatic = np.zeros(ids.size, dtype=bool)
    offsets = episode_schedule(params, asymptomatic, asymptomatic, 1e3)
    for day in np.unique(exposure_day):
        on = exposure_day == day
        start_episodes(pop, ids[on], int(day), params[:, on], offsets[:, on])
    pop.comp[ids] = np.array(infected_comps)[ids % 4]
    for i in range(1, n, 11):
        pop.comp[i] = Compartment.ISOLATED_HEALTHY
    for i in range(2, n, 5):
        pop.release_day[i] = int(rng.integers(0, 16))
    return pop


def check_testing_day(n, pooling_type, pool_size, fpr, reference_day, seeds):
    """``run_testing_day`` on a mixed population of ``n`` agents against the
    scalar ``reference_day``, drawn from the same seeds."""
    rng = np.random.default_rng(111)
    pop = mixed_testing_population(n, rng)
    cfg = ScenarioConfig(
        daysBetweenTesting=1, firstDayOfTesting=0, poolSize=pool_size,
        poolingType=pooling_type, fprSingle=fpr, fnrSingle=0.3,
        noTestingPostIsolationDays=5, daysDelayTestResults=2,
    )
    n_pools = -(-len(eligible_ids(pop, 15, cfg)) // pool_size)
    for seed in range(seeds):
        pending = {}
        used = run_testing_day(pop, cfg, 15, pending, np.random.default_rng(seed))
        expected, expected_tests = reference_day(pop, cfg, 15, np.random.default_rng(seed))
        assert used == expected_tests
        assert deliver_results(pending, 17).tolist() == expected
        assert pending == {}
        # the case is not vacuous: results come back and stage 2 runs
        assert expected
        assert pool_size == 1 or used > n_pools


@pytest.mark.parametrize("pooling_type,pool_size", [
    ("average", 1), ("average", 4), ("exponential", 4), ("exponential", 10),
])
def test_run_testing_day_matches_scalar_reference(pooling_type, pool_size):
    # below the size rule: every sample is permuted into pools
    check_testing_day(400, pooling_type, pool_size, 0.05, reference_testing_day, seeds=5)


# (pooling type, pool size, false-positive rate). The positive non-carriers
# are drawn by rejection, except at a false-positive rate of 0.2 with pools of
# one, where they are more than an eighth of the non-carriers and so a choice
# among them all. The eligible count leaves a short last pool for pools of 4
# and 10
@pytest.mark.parametrize("pooling_type,pool_size,fpr", [
    ("average", 1, 0.2), ("average", 4, 0.05), ("exponential", 10, 0.05),
])
def test_carrier_testing_day_matches_scalar_reference(pooling_type, pool_size, fpr):
    # from the size rule on: the carriers are placed in the pools, and the
    # positives among the rest are counted, then chosen
    check_testing_day(SPARSE_EXPOSURE_AGENTS, pooling_type, pool_size, fpr,
                      reference_carrier_day, seeds=2)


def test_delivery_delay():
    pop = hot_population(10)
    cfg = ScenarioConfig(daysBetweenTesting=1, firstDayOfTesting=0, poolSize=1,
                         fprSingle=1.0, daysDelayTestResults=3)
    pending = {}
    run_testing_day(pop, cfg, 7, pending, np.random.default_rng(8))
    assert deliver_results(pending, 9).tolist() == []
    assert deliver_results(pending, 10).tolist() == list(range(10))
    assert pending == {}


def test_delivery_immediate_when_no_delay():
    pop = hot_population(10)
    cfg = ScenarioConfig(daysBetweenTesting=1, firstDayOfTesting=0, poolSize=1,
                         fprSingle=1.0, daysDelayTestResults=0)
    pending = {}
    run_testing_day(pop, cfg, 4, pending, np.random.default_rng(4))
    assert len(deliver_results(pending, 4)) == 10


def test_delivery_empty_queue():
    assert deliver_results({}, 5).tolist() == []


def test_agents_with_pending_results_are_retested():
    pop = hot_population(10)
    cfg = ScenarioConfig(daysBetweenTesting=1, firstDayOfTesting=0, poolSize=1,
                         fprSingle=1.0, daysDelayTestResults=3)
    pending = {}
    run_testing_day(pop, cfg, 0, pending, np.random.default_rng(5))
    run_testing_day(pop, cfg, 1, pending, np.random.default_rng(6))
    assert len(queued_ids(pending)) == 20
    assert deliver_results(pending, 3).tolist() == list(range(10))
    assert deliver_results(pending, 4).tolist() == list(range(10))


def test_post_isolation_holdback():
    pop = hot_population(3)
    pop.release_day[1] = 10
    cfg = ScenarioConfig(noTestingPostIsolationDays=4)
    assert eligible_ids(pop, 12, cfg).tolist() == [0, 2]
    assert eligible_ids(pop, 14, cfg).tolist() == [0, 1, 2]


def test_isolated_agents_are_not_tested():
    pop = hot_population(10)
    pop.comp[0] = Compartment.ISOLATED_SICK
    pop.comp[1] = Compartment.ISOLATED_HEALTHY
    cfg = ScenarioConfig(daysBetweenTesting=1, firstDayOfTesting=0, poolSize=1,
                         fprSingle=1.0)
    pending = {}
    used = run_testing_day(pop, cfg, 0, pending, np.random.default_rng(7))
    assert used == 8
    assert queued_ids(pending) == list(range(2, 10))


def hypergeometric(j, n, m, k):
    """P(j carriers among k samples drawn from n, of which m are carriers)."""
    return math.comb(m, j) * math.comb(n - m, k - j) / math.comb(n, k)


@pytest.mark.parametrize("pooling_type,load", [
    ("average", 1e8),
    ("exponential", 1e8),
    # dilution: one carrier in a pool of 5 averages 90, below the cut of 100,
    # and two average 180, above it
    ("average", 450.0),
], ids=["average", "exponential", "average-dilution"])
def test_testing_day_matches_dorfman_closed_form(pooling_type, load):
    # m carriers among n agents in pools of k: the members of a pool are a
    # hypergeometric draw, so the tests per day, the sensitivity per carrier
    # and the false-positive rate per non-carrier have closed forms (Dorfman
    # 1943) given the stage-1 positive probability p[j] of a pool holding j
    # carriers. Each day is independent, so the z-bound uses the spread of the
    # daily values. Both sides of the size rule: 1,000 agents permute every
    # sample, SPARSE_EXPOSURE_AGENTS place the carriers.
    for n in (1000, SPARSE_EXPOSURE_AGENTS):
        m, k, fpr, fnr, days = n // 20, 5, 0.05, 0.2, 1000
        cfg = ScenarioConfig(poolingType=pooling_type, poolSize=k, fprSingle=fpr, fnrSingle=fnr,
                             detectionCut=100.0, daysDelayTestResults=0)
        carriers = np.arange(0, n, n // m)
        pop = hot_population(n, hot_ids=carriers, load=load)
        if pooling_type == "exponential":
            p = [fpr] + [1.0 - fnr ** j for j in range(1, k + 1)]
        else:
            p = [1.0 - fnr if j * load / k > cfg.detectionCut else fpr for j in range(k + 1)]
        expected = (
            n / k + n * sum(hypergeometric(j, n, m, k) * p[j] for j in range(k + 1)),
            (1.0 - fnr) * sum(hypergeometric(j, n - 1, m - 1, k - 1) * p[j + 1] for j in range(k)),
            fpr * sum(hypergeometric(j, n - 1, m, k - 1) * p[j] for j in range(k)),
        )

        rng = np.random.default_rng(2024)
        is_carrier = np.zeros(n, dtype=bool)
        is_carrier[carriers] = True
        daily = np.empty((days, 3))
        for d in range(days):
            pending = {}
            tests = run_testing_day(pop, cfg, 7, pending, rng)
            positive = np.zeros(n, dtype=bool)
            positive[deliver_results(pending, 7)] = True
            daily[d] = tests, positive[is_carrier].mean(), positive[~is_carrier].mean()
        z = (daily.mean(axis=0) - expected) / (daily.std(axis=0, ddof=1) / math.sqrt(days))
        assert np.all(np.abs(z) < 4.0), (n, daily.mean(axis=0).tolist(), expected, z.tolist())
