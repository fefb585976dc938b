"""Per-agent inclusion frequencies of the stages that choose agents, against
the plain rules of ``tests/reference.py``: exposure, vaccination and the
positive results of a testing day.

A change of a stage's draws that keeps its law keeps the probability with
which each agent is chosen. Each test runs one stage ``REPS`` times on one
population and compares, for every agent, the share of runs that chose it
with the reference probability π: z = (share - π) / sqrt(π(1 - π)/REPS).
Every agent's |z| must stay below the two-sided bound of a family-wise
α = 0.001 over the agents (Bonferroni), and so must every group's, where a
group is a tenth of the ids of one class of agents (a compartment, or a
willingness). An agent with π = 0 must never be chosen, and one with π = 1
always.

Power. A z-test at bound Z detects a bias δ in the probability of one
agent, or of every agent of one group, 80% of the time once δ ≥ (Z + 0.84)
σ, σ the standard error of the share. Each test states that δ for one agent
and for one group, as a share of π, in a comment.
"""

import numpy as np
import pytest
from scipy.stats import norm

from episim.core import Compartment, Population, ScenarioConfig
from episim.interventions import vaccination_step
from episim.testing import eligible, run_testing_day
from episim.transmission import SPARSE_EXPOSURE_AGENTS, draw_exposures, episode_schedule, start_episodes

import reference as reference_module
from reference import ViralLoadProfile, exposure_probability, profile_params, vaccination_inclusion

C = Compartment
REPS = 3000
FAMILY_ALPHA = 0.001
GROUPS = 10  # groups per class


def bound(tests):
    """The |z| bound of one of ``tests`` two-sided tests at FAMILY_ALPHA."""
    return norm.isf(FAMILY_ALPHA / (2 * tests))


def check_inclusion(chosen, reference, classes, reps):
    """``chosen`` counts the runs that chose each agent, ``reference`` holds
    each agent's probability and ``classes`` its class."""
    assert not chosen[reference == 0].any()
    assert np.all(chosen[reference == 1] == reps)
    agents = (reference > 0) & (reference < 1)
    p = reference[agents]
    z = (chosen[agents] / reps - p) / np.sqrt(p * (1 - p) / reps)
    assert np.abs(z).max() < bound(agents.sum())
    groups = []
    for c in np.unique(classes[agents]):
        ids = np.flatnonzero(agents & (classes == c))
        groups += np.array_split(ids, min(GROUPS, ids.size))
    for ids in groups:
        p = reference[ids]
        z = (chosen[ids].sum() / reps - p.sum()) / np.sqrt((p * (1 - p)).sum() / reps)
        assert abs(z) < bound(len(groups)), ids[[0, -1]]


def mixed_population(n, rng):
    """``n`` agents in a random order: 55% S_u, 20% S_v and the rest in the
    other compartments."""
    pop = Population(n)
    pop.comp[:] = rng.choice(len(C), size=n, p=[0.55, 0.2, 0.05, 0.05, 0.05, 0.05, 0.025, 0.025])
    pop.vaccinated[:] = pop.comp == C.SUSCEPTIBLE_VACCINATED
    pop.tally = pop.counts().tolist()
    return pop


# (agents, p): below the size rule one uniform per susceptible; above it a
# binomial count and then a subset, drawn by rejection where it is at most an
# eighth of its compartment (p 0.02, and S_v at p 0.2, 0.1 after alpha) and
# chosen from a scan otherwise (S_u at p 0.2)
EXPOSURE_CASES = [(2000, 0.05), (SPARSE_EXPOSURE_AGENTS, 0.02), (SPARSE_EXPOSURE_AGENTS, 0.2)]


@pytest.mark.parametrize("n,p", EXPOSURE_CASES)
def test_exposure_chooses_each_susceptible_with_its_probability(n, p):
    # Power, REPS runs: a bias in one S_u agent's probability is detected at
    # 80% power from 46% of π (2,000 agents, p 0.05), 78% (p 0.02) and 22%
    # (p 0.2); one shared by a group of its 108 or 546 S_u agents from 3.7%,
    # 2.7% and 0.8%. For S_v, 20% of the agents at alpha p: 66%, 111% and 33%
    # for one agent, 8.7%, 6.2% and 1.9% for a group.
    rng = np.random.default_rng(2308 + n)
    pop = mixed_population(n, rng)
    config = ScenarioConfig(vaccineInfectionProb=0.5)
    comp, tally = pop.comp.copy(), pop.tally.copy()

    def draw():
        pop.comp[:], pop.tally = comp, tally.copy()
        ids = draw_exposures(pop, p, config, rng)
        # the draw moves its exposed, and only them, to E, in the running counts too
        assert np.array_equal(np.flatnonzero(pop.comp != comp), ids)
        assert np.all(pop.comp[ids] == C.EXPOSED)
        assert pop.tally == pop.counts().tolist()
        return ids

    chosen = np.bincount(np.concatenate([draw() for _ in range(REPS)]), minlength=n)
    reference = np.array([exposure_probability(C(c), p, config.vaccineInfectionProb)
                          for c in comp.tolist()])
    check_inclusion(chosen, reference, comp, REPS)


# (doses, agents): a few doses among many willing, drawn by rejection from
# all ids; about as many doses as willing, where the draws often run short
# and a scan finishes the order; and more doses than willing
VACCINATION_CASES = [(5, 400), (60, 400), (300, 400)]


@pytest.mark.parametrize("doses,n", VACCINATION_CASES)
def test_vaccination_chooses_each_eligible_agent_as_the_per_agent_rule(doses, n):
    # Power, REPS runs, about 55 eligible agents of each willingness 0.1,
    # 0.5, 0.9 and 1 (and 0, never chosen): a bias in one agent's probability
    # is detected at 80% power from 53% of π (willingness 1) to 171% (0.1) at
    # 5 doses, 12% to 49% at 60 and 3% to 29% at 300, where π is the
    # willingness; one shared by a group of 5 or 6 agents of one willingness
    # from 20% to 71%, 4.3% to 20% and 1.1% to 14%.
    rng = np.random.default_rng(1943 + doses)
    pop = mixed_population(n, rng)
    # mixed willingness, not by id order; isolated and vaccinated agents and
    # agents of willingness 0 are never eligible or never willing
    pop.willingness[:] = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0], size=n)
    config = ScenarioConfig(vaccinesAvailablePerDay=doses)
    comp, vaccinated, tally = pop.comp.copy(), pop.vaccinated.copy(), pop.tally.copy()
    eligible = (comp < C.ISOLATED_HEALTHY) & ~vaccinated
    counts = np.zeros(n, dtype=np.int64)
    for _ in range(REPS):
        ids = vaccination_step(pop, 0, config, rng, np.count_nonzero(vaccinated))
        assert len(ids) <= doses and np.all(np.diff(ids) > 0)
        counts[ids] += 1
        pop.comp[:], pop.vaccinated[:], pop.tally = comp, vaccinated, tally.copy()
    reference = np.zeros(n)
    reference[eligible] = vaccination_inclusion(pop.willingness[eligible].tolist(), doses)
    check_inclusion(counts, reference, pop.willingness, REPS)


def flat_episodes(pop, ids, load, t0=0.5):
    """Give agents ``ids`` an episode exposed on day 0 whose load is ``load``
    from ``t0`` days on until day 51."""
    profile = ViralLoadProfile(t0=t0, V0=load, tP=1.0, VP=load, tS=0.0, tF=50.0 - t0, VF=load,
                               symptomatic=False)
    params = np.tile(profile_params(profile), (len(ids), 1)).T
    asymptomatic = np.zeros(len(ids), bool)
    start_episodes(pop, ids, 0, params, episode_schedule(params, asymptomatic, asymptomatic, 1e3))
    pop.move(ids, C.INFECTIOUS_ASYMPTOMATIC)


TESTING_DAY = 7
# (agents, eligible samples, pooling type). Pools of 5: 1,503 and 9,003
# samples leave a remainder pool of 3, and 21 a pool of one, so that about one
# sample in 21 lands in it
TESTING_CASES = [(2000, 1503, "average"), (10_000, 9003, "average"), (10_000, 9003, "exponential"),
                 (10_000, 21, "average")]


@pytest.mark.parametrize("n,m,pooling_type", TESTING_CASES)
def test_testing_day_gives_each_sample_its_dorfman_probability(n, m, pooling_type):
    # Power, REPS days, average pooling: a bias in one sample's probability of
    # a positive result is detected at 80% power from 8% of π for a high-load
    # carrier (π 0.64), 13% for a diluted one (π 0.41) and 54-57% for a
    # non-carrier (π 0.04) at 1,503 and 9,003 samples; one shared by a group of
    # a tenth of a class from 1.7%, 2.9% and 4.2% (1,503) and 0.7%, 1.2% and
    # 1.7% (9,003). With 21 samples every group is one sample, and a
    # non-carrier's bias is detected from 35% of π. A bias in the mean of the
    # tests used is detected from 0.3% (1,503), 0.1% (9,003) and 1.9% (21) of
    # it, and one in their variance from about 11%.
    rng = np.random.default_rng(1943 + m)
    pop = Population(n)
    # a tenth of all agents carry a load far above the cut, a tenth one of
    # 400, which the average of a pool of 5 dilutes below the cut of 100
    # unless another carrier joins it, and a tenth have an episode whose load
    # window is not yet open; then all but m agents are isolated, half of them
    # with a load, or held back after an isolation
    high, low, latent, _ = np.split(rng.permutation(n), [n // 10, n // 5, 3 * n // 10])
    flat_episodes(pop, np.sort(high), 1e8)
    flat_episodes(pop, np.sort(low), 400.0)
    flat_episodes(pop, np.sort(latent), 1e8, t0=20.0)
    load = np.zeros(n)  # on TESTING_DAY
    load[high], load[low] = 1e8, 400.0
    ineligible = rng.permutation(n)[m:]
    isolated, held = ineligible[::2], ineligible[1::2]
    pop.move(isolated, np.where(pop.comp[isolated] == C.INFECTIOUS_ASYMPTOMATIC,
                                C.ISOLATED_SICK, C.ISOLATED_HEALTHY))
    pop.release_day[held] = TESTING_DAY - 1
    config = ScenarioConfig(poolSize=5, poolingType=pooling_type, fprSingle=0.1, fnrSingle=0.2,
                            detectionCut=100.0, noTestingPostIsolationDays=5,
                            daysDelayTestResults=0)
    ids = eligible(pop, TESTING_DAY, config).nonzero()[0]
    assert ids.size == m
    loads = load[ids]
    # the classes: 0 for a non-carrier, 1 for a diluted carrier, 2 for another
    classes = np.full(n, -1)
    classes[ids] = np.searchsorted([100.0, 1e3], loads)
    reference = np.zeros(n)
    reference[ids] = reference_module.testing_inclusion(loads.tolist(), config)

    positive = np.zeros(n, dtype=np.int64)
    tests = np.empty(REPS)
    for r in range(REPS):
        pending = {}
        tests[r] = run_testing_day(pop, config, TESTING_DAY, pending, rng)
        found = pending.pop(TESTING_DAY, np.empty(0, dtype=np.int64))
        assert pending == {} and np.all(np.diff(found) > 0)
        positive[found] += 1
    assert np.array_equal(eligible(pop, TESTING_DAY, config).nonzero()[0], ids)  # testing moves nobody
    check_inclusion(positive, reference, classes, REPS)

    # the tests used: their mean against the exact mean, with the exact
    # variance, and their variance against the exact variance, with the
    # sample's fourth central moment
    mean, variance = reference_module.testing_tests_moments(loads.tolist(), config)
    m4 = np.mean((tests - tests.mean()) ** 4)
    z = [(tests.mean() - mean) / np.sqrt(variance / REPS),
         (tests.var(ddof=1) - variance) / np.sqrt((m4 - tests.var() ** 2) / REPS)]
    assert np.all(np.abs(z) < bound(2)), (tests.mean(), mean, tests.var(ddof=1), variance)
