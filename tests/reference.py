"""Scalar reference forms of the simulator's array kernels, one agent or one
sample at a time.

The package evaluates whole populations at once (``viral_load.load_array``,
``viral_load.transition_days``, the stage-1 probabilities of a testing day's
pools). The kernel tests check those against the plain rules here: a
trajectory's load and status, the days a daily status update moves it, its
symptom window, and single and pooled tests. The inclusion tests check the
stages that choose agents against the probability with which the plain rule
chooses each one: an exposure stage's, the daily vaccination's and a testing
day's positives.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from episim.core import DISTRIBUTION_FIELDS, Compartment, ScenarioConfig
from episim.viral_load import sample_params


class InfectionStage(Enum):
    LATENT = "latent"
    INFECTIOUS = "infectious"
    RECOVERED = "recovered"


@dataclass(frozen=True, slots=True)
class ViralLoadProfile:
    """Sampled trajectory parameters for one infection episode.

    Times are days since exposure, loads in cp/ml. ``tS`` is 0 for
    asymptomatic profiles. The key times are summed in the same order as
    ``viral_load.key_times`` sums them.
    """

    t0: float
    V0: float
    tP: float
    VP: float
    tS: float
    tF: float
    VF: float
    symptomatic: bool

    @property
    def peak_time(self) -> float:
        return self.t0 + self.tP

    @property
    def end_time(self) -> float:
        return self.t0 + self.tP + self.tS + self.tF

    @property
    def symptom_onset_time(self) -> Optional[float]:
        if not self.symptomatic:
            return None
        return self.t0 + self.tP + self.tS


# (t0, V0, tP, VP, tS, tF, VF) of a profile, one column of sample_params
profile_params = operator.attrgetter(*DISTRIBUTION_FIELDS)


def sample_profile(
    config: ScenarioConfig, symptomatic: bool, rng: np.random.Generator
) -> ViralLoadProfile:
    """Draw one trajectory: one column of ``sample_params``."""
    column = sample_params(config, np.array([symptomatic]), rng)[:, 0]
    return ViralLoadProfile(*column.tolist(), symptomatic=symptomatic)


def load_at(profile: ViralLoadProfile, tau: float) -> float:
    """Viral load (cp/ml) at ``tau`` days since exposure.

    Exactly V0/VP/VF at the control points, log-linear in between, and 0
    before t0 and after the end of the trajectory.
    """
    t0 = profile.t0
    peak = profile.peak_time
    end = profile.end_time
    if tau < t0 or tau > end:
        return 0.0
    if tau == t0:
        return profile.V0
    if tau == peak:
        return profile.VP
    if tau == end:
        return profile.VF
    if tau < peak:
        frac = (tau - t0) / (peak - t0)
        log_v = math.log10(profile.V0) + frac * (
            math.log10(profile.VP) - math.log10(profile.V0)
        )
    else:
        frac = (tau - peak) / (end - peak)
        log_v = math.log10(profile.VP) + frac * (
            math.log10(profile.VF) - math.log10(profile.VP)
        )
    return 10.0 ** log_v


def symptomatic_now(profile: ViralLoadProfile, tau: float) -> bool:
    """True while a symptomatic profile is inside its symptom window."""
    if not profile.symptomatic:
        return False
    return profile.symptom_onset_time <= tau <= profile.end_time


def status_at(
    profile: ViralLoadProfile, tau: float, infectious_cut: float
) -> tuple[InfectionStage, bool]:
    """Classify an infection at ``tau`` days since exposure.

    Infectious while the load strictly exceeds ``infectious_cut`` inside the
    trajectory; recovered once the trajectory is over or the load has dropped
    back below the cut after the peak; latent otherwise. Also reports whether
    symptoms are currently present.
    """
    if tau > profile.end_time:
        return InfectionStage.RECOVERED, False
    load = load_at(profile, tau)
    showing = symptomatic_now(profile, tau)
    if load > infectious_cut:
        return InfectionStage.INFECTIOUS, showing
    if tau > profile.peak_time and load < infectious_cut:
        return InfectionStage.RECOVERED, showing
    return InfectionStage.LATENT, showing


def transition_taus(
    profile: ViralLoadProfile, infectious_cut: float, first_tau: int
) -> tuple[Optional[int], int]:
    """The days since exposure on which a status update, run on every whole
    day from ``first_tau`` on, moves an episode from E to I (None if it never
    does) and to R, stepping :func:`status_at` one day at a time."""
    infectious = None
    tau = first_tau
    while True:
        stage, _ = status_at(profile, tau, infectious_cut)
        if stage is InfectionStage.RECOVERED:
            return infectious, tau
        if stage is InfectionStage.INFECTIOUS and infectious is None:
            infectious = tau
        tau += 1


def single_probability(viral_load: float, config: ScenarioConfig) -> float:
    """The probability that one test on one sample comes back positive.

    Samples at or below the detection cut can only false-positive; detectable
    samples miss at the false-negative rate.
    """
    if viral_load <= config.detectionCut:
        return config.fprSingle
    return 1.0 - config.fnrSingle


def average_pool_probability(loads: Sequence[float], config: ScenarioConfig) -> float:
    """The probability that the stage-1 test of a pool whose load is the mean
    of its samples' comes back positive."""
    return single_probability(sum(loads) / len(loads), config)


def exponential_pool_probability(loads: Sequence[float], config: ScenarioConfig) -> float:
    """The probability that the stage-1 test of a pool with k detectable
    samples comes back positive: the false-positive rate if k is 0, else
    1 - fnr**k, each detectable sample contributing independently."""
    k = sum(1 for v in loads if v > config.detectionCut)
    return config.fprSingle if k == 0 else 1.0 - config.fnrSingle ** k


POOL_PROBABILITY = {"average": average_pool_probability,
                    "exponential": exponential_pool_probability}


def single_test(viral_load: float, config: ScenarioConfig, rng: np.random.Generator) -> bool:
    """One test on one sample; True means positive."""
    return bool(rng.random() < single_probability(viral_load, config))


def pool_test_average(
    loads: Sequence[float], config: ScenarioConfig, rng: np.random.Generator
) -> bool:
    """Stage-1 pool test where the pool's load is the mean of its samples."""
    return bool(rng.random() < average_pool_probability(loads, config))


def pool_test_exponential(
    loads: Sequence[float], config: ScenarioConfig, rng: np.random.Generator
) -> bool:
    """Stage-1 pool test driven by the number of detectable samples k."""
    return bool(rng.random() < exponential_pool_probability(loads, config))


def exposure_probability(compartment: Compartment, p: float, alpha: float) -> float:
    """The probability with which an exposure stage of probability ``p``
    exposes one agent in ``compartment``: ``p`` if unvaccinated susceptible,
    ``alpha * p`` if vaccinated susceptible, each capped at 1, else 0."""
    if compartment == Compartment.SUSCEPTIBLE_UNVACCINATED:
        return min(p, 1.0)
    if compartment == Compartment.SUSCEPTIBLE_VACCINATED:
        return min(p * alpha, 1.0)
    return 0.0


def vaccination_inclusion(willingness: Sequence[float], doses: int) -> list[float]:
    """The probability that each eligible agent, of acceptance probability
    ``willingness[i]``, is vaccinated under the rule of one draw per eligible
    agent: each is willing with its probability, and when the willing
    outnumber the ``doses`` the recipients are a uniform choice of ``doses``
    among them. Agent i is willing with probability w_i and then vaccinated
    with probability min(1, doses / (1 + M)), where M, the number of the
    other agents who are willing, has the distribution built up one agent at
    a time below."""
    def others_willing(skip: int) -> list[float]:
        pmf = [1.0]  # pmf[m]: the probability that m of the agents so far are willing
        for j, w in enumerate(willingness):
            if j != skip:
                pmf = [a * (1.0 - w) + b * w for a, b in zip(pmf + [0.0], [0.0] + pmf)]
        return pmf

    # agents of equal willingness have others of the same distribution
    given_willing = {}
    for i, w in enumerate(willingness):
        if w not in given_willing:
            given_willing[w] = sum(q * min(1.0, doses / (1 + m))
                                   for m, q in enumerate(others_willing(i)))
    return [w * given_willing[w] for w in willingness]


def _draws(counts: Sequence[int], size: int):
    """Each way to draw ``size`` of the samples of the classes of ``counts``
    samples, without replacement: the samples per class drawn, and the
    probability of that draw (multivariate hypergeometric)."""
    ways = math.comb(sum(counts), size)
    for drawn in itertools.product(*(range(min(c, size) + 1) for c in counts)):
        if sum(drawn) == size:
            yield drawn, math.prod(map(math.comb, counts, drawn)) / ways


def _pools(m: int, pool_size: int) -> list[int]:
    """The sizes of the pools of ``m`` samples: full ones of ``pool_size``,
    and the remainder last, if any."""
    return [min(pool_size, m - start) for start in range(0, m, pool_size)]


def testing_inclusion(loads: Sequence[float], config: ScenarioConfig) -> list[float]:
    """The probability that each of the eligible samples, of viral loads
    ``loads``, comes back positive on one testing day under the rule of one
    uniform permutation of the samples into pools of ``config.poolSize``, the
    last holding the remainder: a positive pool of one is a positive result,
    and each member of a positive pool of two or more is tested singly.

    Sample i lands in a pool of size s with probability (pools of size s) *
    s / M, and the other s - 1 members of that pool are a uniform draw from
    the other M - 1 samples, so the pool's loads have Dorfman's hypergeometric
    law (Dorfman 1943), here over the classes of equal load."""
    values = sorted(set(loads))
    counts = [loads.count(v) for v in values]
    sizes = _pools(len(loads), config.poolSize)
    by_value = {}
    for a, v in enumerate(values):
        others = counts[:a] + [counts[a] - 1] + counts[a + 1:]
        p = 0.0
        for s in set(sizes):
            in_pool = sizes.count(s) * s / len(loads)
            retest = 1.0 if s == 1 else single_probability(v, config)
            for drawn, q in _draws(others, s - 1):
                pool = [v] + [w for w, d in zip(values, drawn) for _ in range(d)]
                p += in_pool * q * POOL_PROBABILITY[config.poolingType](pool, config) * retest
        by_value[v] = p
    return [by_value[v] for v in loads]


def testing_tests_moments(loads: Sequence[float], config: ScenarioConfig) -> tuple[float, float]:
    """The mean and variance of the tests used on one testing day of the
    samples of viral loads ``loads``, under the rule of
    :func:`testing_inclusion`: one per pool, plus the members of each positive
    pool of two or more. Pool j is positive, X_j, with the stage-1
    probability of its loads, drawn as in :func:`testing_inclusion`; two
    distinct pools are a joint draw without replacement, and the two stage-1
    tests are independent given their loads."""
    values = sorted(set(loads))
    counts = [loads.count(v) for v in values]
    sizes = _pools(len(loads), config.poolSize)
    pool_probability = POOL_PROBABILITY[config.poolingType]

    def positive(drawn):
        return pool_probability([w for w, d in zip(values, drawn) for _ in range(d)], config)

    def both_positive(a, b):
        return sum(q * positive(drawn) * sum(r * positive(other) for other, r in
                                             _draws([c - d for c, d in zip(counts, drawn)], b))
                   for drawn, q in _draws(counts, a))

    kinds = sorted(set(sizes))
    # per pool size: the members retested when the pool is positive, and the
    # probability that it is
    retested = {a: a if a > 1 else 0 for a in kinds}
    rate = {a: sum(q * positive(drawn) for drawn, q in _draws(counts, a)) for a in kinds}
    mean = len(sizes) + sum(sizes.count(a) * retested[a] * rate[a] for a in kinds)
    # E[(sum_j w_j X_j)^2]: the pairs of distinct pools, then each pool with itself
    second = 0.0
    for a in kinds:
        for b in kinds:
            pairs = sizes.count(a) * (sizes.count(b) - (a == b))
            second += pairs * retested[a] * retested[b] * both_positive(a, b)
        second += sizes.count(a) * retested[a] ** 2 * rate[a]
    extra = mean - len(sizes)
    return mean, second - extra ** 2
