"""Scalar reference forms of the simulator's array kernels, one agent or one
sample at a time.

The package evaluates whole populations at once (``viral_load.load_array``,
``viral_load.transition_days``, ``testing.pool_positive_prob``). The kernel tests
check those against the plain rules here: a trajectory's load and status,
the days a daily status update moves it, its symptom window, and single and
pooled tests. The inclusion tests check the stages that choose agents
against the probability with which the plain rule chooses each one: an
exposure stage's and the daily vaccination's.
"""

from __future__ import annotations

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


def single_test(viral_load: float, config: ScenarioConfig, rng: np.random.Generator) -> bool:
    """One test on one sample; True means positive.

    Samples at or below the detection cut can only false-positive; detectable
    samples miss at the false-negative rate.
    """
    if viral_load <= config.detectionCut:
        return bool(rng.random() < config.fprSingle)
    return bool(rng.random() < 1.0 - config.fnrSingle)


def pool_test_average(
    loads: Sequence[float], config: ScenarioConfig, rng: np.random.Generator
) -> bool:
    """Stage-1 pool test where the pool's load is the mean of its samples."""
    return single_test(sum(loads) / len(loads), config, rng)


def pool_test_exponential(
    loads: Sequence[float], config: ScenarioConfig, rng: np.random.Generator
) -> bool:
    """Stage-1 pool test driven by the number of detectable samples k.

    With no detectable sample the pool false-positives at the single-test
    rate; otherwise each detectable sample independently contributes, so the
    pool is positive with probability 1 - fnr**k.
    """
    k = sum(1 for v in loads if v > config.detectionCut)
    if k == 0:
        p_positive = config.fprSingle
    else:
        p_positive = 1.0 - config.fnrSingle ** k
    return bool(rng.random() < p_positive)


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
