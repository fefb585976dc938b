"""Daily exposure processes: importation from outside the population and
mass-action spread within it.

External exposure has the daily probability gamma
(``externalExposureProbDaily``), internal propagation the mass-action term
beta*I/P, where I counts the infectious and P the agents outside isolation.
A vaccinated susceptible is exposed with alpha (``vaccineInfectionProb``)
times that probability. Either is clamped into [0, 1].

Both stages draw the same way. One uniform per S_u agent in ascending id
order decides who is exposed, then one per S_v agent. The newly exposed ids
of the stage, in ascending order, then get one vector per episode draw (see
:func:`expose`).
"""

from __future__ import annotations

import numpy as np

from .core import (
    E,
    I_A,
    I_S,
    ISO_HEALTHY,
    S_U,
    S_V,
    Population,
    ScenarioConfig,
)
from .viral_load import key_days, sample_params


def expose(
    population: Population,
    ids: np.ndarray,
    day: int,
    config: ScenarioConfig,
    rng: np.random.Generator,
) -> None:
    """Move the susceptible agents ``ids`` (ascending) to exposed, each with a
    fresh infection episode.

    One vector each, in order: symptomatic assignment, the trajectory
    parameters (:func:`~episim.viral_load.sample_params`), then the
    self-isolation propensity.
    """
    if ids.size == 0:
        return
    symptomatic = rng.random(ids.size) < config.fractionSymptomatic
    params = sample_params(config, symptomatic, rng)
    will_isolate = rng.random(ids.size) < config.selfIsolationOnSymptomsProb
    start_episodes(population, ids, day, params, symptomatic, will_isolate)


def start_episodes(
    population: Population,
    ids: np.ndarray,
    day: int,
    params: np.ndarray,
    symptomatic: np.ndarray,
    will_isolate: np.ndarray,
) -> None:
    """Put agents ``ids`` in E with the episodes ``params`` (rows of
    :func:`~episim.viral_load.sample_params`) exposed on ``day``, and store
    each episode's key days (:func:`~episim.viral_load.key_days`)."""
    population.params[ids] = params
    population.comp[ids] = E
    population.exposure_day[ids] = day
    (
        population.first_load_day[ids],
        population.past_peak_day[ids],
        population.last_load_day[ids],
        population.onset_day[ids],
    ) = key_days(params, day, symptomatic)
    population.recovery_day[ids] = np.nan
    population.selfiso_candidate[ids] = symptomatic & will_isolate


def _bernoulli_expose(
    population: Population,
    p: float,
    day: int,
    config: ScenarioConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    # One draw per candidate keeps stream consumption fixed; a block with
    # no candidates or a zero probability draws nothing.
    exposed = []
    for comp, prob in ((S_U, p), (S_V, p * config.vaccineInfectionProb)):
        prob = min(max(prob, 0.0), 1.0)
        candidates = population.ids(comp)
        if candidates.size and prob > 0.0:
            exposed.append(candidates[rng.random(candidates.size) < prob])
    ids = np.sort(np.concatenate(exposed)) if exposed else np.empty(0, dtype=np.int64)
    expose(population, ids, day, config, rng)
    return ids


def external_exposure_step(
    population: Population,
    config: ScenarioConfig,
    day: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Expose in-population susceptibles from outside contacts; returns the
    newly exposed ids."""
    return _bernoulli_expose(population, config.externalExposureProbDaily, day, config, rng)


def internal_propagation_step(
    population: Population,
    config: ScenarioConfig,
    day: int,
    rng: np.random.Generator,
    counts: np.ndarray,
) -> np.ndarray:
    """Expose in-population susceptibles via mass action; returns the newly
    exposed ids.

    The infectious pressure I/P comes from ``counts``, the agents per
    compartment indexed by :class:`~episim.core.Compartment`. The engine
    passes the previous day's end-of-day counts, matching the discrete update
    new_exposures(t) = beta * I(t-1)/P(t-1) * S(t-1). The counts are fixed
    before any exposure happens, so new cases cannot cascade within the same
    day.
    """
    infectious = int(counts[I_S] + counts[I_A])
    if infectious == 0:
        return np.empty(0, dtype=np.int64)
    # I is counted in P, so P > 0 here
    p = config.betaDaily * infectious / int(counts[:ISO_HEALTHY].sum())
    return _bernoulli_expose(population, p, day, config, rng)
