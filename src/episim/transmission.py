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

from .core import E, I_A, I_S, ISO_HEALTHY, KEY_DAYS, S_U, S_V, Population, ScenarioConfig
from .viral_load import key_days, onset_days, sample_params


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
    :func:`~episim.viral_load.sample_params`) exposed on ``day``; the status
    update sets their key days (:func:`schedule_episodes`)."""
    population.params[ids] = params
    population.comp[ids] = E
    population.exposure_day[ids] = day
    population.onset_day[ids] = onset_days(params, day, symptomatic)
    population.selfiso_candidate[ids] = symptomatic & will_isolate


def schedule_episodes(population: Population, day: int, cut: float) -> None:
    """Store the key days (:func:`~episim.viral_load.key_days`) under the load
    cut ``cut`` of the episodes that have none yet, in a status update on
    ``day``. An episode's first status update is on its exposure day (a seed
    or an external exposure) or the next day, but its status and its load
    cannot change before its first load day, so from any day up to that one
    its key days are the same. They are set once one of the waiting episodes
    reaches its first load day or leaves E, for all of them."""
    ids = (np.isfinite(population.exposure_day) & np.isnan(population.last_load_day)).nonzero()[0]
    exposure_day = population.exposure_day[ids]
    first_load_day = exposure_day + np.ceil(population.params[ids, 0])
    if np.any(first_load_day <= day) or np.any(population.comp[ids] != E):
        columns = np.take(population.params.T, ids, axis=1)
        population.days[KEY_DAYS, ids] = key_days(columns, exposure_day, cut, day)


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
