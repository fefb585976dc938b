"""Daily exposure processes: importation from outside the population and
mass-action spread within it.

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
    SimulationError,
)
from .viral_load import sample_params


def exposure_probability(
    counts: np.ndarray | None,
    beta: float,
    gamma: float,
    alpha: float,
    vaccinated: bool,
    include_external: bool = True,
    include_internal: bool = True,
) -> float:
    """Daily exposure probability for one susceptible agent.

    gamma covers contacts outside the population, beta*I/P the mass-action
    term inside it; vaccinated agents get the whole sum discounted by alpha.
    The result is clamped into [0, 1]. ``counts`` holds the agents per
    compartment, indexed by :class:`Compartment`, and is read only for the
    internal term; the two isolated states are not in P.
    """
    p = 0.0
    if include_external:
        p += gamma
    if include_internal:
        in_population = int(counts[:ISO_HEALTHY].sum())
        if in_population <= 0:
            raise SimulationError("internal exposure with empty population")
        infectious = int(counts[I_S] + counts[I_A])
        p += beta * infectious / in_population
    if vaccinated:
        p *= alpha
    return min(max(p, 0.0), 1.0)


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
    population.params[ids] = sample_params(config, symptomatic, rng)
    will_isolate = rng.random(ids.size) < config.selfIsolationOnSymptomsProb
    population.comp[ids] = E
    population.exposure_day[ids] = day
    population.recovery_day[ids] = np.nan
    population.symptomatic[ids] = symptomatic
    population.selfiso_candidate[ids] = symptomatic & will_isolate


def _bernoulli_expose(
    population: Population,
    p_unvaccinated: float,
    p_vaccinated: float,
    day: int,
    config: ScenarioConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    # One draw per candidate keeps stream consumption fixed; a block with
    # no candidates or a zero probability draws nothing.
    exposed = []
    for comp, p in ((S_U, p_unvaccinated), (S_V, p_vaccinated)):
        candidates = population.ids(comp)
        if candidates.size and p > 0.0:
            exposed.append(candidates[rng.random(candidates.size) < p])
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
    p_u, p_v = (
        exposure_probability(
            None, config.betaDaily, config.externalExposureProbDaily,
            config.vaccineInfectionProb, vaccinated, include_internal=False,
        )
        for vaccinated in (False, True)
    )
    return _bernoulli_expose(population, p_u, p_v, day, config, rng)


def internal_propagation_step(
    population: Population,
    config: ScenarioConfig,
    day: int,
    rng: np.random.Generator,
    counts: np.ndarray | None = None,
) -> np.ndarray:
    """Expose in-population susceptibles via mass action; returns the newly
    exposed ids.

    The infectious pressure I/P comes from ``counts`` (the engine passes the
    previous day's end-of-day counts, matching the discrete update
    new_exposures(t) = beta * I(t-1)/P(t-1) * S(t-1)); by default the current
    population is counted. Either way the counts are fixed before any
    exposure happens, so new cases cannot cascade within the same day.
    """
    if counts is None:
        counts = population.counts()
    if counts[I_S] + counts[I_A] == 0:
        return np.empty(0, dtype=np.int64)
    p_u, p_v = (
        exposure_probability(
            counts, config.betaDaily, config.externalExposureProbDaily,
            config.vaccineInfectionProb, vaccinated, include_external=False,
        )
        for vaccinated in (False, True)
    )
    return _bernoulli_expose(population, p_u, p_v, day, config, rng)
