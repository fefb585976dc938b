"""Isolation (test-driven and symptom-driven) and daily vaccine rollout.

Each stage returns the ascending ids of the agents it moved. Only
vaccination draws; its draws are documented on :func:`vaccination_step`.
"""

from __future__ import annotations

import numpy as np

from .core import (
    E,
    ISO_HEALTHY,
    ISO_SICK,
    R,
    S_U,
    S_V,
    Population,
    ScenarioConfig,
    SimulationError,
)


def _isolate(
    population: Population,
    ids: np.ndarray,
    day: int,
    config: ScenarioConfig,
    compartment: int,
) -> None:
    population.comp[ids] = compartment
    # a zero-length isolation still lasts until the next day
    population.iso_exit_day[ids] = day + max(config.isolationLength, 1)


def apply_positive_results(
    population: Population,
    ids: np.ndarray,
    day: int,
    config: ScenarioConfig,
) -> np.ndarray:
    """Isolate agents on a positive result, classified by today's state.

    Susceptible agents were false positives and isolate as healthy; exposed
    and infectious agents isolate as sick; recovered agents stay put. Returns
    the ids isolated as healthy. An isolated agent among ``ids`` is an error.
    """
    ids = np.asarray(ids, dtype=np.int64)
    comp = population.comp[ids]
    isolated = ids[comp >= ISO_HEALTHY]
    if isolated.size:
        raise SimulationError(f"agents {isolated.tolist()} are already isolated")
    healthy = ids[comp <= S_V]
    _isolate(population, healthy, day, config, ISO_HEALTHY)
    sick = ids[(comp >= E) & (comp < R)]
    _isolate(population, sick, day, config, ISO_SICK)
    return healthy


def self_isolation_step(
    population: Population,
    day: int,
    config: ScenarioConfig,
) -> np.ndarray:
    """Move willing, currently symptomatic agents into sick isolation; returns
    their ids.

    Each infection episode gets at most one self-isolation decision: the
    candidates are the agents whose propensity draw came up willing and who
    have not triggered yet. A candidate whose symptom window has passed (for
    example while in test-driven isolation) stops being one. The symptom
    window is [first symptomatic day, last load day], read from the episode's
    key days without evaluating its trajectory.
    """
    candidates = population.selfiso_candidate.nonzero()[0]
    last_day = population.last_load_day[candidates]
    showing = (population.onset_day[candidates] <= day) & (day <= last_day)
    moved = candidates[showing & (population.comp[candidates] < ISO_HEALTHY)]
    population.selfiso_candidate[candidates[day > last_day]] = False
    population.selfiso_candidate[moved] = False
    _isolate(population, moved, day, config, ISO_SICK)
    return moved


def isolation_exit_step(
    population: Population,
    day: int,
    config: ScenarioConfig,
) -> np.ndarray:
    """Release agents whose isolation period is over; returns their ids.

    Sick isolation always exits to recovered; healthy isolation returns to the
    susceptible compartment matching the vaccination flag.
    """
    released = (population.iso_exit_day <= day).nonzero()[0]
    sick = released[population.comp[released] == ISO_SICK]
    healthy = released[population.comp[released] == ISO_HEALTHY]
    population.iso_exit_day[released] = np.nan
    population.last_exit_day[released] = day
    mark_recovered(population, sick, day)
    population.comp[healthy] = population.susceptible_compartment(healthy)
    return released


def mark_recovered(population: Population, ids: np.ndarray, day: int) -> None:
    """Move agents to recovered as of ``day``; immunity lapses
    ``daysTilSusceptible`` days later."""
    population.comp[ids] = R
    population.recovery_day[ids] = day


def recovered_to_susceptible_step(
    population: Population,
    day: int,
    config: ScenarioConfig,
) -> np.ndarray:
    """Return recovered agents to susceptibility once immunity has lapsed;
    returns their ids.

    Clears the infection bookkeeping so the agent can be re-infected with a
    fresh trajectory.
    """
    # an agent isolated from R keeps its recovery day, so the compartment is
    # checked too
    returned = (population.recovery_day == day - config.daysTilSusceptible).nonzero()[0]
    returned = returned[population.comp[returned] == R]
    population.params[returned] = np.nan
    for days in (
        population.exposure_day, population.first_load_day, population.past_peak_day,
        population.last_load_day, population.onset_day, population.recovery_day,
    ):
        days[returned] = np.nan
    population.selfiso_candidate[returned] = False
    population.comp[returned] = population.susceptible_compartment(returned)
    return returned


def vaccination_step(
    population: Population,
    day: int,
    config: ScenarioConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Distribute today's doses among willing, unvaccinated population members;
    returns the ids vaccinated.

    Every eligible agent is willing today with their personal acceptance
    probability: one uniform per eligible agent in ascending id order. When
    demand exceeds the ``vaccinesAvailablePerDay`` doses, one ``rng.choice``
    without replacement picks the recipients among the willing.
    """
    doses = config.vaccinesAvailablePerDay
    eligible = (population.in_population() & ~population.vaccinated).nonzero()[0]
    if doses <= 0 or eligible.size == 0:
        return eligible[:0]  # no draw
    willing_idx = (rng.random(eligible.size) < population.willingness[eligible]).nonzero()[0]
    if willing_idx.size > doses:
        willing_idx = np.sort(rng.choice(willing_idx, size=doses, replace=False))
    chosen = eligible[willing_idx]
    population.vaccinated[chosen] = True
    unvaccinated = chosen[population.comp[chosen] == S_U]
    population.comp[unvaccinated] = S_V
    return chosen
