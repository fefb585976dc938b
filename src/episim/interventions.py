"""Isolation (test-driven and symptom-driven) and daily vaccine rollout.

Each stage returns the ascending ids of the agents it moved, and moves them
by :meth:`~episim.core.Population.move`, which keeps the counts per
compartment. Only vaccination draws, from the run's ``vaccination`` stream
(:class:`~episim.core.Streams`).
"""

from __future__ import annotations

import numpy as np

from .core import (E, EPISODE_DAYS, ISO_HEALTHY, ISO_SICK, R, S_U, S_V, Population, ScenarioConfig,
                   first_occurrences)


def _isolate(population: Population, ids: np.ndarray, day: int, config: ScenarioConfig,
             compartment: int) -> None:
    population.move(ids, compartment)
    # a zero-length isolation still lasts until the next day
    release = day + max(config.isolationLength, 1)
    population.release_day[ids] = release
    if compartment == ISO_SICK:
        population.infectious_day[ids] = np.nan
        population.recovery_day[ids] = release


def apply_positive_results(
    population: Population,
    ids: np.ndarray,
    day: int,
    config: ScenarioConfig,
) -> np.ndarray:
    """Isolate agents on a positive result, classified by today's state.

    Susceptible agents were false positives and isolate as healthy; exposed
    and infectious agents isolate as sick; recovered and isolated agents stay
    put. Returns the ids isolated as healthy.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if not ids.size:
        return ids
    comp = population.comp[ids]
    healthy = ids[comp <= S_V]
    _isolate(population, healthy, day, config, ISO_HEALTHY)
    sick = ids[(comp >= E) & (comp < R)]
    _isolate(population, sick, day, config, ISO_SICK)
    return healthy


def self_isolation_step(population: Population, day: int, config: ScenarioConfig) -> np.ndarray:
    """Move the agents in E, I_s or I_a whose self-isolation day is today
    into sick isolation; returns their ids.

    That day, set when an episode starts, is the first day this stage sees it
    with symptoms. An agent leaves E and I within an episode only for R or
    sick isolation, which exits to R, so the episode self-isolates then or
    never.
    """
    due = (population.selfiso_day == day).nonzero()[0]
    if not due.size:
        return due
    comp = population.comp[due]
    moved = due[(comp >= E) & (comp < R)]
    _isolate(population, moved, day, config, ISO_SICK)
    return moved


def isolation_exit_step(population: Population, day: int) -> np.ndarray:
    """Release the agents whose release day is today; returns their ids.

    Sick isolation exits to recovered, on the recovery day it set; healthy
    isolation returns to the susceptible compartment of the vaccination flag.
    """
    released = (population.release_day == day).nonzero()[0]
    if not released.size:
        return released
    sick = population.comp[released] == ISO_SICK
    population.move(released[sick], R, ISO_SICK)
    healthy = released[~sick]
    population.move(healthy, population.susceptible_compartment(healthy), ISO_HEALTHY)
    return released


def recovered_to_susceptible_step(population: Population, day: int,
                                  config: ScenarioConfig) -> np.ndarray:
    """Return recovered agents to susceptibility once immunity has lapsed;
    returns their ids.

    Clears the infection bookkeeping so the agent can be re-infected with a
    fresh trajectory.
    """
    # only R agents have a past recovery day: sick isolation moves it ahead
    returned = (population.recovery_day == day - config.daysTilSusceptible).nonzero()[0]
    if not returned.size:
        return returned
    population.params[:, returned] = np.nan
    population.days[EPISODE_DAYS, returned] = np.nan
    population.move(returned, population.susceptible_compartment(returned), R)
    return returned


def vaccination_step(
    population: Population,
    day: int,
    config: ScenarioConfig,
    rng: np.random.Generator,
    vaccinated_total: int,
) -> np.ndarray:
    """Distribute today's doses among willing, unvaccinated population members;
    returns the ids vaccinated. ``vaccinated_total`` is the number of agents
    vaccinated so far.

    The eligible agents are examined in a uniformly random order, each
    willing today with their personal acceptance probability, until the
    ``vaccinesAvailablePerDay`` doses are taken. So every eligible agent is
    willing independently, and when the willing outnumber the doses the
    recipients are a uniform choice among them, at a cost in proportion to
    the doses. The order comes from uniform draws over all agents, an
    eligible agent taking its place at its first draw; when the draws reach
    a quarter of the agents with doses left, the eligible run short, and the
    rest of the order is a permutation of those not yet examined.
    """
    doses = config.vaccinesAvailablePerDay
    if doses <= 0:
        return np.empty(0, dtype=np.int64)  # no draw
    comp, vaccinated, willingness = population.comp, population.vaccinated, population.willingness
    n = comp.size
    budget = n // 4
    # acceptances per draw, first guessed from the share of the unvaccinated
    rate = config.vaccineAcceptProbMean * (n - vaccinated_total) / n
    drawn, uniforms = np.empty(0, dtype=np.int64), np.empty(0)
    accepted = drawn
    while drawn.size < budget:
        size = min(budget - drawn.size, int(1.25 * (doses - accepted.size) / max(rate, 1 / n)) + 16)
        drawn = np.concatenate([drawn, rng.integers(n, size=size)])
        uniforms = np.concatenate([uniforms, rng.random(size)])
        examined = first_occurrences(drawn) & (comp[drawn] < ISO_HEALTHY) & ~vaccinated[drawn]
        accepted = drawn[examined & (uniforms < willingness[drawn])]
        if accepted.size >= doses:
            return _vaccinate(population, accepted[:doses])
        rate = max(accepted.size, 1) / drawn.size
    rest = population.in_population() & ~vaccinated
    rest[drawn] = False  # every eligible agent drawn was examined
    order = rng.permutation(rest.nonzero()[0])
    willing = order[rng.random(order.size) < willingness[order]]
    return _vaccinate(population, np.concatenate([accepted, willing[:doses - accepted.size]]))


def _vaccinate(population: Population, ids: np.ndarray) -> np.ndarray:
    ids.sort()
    population.vaccinated[ids] = True
    population.move(ids[population.comp[ids] == S_U], S_V, S_U)
    return ids
