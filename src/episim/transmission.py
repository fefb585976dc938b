"""Daily exposure processes: importation from outside the population and
mass-action spread within it.

External exposure has the daily probability gamma
(``externalExposureProbDaily``), internal propagation the mass-action term
beta*I/P, where I counts the infectious and P the agents outside isolation.
A vaccinated susceptible is exposed with alpha (``vaccineInfectionProb``)
times that probability. Either is capped at 1. Who is exposed is
drawn from the run's ``exposure`` stream, and each new episode is taken from
its ``episodes`` stream (:class:`~episim.core.Streams`).

The internal probability is beta*I/P itself, not the escape form
1 - exp(-beta*I/P), so an outbreak with a large beta*I/P spreads faster than
R0 = beta*tau (:mod:`episim.calibration`) says. On the default config over
300 days, 6 runs for each of 4 base seeds, beta calibrated to R0 5 gives a
final-size R0 of 5.58-5.70 (+12% to +14%); the escape form read 4.87-5.08.
At targets 0.8, 1.2 and 2 it reads within 2%.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import (DISTRIBUTION_FIELDS, E, I_A, I_S, ISO_HEALTHY, START_DAYS, S_U, S_V, Population,
                   ScenarioConfig)
from .viral_load import sample_params, start_days


# Episodes per draw from a run's episodes stream. A part of the stream
# contract, not a setting: another size hands out other episodes.
EPISODE_BLOCK = 256


class EpisodeSource:
    """The infection episodes of one run, drawn from its ``episodes`` stream
    ``rng`` in blocks of ``EPISODE_BLOCK`` and handed out in draw order.

    The episodes drawn and not yet handed out are the columns of one
    ``(11, m)`` array, ``held``: the trajectory, field-major (one row per
    field of ``DISTRIBUTION_FIELDS`` and one column per episode); its start
    days counted from the exposure day
    (:func:`~episim.viral_load.start_days`: the first symptomatic day, NaN if
    asymptomatic, and the first and last load day); and 1 where it is willing
    to self-isolate on symptoms and symptomatic, else 0.
    :class:`~episim.core.Streams` gives the draw order.
    """

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        self.held = np.empty((len(DISTRIBUTION_FIELDS) + 3 + 1, 0))

    def _draw_block(self) -> np.ndarray:
        config, rng = self.config, self.rng
        symptomatic = rng.random(EPISODE_BLOCK) < config.fractionSymptomatic
        params = sample_params(config, symptomatic, rng)
        willing = rng.random(EPISODE_BLOCK) < config.selfIsolationOnSymptomsProb
        return np.vstack([params, start_days(params, 0, symptomatic), symptomatic & willing])

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next ``n`` episodes: their trajectories, start-day offsets (a
        ``(3, n)`` array) and flags of the symptomatic and willing."""
        short = n - self.held.shape[1]
        if short > 0:
            blocks = [self._draw_block() for _ in range(-(-short // EPISODE_BLOCK))]
            self.held = np.hstack([self.held, *blocks])
        taken, self.held = self.held[:, :n], self.held[:, n:]
        fields = len(DISTRIBUTION_FIELDS)
        return taken[:fields], taken[fields:-1], taken[-1] == 1.0


def expose(population: Population, ids: np.ndarray, day: int, first_update: int,
           episodes: EpisodeSource) -> None:
    """Move the susceptible agents ``ids`` (ascending) to exposed on ``day``,
    with the next episodes of ``episodes`` in id order. The first status update
    to see them is on ``first_update``: ``day`` for a seed or an external
    exposure, the next day for an internal one."""
    if ids.size:
        start_episodes(population, ids, day, first_update, *episodes.take(ids.size))


def start_episodes(
    population: Population,
    ids: np.ndarray,
    day: int,
    first_update: int,
    params: np.ndarray,
    start: np.ndarray,
    selfiso: np.ndarray,
) -> None:
    """Put agents ``ids`` in E with the episodes ``params``, field-major (one
    row per field of ``DISTRIBUTION_FIELDS`` and one column per episode),
    exposed on ``day``, with their start days ``start`` days later (a ``(3,
    k)`` array of :func:`~episim.viral_load.start_days` offsets). Their
    transition days wait for the status update. Where ``selfiso`` (willing and
    symptomatic), the self-isolation day is the later of the first symptomatic
    day and ``first_update`` if no later than the last load day; else NaN."""
    population.params[:, ids] = params
    population.comp[ids] = E
    population.exposure_day[ids] = day
    population.days[START_DAYS, ids] = start + day
    selfiso_day = np.maximum(population.onset_day[ids], first_update)
    selfiso_day[~selfiso | (selfiso_day > population.last_load_day[ids])] = np.nan
    population.selfiso_day[ids] = selfiso_day


def _bernoulli_expose(
    population: Population,
    p: float,
    day: int,
    first_update: int,
    config: ScenarioConfig,
    rng: np.random.Generator,
    episodes: EpisodeSource,
) -> np.ndarray:
    # One draw per candidate keeps stream consumption fixed; a compartment
    # with no candidates or a zero probability draws nothing.
    exposed = []
    for comp, prob in ((S_U, p), (S_V, p * config.vaccineInfectionProb)):
        prob = min(prob, 1.0)
        candidates = (population.comp == comp).nonzero()[0]
        if candidates.size and prob > 0.0:
            exposed.append(candidates[rng.random(candidates.size) < prob])
    if not exposed:
        return np.empty(0, dtype=np.int64)
    ids = np.concatenate(exposed)
    ids.sort()
    expose(population, ids, day, first_update, episodes)
    return ids


def external_exposure_step(
    population: Population,
    config: ScenarioConfig,
    day: int,
    rng: np.random.Generator,
    episodes: EpisodeSource,
) -> np.ndarray:
    """Expose in-population susceptibles from outside contacts; returns the
    newly exposed ids."""
    return _bernoulli_expose(population, config.externalExposureProbDaily, day, day, config,
                             rng, episodes)


def internal_propagation_step(
    population: Population,
    config: ScenarioConfig,
    day: int,
    rng: np.random.Generator,
    episodes: EpisodeSource,
    counts: Sequence[int],
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
    p = config.betaDaily * infectious / int(sum(counts[:ISO_HEALTHY]))
    return _bernoulli_expose(population, p, day, day + 1, config, rng, episodes)
