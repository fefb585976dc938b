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

from .core import (DAY_ROWS, DISTRIBUTION_FIELDS, E, EPISODE_DAYS, I_A, I_S, ISO_HEALTHY,
                   START_DAYS, S_U, S_V, TRANSITION_DAYS, Population, ScenarioConfig,
                   first_occurrences)
from .viral_load import sample_params, start_days, transition_days


# Episodes per draw from a run's episodes stream. A part of the stream
# contract, not a setting: another size hands out other episodes.
EPISODE_BLOCK = 256
# The most blocks one refill draws ahead of what is asked for: each refill
# draws twice the blocks of the one before, up to this many and up to one
# block per REFILL_AGENTS agents, so that a small population's refills, and
# the temporaries of their schedules, stay small.
REFILL_BLOCKS = 8
REFILL_AGENTS = 1024
# Populations of at least this many agents draw how many each exposure stage
# exposes, then who; smaller ones draw one uniform per susceptible agent. The
# uniforms keep two scenarios' exposures paired by agent, which the count and
# subset do not: at 2,000 agents the count-and-subset draw more than doubled
# the SD of the same-run-index difference in infections between two testing
# schemes. Only exposure has this rule; a testing day draws one law at every
# size. A part of the stream contract (:class:`~episim.core.Streams`), not a
# setting.
SPARSE_EXPOSURE_AGENTS = 10_000

FIELDS = len(DISTRIBUTION_FIELDS)
ONSET, FIRST_LOAD, LAST_LOAD, SELFISO = map(
    DAY_ROWS.index, ("onset_day", "first_load_day", "last_load_day", "selfiso_day"))


class EpisodeSource:
    """The infection episodes of one run, drawn from its ``episodes`` stream
    ``rng`` in blocks of ``EPISODE_BLOCK`` and handed out in draw order.

    The episodes drawn and not yet handed out are the columns of one
    ``(14, m)`` array, ``held``: the trajectory, field-major (one row per
    field of ``DISTRIBUTION_FIELDS`` and one column per episode), then its
    whole schedule as offsets from the exposure day, one row per day of
    ``core.EPISODE_DAYS``: 0 for the exposure day; the start days
    (:func:`~episim.viral_load.start_days`); the transition days of a first
    status update on the exposure day
    (:func:`~episim.viral_load.transition_days`); and the self-isolation day,
    the first symptomatic day where willing and symptomatic, else NaN
    (:func:`episode_schedule`). Each refill derives the schedule of all the
    blocks it draws in one pass.
    :class:`~episim.core.Streams` gives the draw order.
    """

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        self.held = np.empty((FIELDS + EPISODE_DAYS.stop, 0))
        self.blocks = 0  # the blocks of the last refill

    def _refill(self, short: int) -> None:
        config, rng = self.config, self.rng
        ahead = min(2 * self.blocks, REFILL_BLOCKS, max(config.popSize // REFILL_AGENTS, 1))
        self.blocks = max(-(-short // EPISODE_BLOCK), ahead)
        k = self.blocks * EPISODE_BLOCK
        # the new array is made, and the old one freed, before the schedule's
        # temporaries, so that the heap they take can be given back after
        held = np.empty((FIELDS + EPISODE_DAYS.stop, self.held.shape[1] + k))
        held[:, :-k] = self.held
        self.held = held
        params = held[:FIELDS, -k:]
        symptomatic, willing = np.empty((2, k), dtype=bool)
        for start in range(0, k, EPISODE_BLOCK):
            block = slice(start, start + EPISODE_BLOCK)
            symptomatic[block] = rng.random(EPISODE_BLOCK) < config.fractionSymptomatic
            params[:, block] = sample_params(config, symptomatic[block], rng)
            willing[block] = rng.random(EPISODE_BLOCK) < config.selfIsolationOnSymptomsProb
        held[FIELDS:, -k:] = episode_schedule(params, symptomatic, willing,
                                              config.infectiousViralLoadCut)

    def take(self, n: int, first_tau: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """The next ``n`` episodes: their trajectories and their schedules (a
        ``(7, n)`` array of offsets), for a first status update ``first_tau``
        days after exposure. Only an episode whose load window opens before
        that update (t0 = 0 for ``first_tau`` 1) has other transition days,
        and it self-isolates on that update at the earliest."""
        short = n - self.held.shape[1]
        if short > 0:
            self._refill(short)
        taken, self.held = self.held[:, :n], self.held[:, n:]
        params, offsets = taken[:FIELDS], taken[FIELDS:]
        early = (offsets[FIRST_LOAD] < first_tau).nonzero()[0]
        if early.size:
            offsets[:, early] = episode_schedule(
                params[:, early], np.isfinite(offsets[ONSET, early]),
                np.isfinite(offsets[SELFISO, early]), self.config.infectiousViralLoadCut, first_tau)
        return params, offsets


def episode_schedule(params: np.ndarray, symptomatic: np.ndarray, selfiso: np.ndarray, cut: float,
                     first_tau: int = 0) -> np.ndarray:
    """The whole schedule of the episodes of the field-major ``params`` (one
    row per field of ``DISTRIBUTION_FIELDS`` and one column per episode), as
    offsets from exposure: a ``(7, k)`` array in the order of
    ``core.EPISODE_DAYS``. It holds 0 for the exposure day; the start days
    (:func:`~episim.viral_load.start_days`); the transition days of a status
    update run every day from ``first_tau`` days after exposure
    (:func:`~episim.viral_load.transition_days`); and, where ``selfiso``
    (willing and symptomatic), the self-isolation day, the later of the first
    symptomatic day and that first update, else NaN."""
    offsets = np.empty((EPISODE_DAYS.stop, params.shape[1]))
    offsets[0] = 0.0
    offsets[START_DAYS] = start_days(params, symptomatic)
    offsets[TRANSITION_DAYS] = transition_days(params, cut, first_tau)
    offsets[SELFISO] = np.where(selfiso, np.maximum(offsets[ONSET], first_tau), np.nan)
    return offsets


def expose(population: Population, ids: np.ndarray, day: int, first_update: int,
           episodes: EpisodeSource) -> None:
    """Move the susceptible agents ``ids`` (ascending) to exposed on ``day``,
    with the next episodes of ``episodes`` in id order. The first status update
    to see them is on ``first_update``: ``day`` for a seed or an external
    exposure, the next day for an internal one."""
    if ids.size:
        start_episodes(population, ids, day, *episodes.take(ids.size, first_update - day))


def start_episodes(population: Population, ids: np.ndarray, day: int, params: np.ndarray,
                   offsets: np.ndarray) -> None:
    """Put agents ``ids`` in E with the episodes ``params``, field-major (one
    row per field of ``DISTRIBUTION_FIELDS`` and one column per episode),
    exposed on ``day``, with their whole schedule ``offsets`` days later (a
    ``(7, k)`` array in the order of ``core.EPISODE_DAYS``, as
    :meth:`EpisodeSource.take` gives it). A self-isolation day later than the
    last load day, as stored, is NaN: that episode never self-isolates."""
    population.params[:, ids] = params
    population.comp[ids] = E
    days = (offsets + day).astype(np.float32)
    days[SELFISO, days[SELFISO] > days[LAST_LOAD]] = np.nan
    population.days[EPISODE_DAYS, ids] = days


def uniform_subset(values: np.ndarray, c: int, k: int, s: int,
                   rng: np.random.Generator) -> np.ndarray:
    """A uniform ``k``-subset of the ``s`` indices i where ``values[i] == c``:
    the first ``k`` distinct such indices among batches of uniform draws over
    all indices, or, when ``k`` is more than an eighth of ``s`` and so would
    take as many draws as a scan, one ``choice`` among those indices in
    ascending order. Exposure draws the exposed of one compartment with it
    and a testing day its positive non-carriers."""
    if 8 * k > s:
        return rng.choice((values == c).nonzero()[0], size=k, replace=False)
    chosen = np.empty(0, dtype=np.int64)
    while chosen.size < k:
        # enough draws to hit the missing members, with a quarter to spare
        draws = rng.integers(values.size, size=int(1.25 * (k - chosen.size) * values.size / s) + 16)
        hits = np.concatenate([chosen, draws[values[draws] == c]])
        chosen = hits[first_occurrences(hits)][:k]
    return chosen


def draw_exposures(
    population: Population,
    p: float,
    config: ScenarioConfig,
    rng: np.random.Generator,
    susceptible: Sequence[int] | None = None,
) -> np.ndarray:
    """The ascending ids that one exposure stage exposes: each S_u agent with
    probability ``p`` and each S_v agent with ``vaccineInfectionProb`` times
    that, either capped at 1. ``susceptible``, the agents per compartment
    indexed by :class:`~episim.core.Compartment`, gives |S_u| and |S_v| where
    known; else the population is counted. :class:`~episim.core.Streams`
    gives the draws; a compartment with no candidates or a zero probability
    draws nothing."""
    comp = population.comp
    exposed = []
    for c, prob in ((S_U, p), (S_V, p * config.vaccineInfectionProb)):
        prob = min(prob, 1.0)
        if comp.size < SPARSE_EXPOSURE_AGENTS:
            candidates = (comp == c).nonzero()[0]
            if candidates.size and prob > 0.0:
                exposed.append(candidates[rng.random(candidates.size) < prob])
            continue
        s = int(susceptible[c]) if susceptible is not None else np.count_nonzero(comp == c)
        if s and prob > 0.0:
            k = int(rng.binomial(s, prob))
            if k:
                exposed.append(uniform_subset(comp, c, k, s, rng))
    if not exposed:
        return np.empty(0, dtype=np.int64)
    ids = np.concatenate(exposed)
    ids.sort()
    return ids


def external_exposure_step(
    population: Population,
    config: ScenarioConfig,
    day: int,
    rng: np.random.Generator,
    episodes: EpisodeSource,
    counts: Sequence[int],
) -> np.ndarray:
    """Expose in-population susceptibles from outside contacts; returns the
    newly exposed ids. ``counts``, the agents per compartment indexed by
    :class:`~episim.core.Compartment`, are those of the population as it is:
    the engine passes the previous day's end-of-day counts, as this stage
    comes first."""
    ids = draw_exposures(population, config.externalExposureProbDaily, config, rng, counts)
    expose(population, ids, day, day, episodes)
    return ids


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
    ids = draw_exposures(population, p, config, rng)
    expose(population, ids, day, day + 1, episodes)
    return ids
