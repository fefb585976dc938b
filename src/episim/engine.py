"""Simulation engine: population initialization, the six-stage daily loop
and replicate execution.

A day's output is one record of :data:`RECORD_DTYPE`, a NumPy structured
dtype whose field names are the run-CSV columns: the day, the eight
compartment counts in :class:`~episim.core.Compartment` order, the day's
external and internal exposures, the cumulative infections and false
isolations, the day's tests, the cumulative cost and the vaccinated total.
The records are a run's only accumulator: entry 0 is the state after
:func:`initialize`, each day's entry adds its events to the one before, and
:func:`run` returns the entries of days 0 to ``timeHorizon - 1``. The counts
are the population's running counts, which :meth:`~episim.core.Population.move`
keeps as each stage moves its agents, so no day counts the whole population.

Daily stage order: (1) external exposure, (2) status updates (result
delivery, isolation exits, status transitions, loss of immunity), (3)
self-isolation, (4) testing, then the delivery of the results due that same
day (a zero ``daysDelayTestResults``), (5) internal propagation, (6)
vaccination.
Each stage works on whole arrays of agent ids in ascending order and takes
its draws from the run's stream for their purpose
(:class:`~episim.core.Streams`), so a run is fully determined by (config,
runIndex). A stage with nothing due that day returns right after the scan
that finds nothing, and draws nothing.

An episode's whole schedule, its start days, transition days (infectious,
recovery) and self-isolation day, is set when it starts; the status update
only compares the day with its transition days (:func:`_advance_infections`),
until a sick isolation ends that schedule with recovery on the release.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .core import (
    E,
    I_A,
    I_S,
    N_COMPARTMENTS,
    R,
    S_U,
    S_V,
    ConfigError,
    Population,
    ScenarioConfig,
    SimulationError,
    Streams,
    make_rng,
)
from .interventions import (
    apply_positive_results,
    isolation_exit_step,
    recovered_to_susceptible_step,
    self_isolation_step,
    vaccination_step,
)
from .testing import deliver_results, run_testing_day
from .transmission import EpisodeSource, expose, external_exposure_step, internal_propagation_step


# One daily record; the field names are the run-CSV column names.
RECORD_DTYPE = np.dtype(
    [(name, np.int64) for name in (
        "day", "s_u", "s_v", "e", "i_s", "i_a", "r", "iso_healthy", "iso_sick",
        "new_ext", "new_int", "cum_infections", "cum_false_iso", "tests_today",
    )]
    + [("cum_cost", np.float64), ("vaccinated_total", np.int64)]
)


@dataclass(frozen=True)
class RunSummary:
    run_index: int
    seed: int
    total_infections: int
    seeded_infections: int
    acquired_infections: int
    total_false_isolations: int
    total_tests: int
    total_cost: float
    cost_per_person_per_day: float


@dataclass
class RunState:
    """Everything one run mutates while stepping through days. ``records[0]``
    is the state after :func:`initialize`: day -1, the seeds as
    ``cum_infections``, the initially vaccinated as ``vaccinated_total`` and
    no events; ``records[d + 1]`` is day ``d``."""

    config: ScenarioConfig
    population: Population
    records: np.ndarray
    streams: Streams
    # the episodes drawn from streams.episodes and not yet handed out
    episodes: EpisodeSource
    # delivery day -> the ascending ids whose positive result is due then
    pending: dict[int, np.ndarray] = field(default_factory=dict)


def initialize(config: ScenarioConfig, streams: Streams) -> RunState:
    """Create the day-0 population of a run with the random ``streams``
    (:func:`~episim.core.make_rng`): seeds exposed, initial vaccinations set.
    The initially vaccinated count is taken as a share of the uninfected.
    ``config`` was checked when it was built, so nothing here checks it.
    """
    n = config.popSize
    population = Population(n)
    rng = streams.init
    np.clip(
        rng.normal(config.vaccineAcceptProbMean, config.vaccineAcceptProbStd, n),
        0.0, 1.0, out=population.willingness,
    )

    seed_ids = np.empty(0, dtype=np.int64)
    if config.initialInfected > 0:
        seed_ids = np.sort(rng.choice(n, size=config.initialInfected, replace=False))
    non_seed = np.ones(n, dtype=bool)
    non_seed[seed_ids] = False
    non_seeds = non_seed.nonzero()[0]
    n_vaccinated = int(config.initProportionVaccinated * len(non_seeds) + 0.5)
    if n_vaccinated > 0:
        picked = non_seeds[rng.choice(len(non_seeds), size=n_vaccinated, replace=False)]
        population.vaccinated[picked] = True
        population.move(picked, S_V, S_U)
    population.move(seed_ids, E, S_U)
    episodes = EpisodeSource(config, streams.episodes)
    expose(population, seed_ids, 0, 0, episodes)

    records = np.empty(config.timeHorizon + 1, dtype=RECORD_DTYPE)
    records[0] = (-1, *population.tally, 0, 0, len(seed_ids), 0, 0, 0.0, n_vaccinated)
    return RunState(config, population, records, streams, episodes)


def _advance_infections(population: Population, day: int) -> None:
    # E -> I (I_s with an onset day) and E or I -> R on the days set when the
    # episode started; a sick isolation leaves only the recovery on its
    # release, already into R
    onset = (population.infectious_day == day).nonzero()[0]
    if onset.size:
        asymptomatic = np.isnan(population.onset_day[onset])
        population.move(onset[asymptomatic], I_A, E)
        population.move(onset[~asymptomatic], I_S, E)
    population.move((population.recovery_day == day).nonzero()[0], R)


def step(state: RunState, day: int) -> np.void:
    """Advance day ``day``, in ``[0, timeHorizon)``, through the six stages;
    write its record into ``state.records[day + 1]`` and return that entry."""
    config = state.config
    population = state.population
    streams, episodes = state.streams, state.episodes
    # the day before's record, its counts s_u ... iso_sick in Compartment order
    (_, *prev_counts, _, _, cum_infections, cum_false_iso, _, cum_cost,
     vaccinated_total) = state.records[day].tolist()

    new_external = external_exposure_step(population, config, day, streams.exposure, episodes)

    # stage 2: status updates
    delivered = deliver_results(state.pending, day)
    false_isolations = len(apply_positive_results(population, delivered, day, config))
    isolation_exit_step(population, day)
    _advance_infections(population, day)
    recovered_to_susceptible_step(population, day, config)

    self_isolation_step(population, day, config)

    tests_today = 0
    if config.is_testing_day(day):
        tests_today = run_testing_day(population, config, day, state.pending, streams.testing)
        # results due on their sampling day act before internal propagation
        delivered = deliver_results(state.pending, day)
        false_isolations += len(apply_positive_results(population, delivered, day, config))

    new_internal = internal_propagation_step(population, config, day, streams.exposure, episodes,
                                             prev_counts)

    vaccinated = vaccination_step(population, day, config, streams.vaccination, vaccinated_total)

    # as uint8 a negative code is out of range too
    if population.comp.view(np.uint8).max() >= N_COMPARTMENTS:
        raise SimulationError(f"day {day}: an agent's compartment code is out of range")
    state.records[day + 1] = (
        day,
        # s_u ... iso_sick, declared in Compartment order
        *population.tally,
        len(new_external),
        len(new_internal),
        cum_infections + len(new_external) + len(new_internal),
        cum_false_iso + false_isolations,
        tests_today,
        cum_cost + tests_today * config.costPerTest,
        vaccinated_total + len(vaccinated),
    )
    return state.records[day + 1]


def cost_per_person_day(cost: float | np.ndarray, config: ScenarioConfig) -> float | np.ndarray:
    """Testing cost per person per simulated day."""
    return cost / (config.timeHorizon * config.popSize)


def run(config: ScenarioConfig, run_index: int = 0) -> tuple[RunSummary, np.ndarray]:
    """Run one replicate; fully deterministic given (config, run_index).

    Returns the summary and the run's records, one entry of
    :data:`RECORD_DTYPE` per day.
    """
    state = initialize(config, make_rng(config.baseSeed, run_index))
    for day in range(config.timeHorizon):
        step(state, day)
    first, last = state.records[0], state.records[-1]
    summary = RunSummary(
        run_index=run_index,
        seed=config.baseSeed,
        total_infections=int(last["cum_infections"]),
        seeded_infections=int(first["cum_infections"]),
        acquired_infections=int(last["cum_infections"] - first["cum_infections"]),
        total_false_isolations=int(last["cum_false_iso"]),
        total_tests=int(state.records["tests_today"].sum()),
        total_cost=float(last["cum_cost"]),
        cost_per_person_per_day=cost_per_person_day(float(last["cum_cost"]), config),
    )
    return summary, state.records[1:]


def run_replicates(
    configs: Sequence[ScenarioConfig],
    n_runs: int,
    jobs: int = 1,
) -> Iterator[list[tuple[RunSummary, np.ndarray]]]:
    """Run replicates 0..n_runs-1 of every config on one process pool.

    Yields one list per config, in config order: what :func:`run` returns for
    each of its runs, in run-index order. A list is yielded as soon as that
    config's runs have finished, so that the caller can use it while the pool
    runs the later configs; results are identical for any job count. ``n_runs``
    and ``jobs`` are checked when this is called, before the first result
    is asked for. Closing the iterator early cancels the runs not yet
    started and shuts the pool down.
    """
    if n_runs < 1:
        raise ConfigError("n_runs must be >= 1")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    return _replicates(configs, n_runs, jobs)


def _replicates(configs: Sequence[ScenarioConfig], n_runs: int,
                jobs: int) -> Iterator[list[tuple[RunSummary, np.ndarray]]]:
    task_configs = [config for config in configs for _ in range(n_runs)]
    indices = list(range(n_runs)) * len(configs)
    pool = None
    if jobs > 1 and len(indices) > 1:
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(indices)))
    try:
        results = (map if pool is None else pool.map)(run, task_configs, indices)
        # the runs come in task order: n_runs consecutive runs per config
        for first in results:
            yield [first, *itertools.islice(results, n_runs - 1)]
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def default_jobs() -> int:
    """The CPUs this process may run on (its affinity mask, where the platform
    has one), so that a restricted process does not oversubscribe them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
