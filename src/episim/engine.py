"""Simulation engine: population initialization, the six-stage daily loop,
replicate execution, and metric accumulation.

A day's output is one record of :data:`RECORD_DTYPE`, a NumPy structured
dtype whose field names are the run-CSV columns: the day, the eight
compartment counts in :class:`~episim.core.Compartment` order, the day's
external and internal exposures, the cumulative infections and false
isolations, the day's tests, the cumulative cost and the vaccinated total.
A run's output is one array of that dtype with one entry per day.

Daily stage order: (1) external exposure, (2) status updates (result
delivery, isolation exits, exposed-to-infectious crossings, recoveries, loss
of immunity), (3) self-isolation, (4) testing, (5) internal propagation,
(6) vaccination. Each stage works on whole arrays of agent ids in ascending
order, so a run is fully determined by (config, runIndex).

A viral load is evaluated only where it can change something. When an
episode starts, :func:`~episim.transmission.start_episodes` stores its key
days (:func:`~episim.viral_load.key_days`): the first and last load day, the
first day past the peak and the first symptomatic day. The status update
recovers agents past their last load day without a load and evaluates loads
only for exposed agents from their first load day and infectious agents past
their peak; self-isolation reads the symptom window from the key days alone;
the testing day evaluates loads only inside the load window.

Only the exposure, testing and vaccination stages draw. An exposure stage
draws one uniform per S_u agent, then one per S_v agent. Over its newly
exposed ids in ascending order it then draws one vector each for: the
symptomatic assignment; t0, V0, tP and VP; tS, for the symptomatic subset
only; tF and VF; and the self-isolation propensity. A testing day draws one permutation of the
eligible ids into pools, then one vector of stage-1 pool tests in pool order,
then one vector of stage-2 member tests of the positive pools in pool order.
Vaccination draws one uniform per eligible agent, then one choice of the
recipients when the willing outnumber the doses. Delivered positive results
are applied together and draw nothing.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    E,
    I_A,
    I_S,
    S_V,
    ConfigError,
    Population,
    ScenarioConfig,
    SimulationError,
    make_rng,
)
from .interventions import (
    apply_positive_results,
    isolation_exit_step,
    mark_recovered,
    recovered_to_susceptible_step,
    self_isolation_step,
    vaccination_step,
)
from .testing import deliver_results, run_testing_day
from .transmission import expose, external_exposure_step, internal_propagation_step
from .viral_load import load_array


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
    """Everything one run mutates while stepping through days."""

    config: ScenarioConfig
    population: Population
    # delivery day -> arrays of agent ids whose positive result is due then
    pending: dict[int, list[np.ndarray]] = field(default_factory=dict)
    tests_total: int = 0
    cost_total: float = 0.0
    cumulative_infections: int = 0
    seeded_infections: int = 0
    cumulative_false_isolations: int = 0
    # previous end-of-day Population.counts(); mass action reads I/P from here
    prev_counts: Optional[np.ndarray] = None


def initialize(config: ScenarioConfig, rng: np.random.Generator) -> RunState:
    """Create the day-0 population: seeds exposed, initial vaccinations set.

    Draw order: acceptance probabilities for all agents, seed selection,
    initial-vaccination selection, then the seeds' exposure draws as one
    vector per episode draw over the seed ids in ascending order, exactly as
    an exposure stage draws them. The initially vaccinated count is taken as
    a share of the uninfected.
    """
    if config.initialInfected > config.popSize:
        raise ConfigError("initialInfected exceeds popSize")
    n = config.popSize
    population = Population(n)
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
        population.comp[picked] = S_V
    expose(population, seed_ids, 0, config, rng)

    return RunState(
        config=config,
        population=population,
        cumulative_infections=len(seed_ids),
        seeded_infections=len(seed_ids),
        prev_counts=population.counts(),
    )


def _advance_infections(state: RunState, day: int) -> None:
    # exposed -> infectious once the load crosses the cut, symptomatic when
    # the episode has an onset day; either infected state -> recovered once
    # the load has fallen below the cut after the peak. Agents past their
    # last load day recover without a load. An exposed agent cannot change
    # before its first load day, nor an infectious one up to its peak, so
    # loads are evaluated only from that day on.
    population = state.population
    ids = ((population.comp >= E) & (population.comp <= I_A)).nonzero()[0]
    exposed = population.comp[ids] == E
    over = population.last_load_day[ids] < day
    check_day = np.where(exposed, population.first_load_day[ids], population.past_peak_day[ids])
    changing = (check_day <= day) & ~over
    evaluated = ids[changing]
    load = load_array(
        population.trajectories(evaluated), day - population.exposure_day[evaluated]
    )
    cut = state.config.infectiousViralLoadCut
    onset = evaluated[exposed[changing] & (load > cut)]
    population.comp[onset] = np.where(np.isnan(population.onset_day[onset]), I_A, I_S)
    below_cut = evaluated[load < cut]
    past_peak = below_cut[population.past_peak_day[below_cut] <= day]
    mark_recovered(population, np.concatenate([ids[over], past_peak]), day)


def _deliver_and_apply_results(state: RunState, day: int) -> None:
    population = state.population
    ids = deliver_results(state.pending, day)
    # a positive delivered to an already isolated agent is moot
    ids = ids[population.in_population()[ids]]
    false_isolations = apply_positive_results(population, ids, day, state.config)
    state.cumulative_false_isolations += len(false_isolations)


def step(state: RunState, day: int, rng: np.random.Generator) -> np.void:
    """Advance one day through the six stages and emit the day's record, one
    entry of :data:`RECORD_DTYPE`."""
    config = state.config
    population = state.population

    new_external = external_exposure_step(population, config, day, rng)
    state.cumulative_infections += len(new_external)

    # stage 2: viral clocks advance implicitly via (day - exposure_day)
    _deliver_and_apply_results(state, day)
    isolation_exit_step(population, day, config)
    _advance_infections(state, day)
    recovered_to_susceptible_step(population, day, config)

    self_isolation_step(population, day, config)

    tests_today = 0
    if config.is_testing_day(day):
        tests_today = run_testing_day(population, config, day, state.pending, rng)
        state.tests_total += tests_today
        state.cost_total += tests_today * config.costPerTest

    new_internal = internal_propagation_step(population, config, day, rng, state.prev_counts)
    state.cumulative_infections += len(new_internal)

    vaccination_step(population, day, config, rng)

    counts = population.counts()
    if counts.sum() != config.popSize:
        raise SimulationError(
            f"conservation violated on day {day}: {counts.sum()} != {config.popSize}"
        )
    record = np.array(
        (
            day,
            # s_u ... iso_sick, declared in Compartment order
            *counts.tolist(),
            len(new_external),
            len(new_internal),
            state.cumulative_infections,
            state.cumulative_false_isolations,
            tests_today,
            state.cost_total,
            np.count_nonzero(population.vaccinated),
        ),
        dtype=RECORD_DTYPE,
    )[()]
    state.prev_counts = counts
    return record


def cost_per_person_day(cost: float | np.ndarray, config: ScenarioConfig) -> float | np.ndarray:
    """Testing cost per person per simulated day; 0 without person-days."""
    person_days = config.timeHorizon * config.popSize
    return cost / person_days if person_days > 0 else 0.0


def run(config: ScenarioConfig, run_index: int = 0) -> tuple[RunSummary, np.ndarray]:
    """Run one replicate; fully deterministic given (config, run_index).

    Returns the summary and the run's records, one entry of
    :data:`RECORD_DTYPE` per day.
    """
    rng = make_rng(config.baseSeed, run_index)
    state = initialize(config, rng)
    records = np.empty(config.timeHorizon, dtype=RECORD_DTYPE)
    for day in range(config.timeHorizon):
        records[day] = step(state, day, rng)
    summary = RunSummary(
        run_index=run_index,
        seed=config.baseSeed,
        total_infections=state.cumulative_infections,
        seeded_infections=state.seeded_infections,
        acquired_infections=state.cumulative_infections - state.seeded_infections,
        total_false_isolations=state.cumulative_false_isolations,
        total_tests=state.tests_total,
        total_cost=state.cost_total,
        cost_per_person_per_day=cost_per_person_day(state.cost_total, config),
    )
    return summary, records


@dataclass
class ReplicateResult:
    """The replicates of one config, in run-index order."""

    summaries: list[RunSummary]
    records: list[np.ndarray]


def _run_indexed(task: tuple[ScenarioConfig, int]) -> tuple[RunSummary, np.ndarray]:
    return run(*task)


def run_replicates(
    configs: Sequence[ScenarioConfig],
    n_runs: int,
    jobs: Optional[int] = None,
) -> list[ReplicateResult]:
    """Run replicates 0..n_runs-1 of every config on one process pool.

    Returns one result per config, in order; results are identical for any
    job count.
    """
    if n_runs < 1:
        raise ConfigError("n_runs must be >= 1")
    jobs = jobs or 1
    tasks = [(config, i) for config in configs for i in range(n_runs)]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            results = list(pool.map(_run_indexed, tasks))
    else:
        results = [_run_indexed(t) for t in tasks]
    out = []
    for k in range(0, len(results), n_runs):
        summaries, records = zip(*results[k:k + n_runs])
        out.append(ReplicateResult(list(summaries), list(records)))
    return out


def default_jobs() -> int:
    """The CPUs this process may run on (its affinity mask, where the platform
    has one), so that a restricted process does not oversubscribe them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
