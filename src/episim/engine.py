"""Simulation engine: population initialization, the six-stage daily loop,
replicate execution, and metric accumulation.

Daily stage order: (1) external exposure, (2) status updates (viral clocks,
result delivery, isolation exits, exposed-to-infectious crossings, loss of
immunity), (3) self-isolation, (4) testing, (5) internal propagation,
(6) vaccination. Random draws follow this order with a fixed within-stage
ordering by agent id, so a run is fully determined by (config, runIndex).
A testing day draws one permutation of the eligible ids into pools, then one
vector of stage-1 pool tests in pool order, then one vector of stage-2 member
tests of the positive pools in pool order. Delivered positive results are
applied in ascending agent id and draw nothing.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    Agent,
    Compartment,
    ConfigError,
    Population,
    ScenarioConfig,
    SimulationError,
    make_rng,
)
from .interventions import (
    VaccineSupply,
    apply_positive_result,
    isolation_exit_step,
    mark_recovered,
    recovered_to_susceptible_step,
    self_isolation_step,
    vaccination_step,
)
from .testing import TestLedger, deliver_results, run_testing_day
from .transmission import (
    PopulationCounts,
    expose_agent,
    external_exposure_step,
    internal_propagation_step,
    snapshot_counts,
)
from .viral_load import InfectionStage, status_at


@dataclass(frozen=True)
class DailyRecord:
    """End-of-day compartment counts and cumulative metrics."""

    day: int
    s_u: int
    s_v: int
    e: int
    i_s: int
    i_a: int
    r: int
    iso_healthy: int
    iso_sick: int
    new_exposures_external: int
    new_exposures_internal: int
    cumulative_total_infections: int
    cumulative_false_isolations: int
    tests_used_today: int
    cumulative_cost: float
    vaccinated_total: int

    @property
    def population_total(self) -> int:
        return (
            self.s_u + self.s_v + self.e + self.i_s + self.i_a + self.r
            + self.iso_healthy + self.iso_sick
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
    ledger: TestLedger = field(default_factory=TestLedger)
    cumulative_infections: int = 0
    seeded_infections: int = 0
    cumulative_false_isolations: int = 0
    # previous end-of-day counts; mass action reads I/P from here
    prev_counts: Optional[PopulationCounts] = None


def initialize(config: ScenarioConfig, rng: np.random.Generator) -> RunState:
    """Create the day-0 population: seeds exposed, initial vaccinations set.

    Draw order: acceptance probabilities for all agents, seed selection,
    initial-vaccination selection, then per-seed exposure draws in id order.
    The initially vaccinated count is taken as a share of the uninfected.
    """
    if config.initialInfected > config.popSize:
        raise ConfigError("initialInfected exceeds popSize")
    n = config.popSize
    acceptance = np.clip(
        rng.normal(config.vaccineAcceptProbMean, config.vaccineAcceptProbStd, n),
        0.0, 1.0,
    )
    agents = [
        Agent(
            id=i,
            compartment=Compartment.SUSCEPTIBLE_UNVACCINATED,
            willingness_to_vaccinate=float(acceptance[i]),
        )
        for i in range(n)
    ]
    population = Population(agents)

    seed_ids: list[int] = []
    if config.initialInfected > 0:
        seed_ids = sorted(
            int(i) for i in rng.choice(n, size=config.initialInfected, replace=False)
        )
    non_seeds = sorted(set(range(n)) - set(seed_ids))
    n_vaccinated = int(config.initProportionVaccinated * len(non_seeds) + 0.5)
    if n_vaccinated > 0:
        picked = rng.choice(len(non_seeds), size=n_vaccinated, replace=False)
        for idx in sorted(int(i) for i in picked):
            agent = population.agent(non_seeds[idx])
            agent.vaccinated = True
            population.vaccinated_count += 1
            population.move(agent, Compartment.SUSCEPTIBLE_VACCINATED)
    for agent_id in seed_ids:
        expose_agent(population, population.agent(agent_id), 0, config, rng)

    return RunState(
        config=config,
        population=population,
        cumulative_infections=len(seed_ids),
        seeded_infections=len(seed_ids),
        prev_counts=snapshot_counts(population),
    )


def _advance_infections(state: RunState, day: int) -> None:
    # exposed -> infectious once the load crosses the cut; either infected
    # state -> recovered when the trajectory says so
    population = state.population
    config = state.config
    cut = config.infectiousViralLoadCut
    for agent_id in population.sorted_ids(Compartment.EXPOSED):
        agent = population.agent(agent_id)
        stage, _ = status_at(agent.viral_profile, day - agent.exposure_day, cut)
        if stage is InfectionStage.INFECTIOUS:
            dest = (
                Compartment.INFECTIOUS_SYMPTOMATIC
                if agent.symptomatic_assignment
                else Compartment.INFECTIOUS_ASYMPTOMATIC
            )
            population.move(agent, dest)
        elif stage is InfectionStage.RECOVERED:
            mark_recovered(population, agent, day, config)
    for comp in (
        Compartment.INFECTIOUS_SYMPTOMATIC,
        Compartment.INFECTIOUS_ASYMPTOMATIC,
    ):
        for agent_id in population.sorted_ids(comp):
            agent = population.agent(agent_id)
            stage, _ = status_at(agent.viral_profile, day - agent.exposure_day, cut)
            if stage is InfectionStage.RECOVERED:
                mark_recovered(population, agent, day, config)


def _deliver_and_apply_results(state: RunState, day: int) -> None:
    population = state.population
    for agent_id in deliver_results(state.pending, day).tolist():
        agent = population.agent(agent_id)
        if agent.is_isolated:
            # a positive delivered to an already isolated agent is moot
            continue
        moved_to = apply_positive_result(population, agent, day, state.config)
        if moved_to is Compartment.ISOLATED_HEALTHY:
            state.cumulative_false_isolations += 1


def step(
    state: RunState, day: int, rng: np.random.Generator
) -> DailyRecord:
    """Advance one day through the six stages and emit the day's record."""
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
        tests_today = run_testing_day(
            population, config, day, state.pending, state.ledger, rng
        )

    new_internal = internal_propagation_step(
        population, config, day, rng, counts=state.prev_counts
    )
    state.cumulative_infections += len(new_internal)

    supply = VaccineSupply(config.vaccinesAvailablePerDay)
    vaccination_step(population, supply, day, config, rng)

    counts = population.compartment_counts()
    record = DailyRecord(
        day=day,
        s_u=counts[Compartment.SUSCEPTIBLE_UNVACCINATED],
        s_v=counts[Compartment.SUSCEPTIBLE_VACCINATED],
        e=counts[Compartment.EXPOSED],
        i_s=counts[Compartment.INFECTIOUS_SYMPTOMATIC],
        i_a=counts[Compartment.INFECTIOUS_ASYMPTOMATIC],
        r=counts[Compartment.RECOVERED],
        iso_healthy=counts[Compartment.ISOLATED_HEALTHY],
        iso_sick=counts[Compartment.ISOLATED_SICK],
        new_exposures_external=len(new_external),
        new_exposures_internal=len(new_internal),
        cumulative_total_infections=state.cumulative_infections,
        cumulative_false_isolations=state.cumulative_false_isolations,
        tests_used_today=tests_today,
        cumulative_cost=state.ledger.cost_total,
        vaccinated_total=population.vaccinated_count,
    )
    if record.population_total != config.popSize:
        raise SimulationError(
            f"conservation violated on day {day}: "
            f"{record.population_total} != {config.popSize}"
        )
    state.prev_counts = snapshot_counts(population)
    return record


def run(
    config: ScenarioConfig, run_index: int = 0
) -> tuple[RunSummary, list[DailyRecord]]:
    """Run one replicate; fully deterministic given (config, run_index)."""
    rng = make_rng(config.baseSeed, run_index)
    state = initialize(config, rng)
    records = [step(state, day, rng) for day in range(config.timeHorizon)]
    person_days = config.timeHorizon * config.popSize
    summary = RunSummary(
        run_index=run_index,
        seed=config.baseSeed,
        total_infections=state.cumulative_infections,
        seeded_infections=state.seeded_infections,
        acquired_infections=state.cumulative_infections - state.seeded_infections,
        total_false_isolations=state.cumulative_false_isolations,
        total_tests=state.ledger.tests_total,
        total_cost=state.ledger.cost_total,
        cost_per_person_per_day=(
            state.ledger.cost_total / person_days if person_days > 0 else 0.0
        ),
    )
    return summary, records


# Per-day mean and min/max envelope of every record column, over replicates.
AGGREGATE_COLUMNS = (
    "s_u", "s_v", "e", "i_s", "i_a", "r", "iso_healthy", "iso_sick",
    "new_exposures_external", "new_exposures_internal",
    "cumulative_total_infections", "cumulative_false_isolations",
    "tests_used_today", "cumulative_cost", "vaccinated_total",
)


@dataclass
class ReplicateResult:
    summaries: list[RunSummary]
    records: list[list[DailyRecord]]
    # column -> {"mean"|"min"|"max" -> array over days}
    aggregate: dict[str, dict[str, np.ndarray]]


def aggregate_records(records: list[list[DailyRecord]]) -> dict[str, dict[str, np.ndarray]]:
    out: dict[str, dict[str, np.ndarray]] = {}
    for col in AGGREGATE_COLUMNS:
        matrix = np.array([[getattr(rec, col) for rec in run_recs] for run_recs in records])
        out[col] = {
            "mean": matrix.mean(axis=0),
            "min": matrix.min(axis=0),
            "max": matrix.max(axis=0),
        }
    return out


def _run_indexed(args: tuple[ScenarioConfig, int]) -> tuple[RunSummary, list[DailyRecord]]:
    return run(args[0], args[1])


def run_replicates(
    config: ScenarioConfig,
    n_runs: int,
    jobs: Optional[int] = None,
) -> ReplicateResult:
    """Run replicates 0..n_runs-1; results are identical for any job count."""
    if n_runs < 1:
        raise ConfigError("n_runs must be >= 1")
    jobs = jobs or 1
    tasks = [(config, i) for i in range(n_runs)]
    if jobs > 1 and n_runs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, n_runs)) as pool:
            results = list(pool.map(_run_indexed, tasks))
    else:
        results = [_run_indexed(t) for t in tasks]
    summaries = [r[0] for r in results]
    records = [r[1] for r in results]
    return ReplicateResult(
        summaries=summaries,
        records=records,
        aggregate=aggregate_records(records) if config.timeHorizon > 0 else {},
    )


def default_jobs() -> int:
    return os.cpu_count() or 1
