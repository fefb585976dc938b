"""Initialization, the daily loop, determinism, and replicate aggregation."""

import csv
import dataclasses
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from episim import engine
from episim.cli import write_replicates
from episim.core import (
    DAY_ROWS,
    EPISODE_DAYS,
    START_DAYS,
    Compartment,
    ConfigError,
    Constant,
    Population,
    ScenarioConfig,
    SimulationError,
    Uniform,
    make_rng,
)
from episim.engine import RECORD_DTYPE, initialize, run, run_replicates, step
from episim.transmission import EPISODE_BLOCK, SPARSE_EXPOSURE_AGENTS, EpisodeSource


def counts_of(record):
    return (record["s_u"], record["s_v"], record["e"], record["i_s"], record["i_a"],
            record["r"], record["iso_healthy"], record["iso_sick"])


def aggregate_columns(tmp_path, config, result):
    """The columns of the aggregate.csv written for ``result``, as float arrays."""
    write_replicates(tmp_path, config, result)
    with (tmp_path / "aggregate.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {col: np.array([float(row[col]) for row in rows]) for col in rows[0]}


def test_initialize_seeds_only():
    cfg = ScenarioConfig(popSize=10_000, initialInfected=200)
    state = initialize(cfg, make_rng(cfg.baseSeed, 0))
    pop = state.population
    assert pop.counts()[Compartment.SUSCEPTIBLE_UNVACCINATED] == 9800
    assert pop.counts()[Compartment.EXPOSED] == 200
    assert state.records[0]["cum_infections"] == 200
    exposed = (pop.comp == Compartment.EXPOSED).nonzero()[0]
    assert np.all(pop.exposure_day[exposed] == 0)
    assert not np.isnan(pop.params[:, exposed]).any()


def test_records_start_after_initialize_and_step_writes_the_next_entry():
    cfg = ScenarioConfig(popSize=1000, initialInfected=20, timeHorizon=3,
                         initProportionVaccinated=0.5, daysBetweenTesting=1,
                         firstDayOfTesting=0)
    state = initialize(cfg, make_rng(cfg.baseSeed, 0))
    assert len(state.records) == 4
    first = state.records[0]
    assert first["day"] == -1
    assert list(counts_of(first)) == state.population.counts().tolist()
    assert first["cum_infections"] == 20
    assert first["vaccinated_total"] == 490
    for column in ("new_ext", "new_int", "cum_false_iso", "tests_today", "cum_cost"):
        assert first[column] == 0, column
    for day in range(3):
        record = step(state, day)
        assert record["day"] == day
        assert record == state.records[day + 1]
        # each cumulative column adds the day's events to the entry before
        prev = state.records[day]
        assert record["cum_infections"] == (prev["cum_infections"] + record["new_ext"]
                                            + record["new_int"])
        assert record["cum_cost"] == prev["cum_cost"] + record["tests_today"] * cfg.costPerTest
        assert record["vaccinated_total"] == np.count_nonzero(state.population.vaccinated)


def test_initialize_half_vaccinated():
    # the initially vaccinated share applies to the uninfected agents
    cfg = ScenarioConfig(initProportionVaccinated=0.5)
    state = initialize(cfg, make_rng(1, 0))
    pop = state.population
    assert pop.counts()[Compartment.SUSCEPTIBLE_VACCINATED] == 4900
    assert pop.counts()[Compartment.SUSCEPTIBLE_UNVACCINATED] == 4900
    assert pop.counts()[Compartment.EXPOSED] == 200
    assert np.count_nonzero(pop.vaccinated) == 4900


def test_initialize_no_seeds():
    cfg = ScenarioConfig(initialInfected=0)
    state = initialize(cfg, make_rng(1, 0))
    assert state.population.counts()[Compartment.SUSCEPTIBLE_UNVACCINATED] == 10_000


TESTING = {"daysBetweenTesting": 1, "firstDayOfTesting": 0}
NO_EXPOSURE = {"initialInfected": 0, "externalExposureProbDaily": 0.0}


@pytest.mark.parametrize("field,overrides", [
    ("fprSingle", dict(TESTING, fprSingle=1.5)),
    ("betaDaily", {"betaDaily": -1.0}),
    ("t0", dict(NO_EXPOSURE, t0=Uniform(5.0, 1.0))),
    ("costPerTest", dict(TESTING, costPerTest=float("inf"))),
    ("poolSize", dict(TESTING, poolSize=0)),
    ("poolingType", dict(TESTING, poolingType="median")),
    ("t0", {"initialInfected": 5, "t0": Uniform(5.0, 1.0)}),
    ("initialInfected", {"initialInfected": 60}),
], ids=["fpr", "beta", "t0-unseeded", "cost", "pool-size", "pooling-type", "t0-seeded",
        "too-many-seeds"])
def test_initialize_rejects_an_invalid_config_before_any_draw(field, overrides):
    # an invalid config cannot be built, so none reaches initialize or a stage
    with pytest.raises(ConfigError) as exc:
        ScenarioConfig(**{"popSize": 50, "timeHorizon": 4, "initialInfected": 3, **overrides})
    assert field in str(exc.value)


def test_seeds_take_the_first_episodes_across_two_blocks():
    cfg = ScenarioConfig(popSize=1000, initialInfected=EPISODE_BLOCK + 50)
    state = initialize(cfg, make_rng(cfg.baseSeed, 3))
    pop = state.population
    seeds = (pop.comp == Compartment.EXPOSED).nonzero()[0]
    assert len(seeds) == EPISODE_BLOCK + 50
    # the same episodes taken in other batches from a fresh episodes stream
    fresh = EpisodeSource(cfg, make_rng(cfg.baseSeed, 3).episodes)
    # take returns one column per episode
    params, offsets = (np.concatenate(parts, axis=-1) for parts in zip(
        fresh.take(7), fresh.take(EPISODE_BLOCK), fresh.take(43)))
    assert pop.params[:, seeds].tobytes() == params.tobytes()
    # the seeds are exposed on day 0, so their days are the offsets
    assert pop.days[START_DAYS, seeds].tobytes() == offsets[START_DAYS].astype(np.float32).tobytes()
    assert np.array_equal(pop.days[EPISODE_DAYS, seeds], offsets.astype(np.float32),
                          equal_nan=True)
    # the seeds' first update is on day 0, before every symptom onset
    selfiso = np.isfinite(offsets[DAY_ROWS.index("selfiso_day")])
    assert np.array_equal(pop.selfiso_day[seeds], np.where(selfiso, pop.onset_day[seeds], np.nan),
                          equal_nan=True)
    # the run's next episode is the fresh stream's next one
    assert state.episodes.take(1)[0].tobytes() == fresh.take(1)[0].tobytes()


def test_streams_are_separated_by_purpose(monkeypatch):
    # two configs that differ only in how they test: the same initial state,
    # the same j-th episode for every j, and the same days before testing
    base = dict(popSize=1000, initialInfected=30, timeHorizon=40, firstDayOfTesting=12,
                daysDelayTestResults=1, baseSeed=9)
    configs = [ScenarioConfig(**base, daysBetweenTesting=0, poolSize=1),
               ScenarioConfig(**base, daysBetweenTesting=2, poolSize=5)]
    take = EpisodeSource.take
    taken = []

    def logged_take(self, n, first_tau=0):
        episodes = take(self, n, first_tau)
        taken[-1].append(episodes)
        return episodes

    monkeypatch.setattr(EpisodeSource, "take", logged_take)
    initial, records, episodes = [], [], []
    for cfg in configs:
        taken.append([])
        state = initialize(cfg, make_rng(cfg.baseSeed, 2))
        pop = state.population
        initial.append([a.tobytes() for a in (pop.comp, pop.vaccinated, pop.willingness,
                                               pop.days, pop.params)])
        for day in range(cfg.timeHorizon):
            step(state, day)
        records.append(state.records)
        # each field with one column per episode
        episodes.append([np.concatenate(parts, axis=-1) for parts in zip(*taken[-1])])
    assert initial[0] == initial[1]
    n = min(e[0].shape[-1] for e in episodes)
    assert n > EPISODE_BLOCK
    for field_a, field_b in zip(*episodes):
        assert field_a[..., :n].tobytes() == field_b[..., :n].tobytes()
    # records[d + 1] is day d
    before = slice(base["firstDayOfTesting"] + 1)
    assert records[0][before].tobytes() == records[1][before].tobytes()
    assert records[1]["tests_today"].sum() > 0
    assert not np.array_equal(records[0], records[1])


@pytest.mark.parametrize("run_index", [0, 5])
def test_stepping_the_set_up_of_a_run_gives_that_run(run_index):
    # the benchmark times initialize(config, make_rng(baseSeed, i)) as the
    # set-up of run i; stepping it through the horizon must be that run
    cfg = ScenarioConfig(popSize=600, initialInfected=20, timeHorizon=30,
                         initProportionVaccinated=0.1, vaccinesAvailablePerDay=5,
                         daysBetweenTesting=2, firstDayOfTesting=3, poolSize=5,
                         daysDelayTestResults=1)
    state = initialize(cfg, make_rng(cfg.baseSeed, run_index))
    for day in range(cfg.timeHorizon):
        step(state, day)
    _, records = run(cfg, run_index)
    assert state.records[1:].tobytes() == records.tobytes()


def test_initialize_acceptance_probabilities_in_unit_interval():
    cfg = ScenarioConfig(popSize=2000)
    state = initialize(cfg, make_rng(2, 0))
    willingness = state.population.willingness
    assert min(willingness) >= 0.0 and max(willingness) <= 1.0
    assert abs(np.mean(willingness) - 0.7) < 0.01


def test_day_zero_record_matches_exposure_oracle():
    cfg = ScenarioConfig(popSize=5000, initialInfected=100, timeHorizon=1)
    state = initialize(cfg, make_rng(cfg.baseSeed, 0))
    record = step(state, 0)
    # external exposures on 4900 susceptibles at gamma 0.005: ~24.5 expected
    assert record["e"] == 100 + record["new_ext"]
    assert record["new_int"] == 0  # seeds are not yet infectious
    assert 5 <= record["new_ext"] <= 60
    assert record["tests_today"] == 0
    assert record["vaccinated_total"] == 0
    assert record["cum_infections"] == 100 + record["new_ext"]


def test_conservation_every_day():
    cfg = ScenarioConfig(
        popSize=800, initialInfected=20, timeHorizon=80,
        daysBetweenTesting=4, poolSize=5, vaccinesAvailablePerDay=5,
    )
    _, records = run(cfg, 0)
    assert len(records) == 80
    for record in records:
        assert sum(counts_of(record)) == 800


@pytest.mark.parametrize("code", [len(Compartment), -1])
def test_step_rejects_a_compartment_code_out_of_range(code):
    # a code past the last compartment, or below the first, has no count
    # column to go to
    cfg = ScenarioConfig(popSize=50, initialInfected=5, timeHorizon=3)
    state = initialize(cfg, make_rng(cfg.baseSeed, 0))
    state.population.comp[0] = code
    with pytest.raises(SimulationError, match="day 0"):
        step(state, 0)


@pytest.mark.parametrize("pop_size", [2000, SPARSE_EXPOSURE_AGENTS])
def test_a_day_never_counts_the_whole_population(monkeypatch, pop_size):
    # the day's counts follow the agents each stage moves; below and above
    # the exposure size rule, with every move a day can make
    def counts(self):
        raise AssertionError("Population.counts() called")

    monkeypatch.setattr(Population, "counts", counts)
    cfg = ScenarioConfig(
        popSize=pop_size, initialInfected=pop_size // 50, timeHorizon=40, daysTilSusceptible=5,
        isolationLength=5, daysBetweenTesting=2, firstDayOfTesting=3, poolSize=4,
        daysDelayTestResults=2, noTestingPostIsolationDays=7, initProportionVaccinated=0.1,
        vaccinesAvailablePerDay=pop_size // 100,
    )
    _, records = run(cfg, 0)
    assert records["iso_sick"].any() and records["vaccinated_total"][-1] > 0


def test_results_move_compartments_only_after_delay():
    # everyone susceptible, certain false positives, 3-day delay
    cfg = ScenarioConfig(
        popSize=50, initialInfected=0, timeHorizon=6,
        externalExposureProbDaily=0.0,
        daysBetweenTesting=7, firstDayOfTesting=1, poolSize=1,
        fprSingle=1.0, daysDelayTestResults=3,
    )
    _, records = run(cfg, 0)
    assert records[1]["tests_today"] == 50
    assert records[1]["iso_healthy"] == 0
    assert records[2]["iso_healthy"] == 0
    assert records[3]["iso_healthy"] == 0
    assert records[4]["iso_healthy"] == 50  # delivered on day 1+3
    assert records[4]["cum_false_iso"] == 50


def test_false_isolation_counts_only_healthy_entries():
    cfg = ScenarioConfig(
        popSize=60, initialInfected=30, timeHorizon=12,
        externalExposureProbDaily=0.0, betaDaily=0.0,
        daysBetweenTesting=1, firstDayOfTesting=5, poolSize=1,
        fprSingle=0.0, fnrSingle=0.0, daysDelayTestResults=0,
        selfIsolationOnSymptomsProb=0.0,
    )
    _, records = run(cfg, 0)
    final = records[-1]
    assert final["cum_false_iso"] == 0
    assert final["iso_sick"] > 0  # true positives were isolated


def test_results_without_delay_isolate_on_the_sampling_day():
    # every sample is positive, and with no delay each result acts on the
    # testing day itself: nobody is left in the population, and nothing waits
    cfg = ScenarioConfig(
        popSize=200, initialInfected=10, timeHorizon=3,
        daysBetweenTesting=1, firstDayOfTesting=0, poolSize=1,
        fprSingle=1.0, fnrSingle=0.0, daysDelayTestResults=0,
    )
    state = initialize(cfg, make_rng(cfg.baseSeed, 0))
    record = step(state, 0)
    assert state.pending == {}
    assert record["iso_healthy"] + record["iso_sick"] == cfg.popSize
    assert record["iso_sick"] >= cfg.initialInfected
    assert record["cum_false_iso"] == record["iso_healthy"]
    assert record["tests_today"] == cfg.popSize


def test_no_agent_self_isolates_from_recovered(monkeypatch):
    # A high cut sends an episode to R while its symptom window is still
    # open, and so does a release from test isolation. Only E, I_s and I_a
    # agents may enter sick isolation at the self-isolation stage.
    cfg = ScenarioConfig(
        popSize=2000, initialInfected=40, timeHorizon=60, infectiousViralLoadCut=1e5,
        daysBetweenTesting=2, firstDayOfTesting=3, poolSize=5, daysDelayTestResults=1,
        isolationLength=2,
    )
    stage = engine.self_isolation_step
    moved_total = []

    def checked_stage(population, day, config):
        before = population.comp.copy()
        moved = stage(population, day, config)
        entered = (population.comp != before).nonzero()[0]
        assert entered.tolist() == moved.tolist(), day
        assert np.all(population.comp[moved] == Compartment.ISOLATED_SICK), day
        assert np.all((before[moved] >= Compartment.EXPOSED)
                      & (before[moved] <= Compartment.INFECTIOUS_ASYMPTOMATIC)), day
        moved_total.append(moved.size)
        return moved

    monkeypatch.setattr(engine, "self_isolation_step", checked_stage)
    run(cfg, 0)
    assert sum(moved_total) > 0


def test_symptoms_from_exposure_self_isolate_at_the_first_update(monkeypatch):
    # With t0 = tP = tS = 0 an episode has symptoms from its exposure day.
    # The first self-isolation stage to see it is that day's for a seed or an
    # external exposure, and the next day's for an internal one.
    cfg = ScenarioConfig(
        popSize=500, initialInfected=10, timeHorizon=25, externalExposureProbDaily=0.01,
        t0=Constant(0.0), tP=Constant(0.0), tS=Constant(0.0), tF=Constant(5.0),
        fractionSymptomatic=1.0, selfIsolationOnSymptomsProb=0.5, betaDaily=0.8,
    )
    due = {}  # agent -> the day it must self-isolate on, if willing
    isolated = {"internal": 0, "external": 0}

    def logged(stage, lag, kind):
        def exposure_stage(population, config, day, *args):
            exposed = stage(population, config, day, *args)
            due.update({i: (day + lag, kind) for i in exposed.tolist()})
            return exposed
        return exposure_stage

    def self_isolation(population, day, config):
        moved = engine_self_isolation(population, day, config)
        for i in moved.tolist():
            assert due[i][0] == day, (i, day)
            isolated[due.pop(i)[1]] += 1
        return moved

    engine_self_isolation = engine.self_isolation_step
    monkeypatch.setattr(engine, "external_exposure_step",
                        logged(engine.external_exposure_step, 0, "external"))
    monkeypatch.setattr(engine, "internal_propagation_step",
                        logged(engine.internal_propagation_step, 1, "internal"))
    monkeypatch.setattr(engine, "self_isolation_step", self_isolation)
    state = initialize(cfg, make_rng(cfg.baseSeed, 0))
    seeds = (state.population.comp == Compartment.EXPOSED).nonzero()[0]
    due.update({i: (0, "external") for i in seeds.tolist()})
    for day in range(cfg.timeHorizon):
        step(state, day)
    assert isolated["internal"] > 0 and isolated["external"] > 0


def test_run_is_deterministic():
    cfg = ScenarioConfig(
        popSize=400, initialInfected=20, timeHorizon=40,
        daysBetweenTesting=4, poolSize=5, vaccinesAvailablePerDay=10,
    )
    summary_a, records_a = run(cfg, 3)
    summary_b, records_b = run(cfg, 3)
    assert summary_a == summary_b
    assert np.array_equal(records_a, records_b)


def test_different_run_indices_differ():
    cfg = ScenarioConfig(popSize=400, initialInfected=20, timeHorizon=20)
    _, records_a = run(cfg, 0)
    _, records_b = run(cfg, 1)
    assert not np.array_equal(records_a, records_b)


def test_zero_horizon_runs():
    # a run has at least one day and one agent, so no cost divides by zero
    for field in ("timeHorizon", "popSize"):
        with pytest.raises(ConfigError, match=f"{field}: must be >= 1"):
            ScenarioConfig(**{field: 0, "initialInfected": 0})


def test_summary_splits_seeded_and_acquired():
    cfg = ScenarioConfig(popSize=500, initialInfected=25, timeHorizon=30)
    summary, records = run(cfg, 1)
    assert summary.seeded_infections == 25
    assert summary.total_infections == 25 + summary.acquired_infections
    assert summary.total_infections == records[-1]["cum_infections"]
    # plain Python numbers, so that the summary JSON is written as before
    assert {type(v) for v in dataclasses.asdict(summary).values()} == {int, float}


def test_replicates_match_serial_and_parallel():
    cfg = ScenarioConfig(popSize=300, initialInfected=15, timeHorizon=25)
    [serial] = run_replicates([cfg], 3, jobs=1)
    [parallel] = run_replicates([cfg], 3, jobs=2)
    assert [summary for summary, _ in serial] == [summary for summary, _ in parallel]
    assert np.array_equal(np.stack([records for _, records in serial]),
                          np.stack([records for _, records in parallel]))


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_replicates_rejects_a_job_count_below_one(jobs):
    cfg = ScenarioConfig(popSize=50, initialInfected=2, timeHorizon=3)
    with pytest.raises(ConfigError, match=f"jobs must be >= 1, got {jobs}"):
        run_replicates([cfg], 2, jobs=jobs)


def test_run_replicates_checks_its_arguments_when_called():
    # not on the first result asked for
    cfg = ScenarioConfig(popSize=50, initialInfected=2, timeHorizon=3)
    with pytest.raises(ConfigError, match="n_runs must be >= 1"):
        run_replicates([cfg], 0, jobs=2)


def test_closing_the_replicates_early_cancels_the_pending_runs(monkeypatch):
    shutdowns = []

    class Pool(ProcessPoolExecutor):
        def shutdown(self, wait=True, *, cancel_futures=False):
            shutdowns.append(cancel_futures)
            super().shutdown(wait, cancel_futures=cancel_futures)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", Pool)
    configs = [ScenarioConfig(popSize=200, initialInfected=10, timeHorizon=15, baseSeed=seed)
               for seed in range(6)]
    results = run_replicates(configs, 2, jobs=2)
    first = next(results)
    assert [summary for summary, _ in first] == [run(configs[0], i)[0] for i in range(2)]
    results.close()
    assert shutdowns == [True]
    assert multiprocessing.active_children() == []


def test_replicates_of_several_configs_come_back_per_config():
    # one pool for every (config, run index); results are grouped per config
    configs = [ScenarioConfig(popSize=200, initialInfected=10, timeHorizon=15, baseSeed=seed)
               for seed in (1, 2, 3)]
    results = list(run_replicates(configs, 2, jobs=2))
    assert len(results) == 3
    for config, result in zip(configs, results):
        assert [s.run_index for s, _ in result] == [0, 1]
        for i in range(2):
            summary, records = run(config, i)
            assert result[i][0] == summary
            assert np.array_equal(result[i][1], records)


def test_single_replicate_aggregate_equals_run(tmp_path):
    cfg = ScenarioConfig(popSize=300, initialInfected=15, timeHorizon=25)
    [result] = run_replicates([cfg], 1)
    _, records = run(cfg, 0)
    columns = aggregate_columns(tmp_path, cfg, result)
    expected = records["e"].astype(float)
    assert np.array_equal(columns["mean_e"], expected)
    assert np.array_equal(columns["min_e"], expected)
    assert np.array_equal(columns["max_e"], expected)


def test_aggregate_bands_bracket_the_mean(tmp_path):
    cfg = ScenarioConfig(popSize=300, initialInfected=15, timeHorizon=25)
    [result] = run_replicates([cfg], 4)
    columns = aggregate_columns(tmp_path, cfg, result)
    runs = np.stack([recs for _, recs in result])
    for column in RECORD_DTYPE.names[1:]:
        assert np.all(columns[f"min_{column}"] <= columns[f"mean_{column}"] + 1e-9), column
        assert np.all(columns[f"mean_{column}"] <= columns[f"max_{column}"] + 1e-9), column
        # exact: a float's CSV text reads back as the same float
        for band, reduce in (("mean", np.mean), ("min", np.min), ("max", np.max)):
            expected = reduce(runs[column], axis=0)
            assert np.array_equal(columns[f"{band}_{column}"], expected), f"{band}_{column}"


def test_peak_size_stable_across_base_seeds():
    # Monte Carlo stability of the mean epidemic peak, at reduced scale
    cfg_a = ScenarioConfig(popSize=2000, initialInfected=40, timeHorizon=60,
                           baseSeed=111)
    cfg_b = ScenarioConfig(popSize=2000, initialInfected=40, timeHorizon=60,
                           baseSeed=222)
    peaks = []
    for cfg in (cfg_a, cfg_b):
        [result] = run_replicates([cfg], 15)
        curves = np.array([recs["i_s"] + recs["i_a"] for _, recs in result])
        peaks.append(curves.mean(axis=0).max())
    assert abs(peaks[0] - peaks[1]) / max(peaks) < 0.10


def test_default_jobs_counts_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert engine.default_jobs() == 2
    monkeypatch.delattr(engine.os, "sched_getaffinity")
    assert engine.default_jobs() == 8
