"""Initialization, the daily loop, determinism, and replicate aggregation."""

import csv

import numpy as np
import pytest

from episim import engine
from episim.cli import write_replicates
from episim.core import Compartment, ConfigError, default_config, make_rng
from episim.engine import RECORD_DTYPE, initialize, run, run_replicates, step


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
    cfg = default_config(popSize=10_000, initialInfected=200)
    state = initialize(cfg, make_rng(cfg.baseSeed, 0))
    pop = state.population
    assert pop.counts()[Compartment.SUSCEPTIBLE_UNVACCINATED] == 9800
    assert pop.counts()[Compartment.EXPOSED] == 200
    assert state.cumulative_infections == 200
    exposed = pop.ids(Compartment.EXPOSED)
    assert np.all(pop.exposure_day[exposed] == 0)
    assert not np.isnan(pop.params[exposed]).any()


def test_initialize_half_vaccinated():
    # the initially vaccinated share applies to the uninfected agents
    cfg = default_config(initProportionVaccinated=0.5)
    state = initialize(cfg, make_rng(1, 0))
    pop = state.population
    assert pop.counts()[Compartment.SUSCEPTIBLE_VACCINATED] == 4900
    assert pop.counts()[Compartment.SUSCEPTIBLE_UNVACCINATED] == 4900
    assert pop.counts()[Compartment.EXPOSED] == 200
    assert np.count_nonzero(pop.vaccinated) == 4900


def test_initialize_no_seeds():
    cfg = default_config(initialInfected=0)
    state = initialize(cfg, make_rng(1, 0))
    assert state.population.counts()[Compartment.SUSCEPTIBLE_UNVACCINATED] == 10_000


def test_initialize_rejects_too_many_seeds():
    cfg = default_config(popSize=100, initialInfected=200)
    with pytest.raises(ConfigError):
        initialize(cfg, make_rng(1, 0))


def test_initialize_acceptance_probabilities_in_unit_interval():
    cfg = default_config(popSize=2000)
    state = initialize(cfg, make_rng(2, 0))
    willingness = state.population.willingness
    assert min(willingness) >= 0.0 and max(willingness) <= 1.0
    assert abs(np.mean(willingness) - 0.7) < 0.01


def test_day_zero_record_matches_exposure_oracle():
    cfg = default_config(popSize=5000, initialInfected=100, timeHorizon=1)
    rng = make_rng(cfg.baseSeed, 0)
    state = initialize(cfg, rng)
    record = step(state, 0, rng)
    # external exposures on 4900 susceptibles at gamma 0.005: ~24.5 expected
    assert record["e"] == 100 + record["new_ext"]
    assert record["new_int"] == 0  # seeds are not yet infectious
    assert 5 <= record["new_ext"] <= 60
    assert record["tests_today"] == 0
    assert record["vaccinated_total"] == 0
    assert record["cum_infections"] == 100 + record["new_ext"]


def test_conservation_every_day():
    cfg = default_config(
        popSize=800, initialInfected=20, timeHorizon=80,
        daysBetweenTesting=4, poolSize=5, vaccinesAvailablePerDay=5,
    )
    _, records = run(cfg, 0)
    assert len(records) == 80
    for record in records:
        assert sum(counts_of(record)) == 800


def test_results_move_compartments_only_after_delay():
    # everyone susceptible, certain false positives, 3-day delay
    cfg = default_config(
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
    cfg = default_config(
        popSize=60, initialInfected=30, timeHorizon=12,
        externalExposureProbDaily=0.0, betaDaily=0.0,
        daysBetweenTesting=1, firstDayOfTesting=5, poolSize=1,
        fprSingle=0.0, fnrSingle=0.0, daysDelayTestResults=0,
        selfIsolationOnSymptomsProb=0.0,
    )
    _, records = run(cfg, 0)
    final = records[-1]
    assert final["cum_false_iso"] == 0
    assert final["iso_sick"] + final["r"] > 0  # true positives were isolated


def test_run_is_deterministic():
    cfg = default_config(
        popSize=400, initialInfected=20, timeHorizon=40,
        daysBetweenTesting=4, poolSize=5, vaccinesAvailablePerDay=10,
    )
    summary_a, records_a = run(cfg, 3)
    summary_b, records_b = run(cfg, 3)
    assert summary_a == summary_b
    assert np.array_equal(records_a, records_b)


def test_different_run_indices_differ():
    cfg = default_config(popSize=400, initialInfected=20, timeHorizon=20)
    _, records_a = run(cfg, 0)
    _, records_b = run(cfg, 1)
    assert not np.array_equal(records_a, records_b)


def test_zero_horizon_runs():
    cfg = default_config(popSize=100, initialInfected=5, timeHorizon=0)
    summary, records = run(cfg, 0)
    assert len(records) == 0
    assert summary.total_infections == 5
    assert summary.cost_per_person_per_day == 0.0


def test_summary_splits_seeded_and_acquired():
    cfg = default_config(popSize=500, initialInfected=25, timeHorizon=30)
    summary, records = run(cfg, 1)
    assert summary.seeded_infections == 25
    assert summary.total_infections == 25 + summary.acquired_infections
    assert summary.total_infections == records[-1]["cum_infections"]


def test_replicates_match_serial_and_parallel():
    cfg = default_config(popSize=300, initialInfected=15, timeHorizon=25)
    [serial] = run_replicates([cfg], 3, jobs=1)
    [parallel] = run_replicates([cfg], 3, jobs=2)
    assert serial.summaries == parallel.summaries
    assert np.array_equal(np.stack(serial.records), np.stack(parallel.records))


def test_replicates_of_several_configs_come_back_per_config():
    # one pool for every (config, run index); results are grouped per config
    configs = [default_config(popSize=200, initialInfected=10, timeHorizon=15, baseSeed=seed)
               for seed in (1, 2, 3)]
    results = run_replicates(configs, 2, jobs=2)
    assert len(results) == 3
    for config, result in zip(configs, results):
        assert [s.run_index for s in result.summaries] == [0, 1]
        for i in range(2):
            summary, records = run(config, i)
            assert result.summaries[i] == summary
            assert np.array_equal(result.records[i], records)


def test_single_replicate_aggregate_equals_run(tmp_path):
    cfg = default_config(popSize=300, initialInfected=15, timeHorizon=25)
    [result] = run_replicates([cfg], 1)
    _, records = run(cfg, 0)
    columns = aggregate_columns(tmp_path, cfg, result)
    expected = records["e"].astype(float)
    assert np.array_equal(columns["mean_e"], expected)
    assert np.array_equal(columns["min_e"], expected)
    assert np.array_equal(columns["max_e"], expected)


def test_aggregate_bands_bracket_the_mean(tmp_path):
    cfg = default_config(popSize=300, initialInfected=15, timeHorizon=25)
    [result] = run_replicates([cfg], 4)
    columns = aggregate_columns(tmp_path, cfg, result)
    for column in RECORD_DTYPE.names[1:]:
        assert np.all(columns[f"min_{column}"] <= columns[f"mean_{column}"] + 1e-9), column
        assert np.all(columns[f"mean_{column}"] <= columns[f"max_{column}"] + 1e-9), column


def test_peak_size_stable_across_base_seeds():
    # Monte Carlo stability of the mean epidemic peak, at reduced scale
    cfg_a = default_config(popSize=2000, initialInfected=40, timeHorizon=60,
                           baseSeed=111)
    cfg_b = default_config(popSize=2000, initialInfected=40, timeHorizon=60,
                           baseSeed=222)
    peaks = []
    for cfg in (cfg_a, cfg_b):
        [result] = run_replicates([cfg], 15)
        curves = np.array([recs["i_s"] + recs["i_a"] for recs in result.records])
        peaks.append(curves.mean(axis=0).max())
    assert abs(peaks[0] - peaks[1]) / max(peaks) < 0.10


def test_default_jobs_counts_the_cpus_the_process_may_use(monkeypatch):
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    assert engine.default_jobs() == 2
    monkeypatch.delattr(engine.os, "sched_getaffinity")
    assert engine.default_jobs() == 8
