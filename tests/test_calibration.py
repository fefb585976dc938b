"""The infectious time of the engine's episodes, beta estimation, and R0 from
a run's final size."""

import dataclasses
import math

import numpy as np
import pytest

from episim.calibration import estimate_beta, final_size_r0, infectious_days
from episim.core import ConfigError, Constant, NormalClipped, ScenarioConfig, Uniform, make_rng
from episim.engine import RECORD_DTYPE, initialize, run, step


def make_record(day, seeds=0, new_ext=0, new_int=0, s_u=0, e=0, r=0):
    """One record; ``cum_infections`` counts the seeds and the day's
    exposures, and the fields not named here are 0."""
    record = np.zeros((), dtype=RECORD_DTYPE)
    for name, value in dict(day=day, s_u=s_u, e=e, r=r, new_ext=new_ext, new_int=new_int,
                            cum_infections=seeds + new_ext + new_int).items():
        record[name] = value
    return record


def test_infectious_days_on_defaults():
    # the closed-form sum E[t0] + E[tP] + E[tF] + f*E[tS] is 12.25 days
    assert infectious_days(ScenarioConfig()) == pytest.approx(9.28, rel=0.01)


def test_infectious_days_is_what_the_engine_counts_in_i():
    # every agent a seed, nothing spreads, and every episode ends in the horizon
    config = ScenarioConfig(popSize=2000, initialInfected=2000, timeHorizon=60, betaDaily=0.0,
                            externalExposureProbDaily=0.0, selfIsolationOnSymptomsProb=0.0,
                            daysTilSusceptible=60)
    state = initialize(config, make_rng(config.baseSeed, 0))
    for day in range(config.timeHorizon):
        step(state, day)
    records = state.records[1:]
    assert records[-1]["r"] == 2000
    counted = (records["i_s"] + records["i_a"]).sum()
    population = state.population
    per_episode = np.nan_to_num(population.recovery_day - population.infectious_day)
    assert per_episode.sum() == counted
    se = per_episode.std() / math.sqrt(2000)
    assert abs(counted / 2000 - infectious_days(config)) < 4 * se


def test_infectious_days_without_symptomatics():
    # tS is drawn for every episode and then zeroed where asymptomatic, so
    # with no symptomatic episode it does not count at all
    no_symptoms = ScenarioConfig(fractionSymptomatic=0.0)
    tau = infectious_days(no_symptoms)
    assert tau == infectious_days(dataclasses.replace(no_symptoms, tS=Uniform(10.0, 20.0)))
    assert 0 < tau < infectious_days(ScenarioConfig())


def test_infectious_days_all_constants():
    # the load exceeds the cut of 1e3 on (1, 4): at the whole days 2, 3 and 4
    # after exposure, and V0 = VF = 1e3 is not above it
    cfg = ScenarioConfig(
        fractionSymptomatic=1.0, VP=Constant(1e5),
        t0=Constant(1.0), tP=Constant(1.0), tS=Constant(1.0), tF=Constant(1.0),
    )
    assert infectious_days(cfg) == 3.0


def test_infectious_days_of_clipped_normal():
    cfg = ScenarioConfig(tP=NormalClipped(2.0, 0.5, 0.0, 5.0))
    assert infectious_days(cfg) == pytest.approx(9.25, rel=0.01)


def test_estimate_beta_for_target_five():
    tau = infectious_days(ScenarioConfig())
    beta = estimate_beta(5.0, tau)
    assert beta == 5.0 / tau
    assert 0.533 <= beta <= 0.545


def test_estimate_beta_cancellation():
    assert estimate_beta(9.5, 9.5) == 1.0


def test_estimate_beta_linear_in_target():
    tau = infectious_days(ScenarioConfig())
    assert estimate_beta(2.5, tau) == pytest.approx(0.5 * estimate_beta(5.0, tau))


def test_estimate_beta_rejects_nonpositive_target():
    with pytest.raises(ConfigError):
        estimate_beta(0.0, 9.5)


def test_estimate_beta_rejects_a_config_never_infectious_and_an_infinite_beta():
    with pytest.raises(ConfigError, match="no episode of this config is ever infectious"):
        estimate_beta(2.0, 0.0)
    with pytest.raises(ConfigError, match="target R0 1e[+]308 over 0.5 infectious days"):
        estimate_beta(1e308, 0.5)


def test_final_size_r0_hand_value():
    # 1000 agents, 10 seeds and 5 imported on day 0; 500 still susceptible
    records = np.stack([make_record(0, seeds=10, new_ext=5, s_u=985, e=15),
                        make_record(99, s_u=500, r=500)])
    assert final_size_r0(records) == pytest.approx(math.log(990 / 500) / 0.5)


def test_final_size_r0_undefined_without_susceptibles_or_seeds():
    all_seeds = np.stack([make_record(0, seeds=100, e=100), make_record(9, r=100)])
    no_seeds = np.stack([make_record(0, s_u=100), make_record(9, s_u=100)])
    everyone = np.stack([make_record(0, seeds=1, s_u=99, e=1), make_record(9, r=100)])
    for records in (all_seeds, no_seeds, everyone):
        assert math.isnan(final_size_r0(records))


def test_final_size_r0_zero_after_seeds_recover_without_transmission():
    cfg = ScenarioConfig(
        popSize=300, initialInfected=10, timeHorizon=40,
        betaDaily=0.0, externalExposureProbDaily=0.0, daysTilSusceptible=40,
    )
    _, records = run(cfg, 0)
    assert final_size_r0(records) == 0.0
