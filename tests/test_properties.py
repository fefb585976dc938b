"""Invariants of whole runs over random valid small configs.

Every day of every generated run must conserve the population, keep every
count non-negative and every cumulative column non-decreasing, and keep the
per-agent arrays consistent with the compartments. Examples are derandomized
so that the suite is reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from episim.core import (
    Compartment,
    Constant,
    GammaShifted,
    Uniform,
    default_config,
    make_rng,
    validate_config,
)
from episim.engine import initialize, run_replicates, step
from episim.viral_load import key_days

C = Compartment
COUNT_COLUMNS = ("s_u", "s_v", "e", "i_s", "i_a", "r", "iso_healthy", "iso_sick")
CUMULATIVE_COLUMNS = ("cum_infections", "cum_false_iso", "cum_cost", "vaccinated_total")
LOAD_COLUMNS = [1, 3, 6]  # V0, VP, VF in a row of Population.params
PROPERTY_SETTINGS = settings(deadline=None, derandomize=True, database=None)


def unit():
    return st.floats(0.0, 1.0)


@st.composite
def configs(draw):
    pop_size = draw(st.integers(1, 300))
    testing = draw(st.booleans())
    config = default_config(
        popSize=pop_size,
        timeHorizon=draw(st.integers(0, 40)),
        initialInfected=draw(st.integers(0, pop_size)),
        initProportionVaccinated=draw(unit()),
        baseSeed=draw(st.integers(0, 2**16)),
        betaDaily=draw(st.floats(0.0, 3.0)),
        daysTilSusceptible=draw(st.integers(0, 30)),
        externalExposureProbDaily=draw(st.floats(0.0, 0.2)),
        fractionSymptomatic=draw(unit()),
        infectiousViralLoadCut=draw(st.sampled_from([1e2, 1e3, 1e5])),
        tP=draw(st.sampled_from([GammaShifted(1.5, 1.0, 0.5), Constant(0.0)])),
        tS=draw(st.sampled_from([Uniform(0.0, 3.0), Constant(0.0)])),
        tF=draw(st.sampled_from([Uniform(4.0, 9.0), Uniform(0.0, 1.0)])),
        daysBetweenTesting=draw(st.integers(1, 5)) if testing else 0,
        daysDelayTestResults=draw(st.integers(0, 4)),
        firstDayOfTesting=draw(st.integers(0, 10)),
        fprSingle=draw(st.floats(0.0, 0.5)),
        fnrSingle=draw(st.floats(0.0, 0.5)),
        poolingType=draw(st.sampled_from(["average", "exponential"])),
        poolSize=draw(st.integers(1, 10)),
        noTestingPostIsolationDays=draw(st.integers(0, 10)),
        isolationLength=draw(st.integers(0, 14)),
        selfIsolationOnSymptomsProb=draw(unit()),
        vaccinesAvailablePerDay=draw(st.integers(0, 20)),
        vaccineInfectionProb=draw(unit()),
    )
    assert validate_config(config).ok, str(validate_config(config))
    return config


def check_population(pop, day):
    isolated = pop.comp >= C.ISOLATED_HEALTHY
    entry, exit_ = pop.iso_entry_day[isolated], pop.iso_exit_day[isolated]
    assert np.all((entry <= day) & (day < exit_ + 1)), day
    assert np.isnan(pop.iso_entry_day[~isolated]).all(), day
    assert np.isnan(pop.iso_exit_day[~isolated]).all(), day
    infected = (pop.comp >= C.EXPOSED) & (pop.comp <= C.RECOVERED)
    assert np.isfinite(pop.exposure_day[infected]).all(), day
    assert np.all(pop.params[np.ix_(infected, LOAD_COLUMNS)] > 0), day
    # no trajectory outside an infection episode
    episode = infected | (pop.comp == C.ISOLATED_SICK)
    assert np.isnan(pop.exposure_day[~episode]).all(), day
    assert np.isnan(pop.params[~episode]).all(), day
    # the key days are those of the episode's trajectory, and NaN outside one
    stored = (pop.first_load_day, pop.past_peak_day, pop.last_load_day, pop.onset_day)
    want = key_days(pop.params[episode], pop.exposure_day[episode], pop.symptomatic[episode])
    for days, expected in zip(stored, want):
        assert np.array_equal(days[episode], expected, equal_nan=True), day
        assert np.isnan(days[~episode]).all(), day
    assert np.array_equal(np.isfinite(pop.onset_day[episode]), pop.symptomatic[episode]), day
    # the status update leaves no E or I agent past its last load day, and no
    # I agent before its first load day
    active = (pop.comp >= C.EXPOSED) & (pop.comp <= C.INFECTIOUS_ASYMPTOMATIC)
    assert np.all(day <= pop.last_load_day[active]), day
    infectious = (pop.comp == C.INFECTIOUS_SYMPTOMATIC) | (pop.comp == C.INFECTIOUS_ASYMPTOMATIC)
    assert np.all(pop.first_load_day[infectious] <= day), day
    assert np.all(pop.vaccinated[pop.comp == C.SUSCEPTIBLE_VACCINATED]), day
    assert not np.any(pop.vaccinated[pop.comp == C.SUSCEPTIBLE_UNVACCINATED]), day


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(configs())
def test_daily_invariants(config):
    rng = make_rng(config.baseSeed, 0)
    state = initialize(config, rng)
    check_population(state.population, 0)
    previous = None
    for day in range(config.timeHorizon):
        record = step(state, day, rng)
        counts = [record[col] for col in COUNT_COLUMNS]
        assert sum(counts) == config.popSize, day
        assert counts == state.population.counts().tolist(), day
        assert min(counts) >= 0 and record["tests_today"] >= 0, day
        assert record["new_ext"] >= 0 and record["new_int"] >= 0, day
        assert record["vaccinated_total"] == np.count_nonzero(state.population.vaccinated), day
        if previous is not None:
            for col in CUMULATIVE_COLUMNS:
                assert record[col] >= previous[col], (day, col)
        check_population(state.population, day)
        previous = record


@settings(PROPERTY_SETTINGS, max_examples=5)
@given(configs())
def test_replicates_identical_for_any_job_count(config):
    [serial] = run_replicates([config], 2, jobs=1)
    [parallel] = run_replicates([config], 2, jobs=2)
    assert serial.summaries == parallel.summaries
    assert np.array_equal(np.stack(serial.records), np.stack(parallel.records))
