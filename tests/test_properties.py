"""Invariants of whole runs over random valid small configs.

Every day of every generated run must conserve the population, keep every
count non-negative and every cumulative column non-decreasing, and keep the
per-agent arrays consistent with the compartments. Examples are derandomized
so that the suite is reproducible.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

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
from episim.engine import RECORD_DTYPE, initialize, run, run_replicates, step
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


def check_population(pop, day, config):
    # an isolation ends on a later day, at most max(isolationLength, 1) after
    # the day it began
    isolated = pop.comp >= C.ISOLATED_HEALTHY
    exit_day = pop.iso_exit_day[isolated]
    assert np.all((day < exit_day) & (exit_day <= day + max(config.isolationLength, 1))), day
    assert np.isnan(pop.iso_exit_day[~isolated]).all(), day
    infected = (pop.comp >= C.EXPOSED) & (pop.comp <= C.RECOVERED)
    assert np.isfinite(pop.exposure_day[infected]).all(), day
    assert np.all(pop.params[np.ix_(infected, LOAD_COLUMNS)] > 0), day
    # no trajectory outside an infection episode
    episode = infected | (pop.comp == C.ISOLATED_SICK)
    assert np.isnan(pop.exposure_day[~episode]).all(), day
    assert np.isnan(pop.params[~episode]).all(), day
    # the key days are those of the episode's trajectory, and NaN outside one;
    # an episode with no onset day is asymptomatic, so it has no symptom delay
    # and no self-isolation to come
    stored = (pop.first_load_day, pop.past_peak_day, pop.last_load_day, pop.onset_day)
    symptomatic = np.isfinite(pop.onset_day)
    want = key_days(pop.params[episode], pop.exposure_day[episode], symptomatic[episode])
    for days, expected in zip(stored, want):
        assert np.array_equal(days[episode], expected, equal_nan=True), day
        assert np.isnan(days[~episode]).all(), day
    assert np.all(pop.params[episode & ~symptomatic, 4] == 0), day
    assert not np.any(pop.selfiso_candidate & ~symptomatic), day
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
    check_population(state.population, 0, config)
    previous = None
    stepped = np.empty(config.timeHorizon, dtype=RECORD_DTYPE)
    cost = 0.0
    for day in range(config.timeHorizon):
        record = step(state, day, rng)
        stepped[day] = record
        counts = [record[col] for col in COUNT_COLUMNS]
        assert sum(counts) == config.popSize, day
        assert counts == state.population.counts().tolist(), day
        assert min(counts) >= 0 and record["tests_today"] >= 0, day
        assert record["new_ext"] >= 0 and record["new_int"] >= 0, day
        assert record["vaccinated_total"] == np.count_nonzero(state.population.vaccinated), day
        # the cost grows by exactly the day's tests at their price
        cost += record["tests_today"] * config.costPerTest
        assert record["cum_cost"] == cost, day
        if previous is not None:
            for col in CUMULATIVE_COLUMNS:
                assert record[col] >= previous[col], (day, col)
        check_population(state.population, day, config)
        previous = record
    summary, records = run(config, 0)
    assert np.array_equal(records, stepped)
    assert summary.total_tests == records["tests_today"].sum()
    assert summary.total_cost == (records[-1]["cum_cost"] if len(records) else 0.0)


@settings(PROPERTY_SETTINGS, max_examples=5)
@given(configs())
def test_replicates_identical_for_any_job_count(config):
    [serial] = run_replicates([config], 2, jobs=1)
    [parallel] = run_replicates([config], 2, jobs=2)
    assert serial.summaries == parallel.summaries
    assert np.array_equal(np.stack(serial.records), np.stack(parallel.records))


def test_failing_example_does_not_abort_the_session(tmp_path):
    # Hypothesis imports libcst to report a failing example, and libcst warns
    # of a deprecation; the warning filters must not turn that into an
    # INTERNALERROR that ends the session before the later tests run
    (tmp_path / "test_two.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """))
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
