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
    DAY_ROWS,
    EPISODE_DAYS,
    START_DAYS,
    TRANSITION_DAYS,
    Compartment,
    Constant,
    GammaShifted,
    ScenarioConfig,
    Uniform,
    make_rng,
)
from episim.engine import RECORD_DTYPE, initialize, run, run_replicates, step
from episim.viral_load import start_days, transition_days

C = Compartment
COUNT_COLUMNS = ("s_u", "s_v", "e", "i_s", "i_a", "r", "iso_healthy", "iso_sick")
CUMULATIVE_COLUMNS = ("cum_infections", "cum_false_iso", "cum_cost", "vaccinated_total")
LOAD_ROWS = [1, 3, 6]  # V0, VP, VF in Population.params
PROPERTY_SETTINGS = settings(deadline=None, derandomize=True, database=None)


def unit():
    return st.floats(0.0, 1.0)


@st.composite
def configs(draw):
    pop_size = draw(st.integers(1, 300))
    testing = draw(st.booleans())
    return ScenarioConfig(
        popSize=pop_size,
        timeHorizon=draw(st.integers(1, 40)),
        initialInfected=draw(st.integers(0, pop_size)),
        initProportionVaccinated=draw(unit()),
        baseSeed=draw(st.integers(0, 2**16)),
        betaDaily=draw(st.floats(0.0, 3.0)),
        daysTilSusceptible=draw(st.integers(0, 30)),
        externalExposureProbDaily=draw(st.floats(0.0, 0.2)),
        fractionSymptomatic=draw(unit()),
        infectiousViralLoadCut=draw(st.sampled_from([1e2, 1e3, 1e5])),
        # a t0 from 0 opens the load window on the exposure day
        t0=draw(st.sampled_from([Uniform(2.5, 3.5), Constant(0.0), Uniform(0.0, 1.0)])),
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


def check_population(pop, day, config):
    # every per-agent day is a row of one float32 block; assigning a new array
    # to a named day would detach it from the block
    assert pop.days.dtype == np.float32 and pop.days.shape == (len(DAY_ROWS), len(pop.comp))
    for name, row in zip(DAY_ROWS, pop.days):
        assert np.shares_memory(getattr(pop, name), row), name
    # an isolation ends on a later day, at most max(isolationLength, 1) after
    # the day it began. Any other agent's release day, if set, is today or
    # earlier
    isolated = pop.comp >= C.ISOLATED_HEALTHY
    release_day = pop.release_day[isolated]
    assert np.all((day < release_day) & (release_day <= day + max(config.isolationLength, 1))), day
    assert not np.any(pop.release_day[~isolated] > day), day
    # a sick isolation ends its episode's schedule: no onset to come, and
    # recovery on the release
    sick = pop.comp == C.ISOLATED_SICK
    assert np.isnan(pop.infectious_day[sick]).all(), day
    assert np.array_equal(pop.recovery_day[sick], pop.release_day[sick]), day
    infected = (pop.comp >= C.EXPOSED) & (pop.comp <= C.RECOVERED)
    assert np.isfinite(pop.exposure_day[infected]).all(), day
    assert np.all(pop.params[np.ix_(LOAD_ROWS, infected)] > 0), day
    # no trajectory outside an infection episode
    episode = infected | (pop.comp == C.ISOLATED_SICK)
    assert np.isnan(pop.exposure_day[~episode]).all(), day
    assert np.isnan(pop.params[:, ~episode]).all(), day
    # the start days are those of the episode's trajectory, and NaN outside
    # one; an episode with no onset day is asymptomatic, so it has no symptom
    # delay and no self-isolation to come
    assert np.isnan(pop.days[EPISODE_DAYS][:, ~episode]).all(), day
    symptomatic = np.isfinite(pop.onset_day)
    want = pop.exposure_day[episode] + start_days(pop.params[:, episode], symptomatic[episode])
    assert np.array_equal(pop.days[START_DAYS][:, episode], want, equal_nan=True), day
    # an episode waits for its transition days while its recovery day is NaN.
    # The status update sets them, as a first update on the exposure day or
    # the next day would, once a waiting episode reaches its first load day.
    # So at the end of a day only the day's internal exposures (after
    # initialize, the seeds) and episodes before their first load day wait,
    # all in E: a sick isolation sets the recovery day
    waiting = episode & np.isnan(pop.recovery_day)
    assert np.isnan(pop.days[TRANSITION_DAYS][:, waiting]).all(), day
    first_load_day = pop.first_load_day[waiting]
    assert np.all((first_load_day > day) | (pop.exposure_day[waiting] == max(day, 0))), day
    assert np.all(pop.comp[waiting] == C.EXPOSED), day
    # a scheduled E or I episode's transition days are those of a first update
    # on its exposure day or the next day
    active = (pop.comp >= C.EXPOSED) & (pop.comp <= C.INFECTIOUS_ASYMPTOMATIC)
    scheduled = active & ~waiting
    stored = pop.days[TRANSITION_DAYS][:, scheduled]
    params, exposed_on = pop.params[:, scheduled], pop.exposure_day[scheduled]
    # per first update, whether each episode's transition days match
    matches = [((stored == want) | (np.isnan(stored) & np.isnan(want))).all(axis=0) for want in (
        exposed_on + transition_days(params, config.infectiousViralLoadCut, lag)
        for lag in (0, 1))]
    assert np.all(matches[0] | matches[1]), day
    assert np.all(pop.params[4, episode & ~symptomatic] == 0), day
    # a self-isolation day is set only for a symptomatic episode, inside its
    # symptom window, on its onset day or its first update
    selfiso = np.isfinite(pop.selfiso_day)
    assert not np.any(selfiso & ~symptomatic), day
    selfiso_day, onset_day = pop.selfiso_day[selfiso], pop.onset_day[selfiso]
    assert np.all((onset_day <= selfiso_day) & (selfiso_day <= pop.last_load_day[selfiso])), day
    assert np.all((selfiso_day == onset_day) | (selfiso_day - pop.exposure_day[selfiso] <= 1)), day
    # the status update leaves no E or I agent past its last load day, no E
    # agent past its infectious day and no I agent before its first load day
    assert np.all(day <= pop.last_load_day[active]), day
    assert not np.any(pop.infectious_day[pop.comp == C.EXPOSED] <= day), day
    infectious = (pop.comp == C.INFECTIOUS_SYMPTOMATIC) | (pop.comp == C.INFECTIOUS_ASYMPTOMATIC)
    assert np.all(pop.first_load_day[infectious] <= day), day
    # an agent is in R exactly when its recovery day is past, so loss of
    # immunity moves every agent whose day is due
    assert np.array_equal(pop.recovery_day <= day, pop.comp == C.RECOVERED), day
    assert np.all(pop.vaccinated[pop.comp == C.SUSCEPTIBLE_VACCINATED]), day
    assert not np.any(pop.vaccinated[pop.comp == C.SUSCEPTIBLE_UNVACCINATED]), day


@settings(PROPERTY_SETTINGS, max_examples=25)
@given(configs())
def test_daily_invariants(config):
    state = initialize(config, make_rng(config.baseSeed, 0))
    # the state after initialize is the end of day -1
    check_population(state.population, -1, config)
    previous = None
    stepped = np.empty(config.timeHorizon, dtype=RECORD_DTYPE)
    cost = 0.0
    for day in range(config.timeHorizon):
        record = step(state, day)
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
    # the summary is read from the records; without a day, from the seeds
    final = records[-1] if len(records) else {
        "cum_infections": config.initialInfected, "cum_false_iso": 0, "cum_cost": 0.0,
    }
    assert summary.total_infections == final["cum_infections"]
    assert summary.seeded_infections == config.initialInfected
    assert summary.acquired_infections == summary.total_infections - config.initialInfected
    assert summary.total_false_isolations == final["cum_false_iso"]
    assert summary.total_tests == records["tests_today"].sum()
    assert summary.total_cost == final["cum_cost"]


@settings(PROPERTY_SETTINGS, max_examples=5)
@given(configs())
def test_replicates_identical_for_any_job_count(config):
    [serial] = run_replicates([config], 2, jobs=1)
    [parallel] = run_replicates([config], 2, jobs=2)
    assert [summary for summary, _ in serial] == [summary for summary, _ in parallel]
    assert np.array_equal(np.stack([records for _, records in serial]),
                          np.stack([records for _, records in parallel]))


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
