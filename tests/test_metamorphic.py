"""Metamorphic relations of whole runs: two configs that differ in one way
whose effect on the records is known exactly.

Each relation must hold bit for bit, over the random small configs of
``test_properties.configs()`` and over one config above
``transmission.SPARSE_EXPOSURE_AGENTS``, where each exposure stage draws a
count and then who and a testing day places its carriers in the pools. A
change of the streams that keeps the law keeps every relation: each pins
that a stream or a column depends on what it should, and on nothing else.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings

from episim.core import ScenarioConfig, Uniform
from episim.engine import run
from episim.transmission import SPARSE_EXPOSURE_AGENTS

from test_properties import PROPERTY_SETTINGS, configs

EXAMPLES = settings(PROPERTY_SETTINGS, max_examples=20)
# above the size rule; 10,000 samples leave a short last pool of 1 in pools of 3
LARGE = ScenarioConfig(
    popSize=SPARSE_EXPOSURE_AGENTS, timeHorizon=30, initialInfected=60, betaDaily=0.6,
    externalExposureProbDaily=0.005, t0=Uniform(0.0, 1.0), daysTilSusceptible=8,
    daysBetweenTesting=2, firstDayOfTesting=2, poolSize=3, daysDelayTestResults=1,
    noTestingPostIsolationDays=3, initProportionVaccinated=0.1, vaccinesAvailablePerDay=40,
)


def records(config, **changes):
    return run(dataclasses.replace(config, **changes), 0)[1]


def columns_except(a, b, *skip):
    """Whether the records ``a`` and ``b`` agree in every column but ``skip``."""
    return all(np.array_equal(a[name], b[name]) for name in a.dtype.names if name not in skip)


def pools_of_one_ignore_the_pooling_type(config):
    # a pool of one is a single test under either rule
    assert np.array_equal(records(config, poolSize=1, poolingType="average"),
                          records(config, poolSize=1, poolingType="exponential"))


def cost_is_linear_in_the_price(config):
    # the price of a test scales the cost and nothing else
    once, twice = records(config), records(config, costPerTest=2 * config.costPerTest)
    assert np.array_equal(twice["cum_cost"], 2 * once["cum_cost"])
    assert columns_except(once, twice, "cum_cost")


def a_longer_run_starts_as_the_shorter(config):
    # no draw depends on the horizon
    assert np.array_equal(records(config, timeHorizon=config.timeHorizon + 7)[:config.timeHorizon],
                          records(config))


def doses_nobody_accepts_change_nothing(config):
    # vaccination draws from its own stream; with willingness 0 no dose is
    # taken, whatever the supply
    unwilling = dataclasses.replace(config, vaccineAcceptProbMean=0.0, vaccineAcceptProbStd=0.0)
    assert np.array_equal(records(unwilling, vaccinesAvailablePerDay=50),
                          records(unwilling, vaccinesAvailablePerDay=0))


def late_testing_is_no_testing(config):
    assert np.array_equal(
        records(config, daysBetweenTesting=max(config.daysBetweenTesting, 1),
                firstDayOfTesting=config.timeHorizon + config.firstDayOfTesting),
        records(config, daysBetweenTesting=0))


def a_carrier_free_day_tests_only_its_pools(config):
    # with no infection ever and no false positive, a testing day finds no
    # positive, so nobody is isolated and every agent is sampled: the day
    # uses one test per pool, and the run is the run without testing
    clean = dataclasses.replace(config, initialInfected=0, externalExposureProbDaily=0.0,
                                fprSingle=0.0)
    testing = dataclasses.replace(clean, daysBetweenTesting=max(config.daysBetweenTesting, 1))
    tested = records(testing)
    assert columns_except(tested, records(clean, daysBetweenTesting=0), "tests_today", "cum_cost")
    pools = -(-config.popSize // config.poolSize)
    days = range(config.timeHorizon)
    assert tested["tests_today"].tolist() == [
        pools if testing.is_testing_day(day) else 0 for day in days]
    cost = 0.0
    for day in days:
        cost += tested["tests_today"][day] * config.costPerTest
        assert tested["cum_cost"][day] == cost, day


RELATIONS = [pools_of_one_ignore_the_pooling_type, cost_is_linear_in_the_price,
             a_longer_run_starts_as_the_shorter, doses_nobody_accepts_change_nothing,
             late_testing_is_no_testing, a_carrier_free_day_tests_only_its_pools]


@pytest.mark.parametrize("relation", RELATIONS, ids=lambda relation: relation.__name__)
def test_relation_holds_above_the_size_rule(relation):
    relation(LARGE)


@pytest.mark.parametrize("relation", RELATIONS, ids=lambda relation: relation.__name__)
@EXAMPLES
@given(config=configs())
def test_relation_holds_on_small_configs(relation, config):
    relation(config)
