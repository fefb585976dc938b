"""Isolation entry/exit, self-isolation, loss of immunity, vaccination."""

import numpy as np
import pytest

from episim.core import (
    Compartment,
    Population,
    SimulationError,
    default_config,
    make_rng,
)
from episim.interventions import (
    apply_positive_results,
    isolation_exit_step,
    mark_recovered,
    recovered_to_susceptible_step,
    self_isolation_step,
    vaccination_step,
)
from episim.transmission import start_episodes

from reference import ViralLoadProfile, profile_params

SYMPTOMATIC_PROFILE = ViralLoadProfile(
    t0=3.0, V0=1e3, tP=2.0, VP=1e5, tS=1.5, tF=6.5, VF=1e3, symptomatic=True
)


def fresh_population(n=6):
    return Population(n)


def infect(pop, agent_id, day=0, profile=SYMPTOMATIC_PROFILE,
           compartment=Compartment.INFECTIOUS_SYMPTOMATIC, will_isolate=False):
    """Start an episode the way an exposure does, then move it to
    ``compartment``."""
    start_episodes(pop, np.array([agent_id]), day, np.array([profile_params(profile)]),
                   np.array([profile.symptomatic]), np.array([will_isolate]))
    pop.comp[agent_id] = compartment
    return agent_id


def vaccination_config(doses):
    return default_config(vaccinesAvailablePerDay=doses)


def test_positive_result_isolates_infectious_as_sick():
    pop = fresh_population()
    cfg = default_config()  # isolationLength 10
    infect(pop, 0)
    healthy = apply_positive_results(pop, [0], 5, cfg)
    assert pop.comp[0] == Compartment.ISOLATED_SICK
    assert pop.iso_exit_day[0] == 15
    assert healthy.tolist() == []


def test_positive_result_isolates_susceptible_as_healthy():
    pop = fresh_population()
    healthy = apply_positive_results(pop, [1], 5, default_config())
    assert pop.comp[1] == Compartment.ISOLATED_HEALTHY
    assert healthy.tolist() == [1]


def test_positive_result_leaves_recovered_alone():
    pop = fresh_population()
    pop.comp[2] = Compartment.RECOVERED
    assert apply_positive_results(pop, [2], 5, default_config()).tolist() == []
    assert pop.comp[2] == Compartment.RECOVERED
    assert np.isnan(pop.iso_exit_day[2])


def test_positive_result_on_isolated_agent_is_an_error():
    pop = fresh_population()
    apply_positive_results(pop, [0], 5, default_config())
    with pytest.raises(SimulationError):
        apply_positive_results(pop, [0], 6, default_config())


def test_self_isolation_on_first_symptomatic_day():
    pop = fresh_population()
    cfg = default_config()
    infect(pop, 0, day=0, will_isolate=True)
    # symptom onset at 6.5 days: nothing on day 6, isolation on day 7
    assert self_isolation_step(pop, 6, cfg).tolist() == []
    assert self_isolation_step(pop, 7, cfg).tolist() == [0]
    assert pop.comp[0] == Compartment.ISOLATED_SICK
    assert not pop.selfiso_candidate[0]  # the episode's decision is taken


def test_unwilling_agent_never_self_isolates():
    pop = fresh_population()
    cfg = default_config()
    infect(pop, 0, day=0, will_isolate=False)
    for day in range(20):
        assert self_isolation_step(pop, day, cfg).tolist() == []


def test_asymptomatic_agent_never_self_isolates():
    pop = fresh_population()
    cfg = default_config()
    profile = ViralLoadProfile(
        t0=3.0, V0=1e3, tP=2.0, VP=1e5, tS=0.0, tF=6.5, VF=1e3, symptomatic=False
    )
    infect(pop, 0, profile=profile,
           compartment=Compartment.INFECTIOUS_ASYMPTOMATIC, will_isolate=True)
    for day in range(20):
        assert self_isolation_step(pop, day, cfg).tolist() == []


def test_self_isolation_happens_once_per_episode():
    pop = fresh_population()
    cfg = default_config(isolationLength=1)
    infect(pop, 0, day=0, will_isolate=True)
    assert self_isolation_step(pop, 7, cfg).tolist() == [0]
    isolation_exit_step(pop, 9, cfg)  # back out, still in symptom window
    assert pop.comp[0] == Compartment.RECOVERED
    assert self_isolation_step(pop, 9, cfg).tolist() == []


def test_isolation_exit_timing_and_destinations():
    pop = fresh_population()
    cfg = default_config()  # length 10
    infect(pop, 0)
    apply_positive_results(pop, [0], 5, cfg)
    pop.vaccinated[1] = True
    pop.comp[1] = Compartment.SUSCEPTIBLE_VACCINATED
    apply_positive_results(pop, [1], 5, cfg)

    assert isolation_exit_step(pop, 14, cfg).tolist() == []
    released = isolation_exit_step(pop, 15, cfg)
    assert released.tolist() == [0, 1]
    assert pop.comp[0] == Compartment.RECOVERED
    assert pop.comp[1] == Compartment.SUSCEPTIBLE_VACCINATED
    assert pop.recovery_day[0] == 15
    assert pop.last_exit_day[0] == 15
    assert pop.last_exit_day[1] == 15


def test_zero_length_isolation_exits_the_next_day():
    pop = fresh_population()
    cfg = default_config(isolationLength=0)
    infect(pop, 0)
    apply_positive_results(pop, [0], 5, cfg)
    assert isolation_exit_step(pop, 5, cfg).tolist() == []
    assert isolation_exit_step(pop, 6, cfg).tolist() == [0]
    assert pop.comp[0] == Compartment.RECOVERED


def test_recovered_returns_to_susceptible_after_immunity_lapses():
    pop = fresh_population()
    cfg = default_config()  # daysTilSusceptible 30
    infect(pop, 0)
    mark_recovered(pop, [0], 20)
    assert recovered_to_susceptible_step(pop, 49, cfg).tolist() == []
    assert recovered_to_susceptible_step(pop, 50, cfg).tolist() == [0]
    assert pop.comp[0] == Compartment.SUSCEPTIBLE_UNVACCINATED
    assert np.isnan(pop.params[0]).all()
    for days in (pop.exposure_day, pop.first_load_day, pop.past_peak_day,
                 pop.last_load_day, pop.onset_day, pop.recovery_day):
        assert np.isnan(days[0])


def test_vaccinated_recovered_returns_to_vaccinated_susceptible():
    pop = fresh_population()
    cfg = default_config()
    infect(pop, 0)
    pop.vaccinated[0] = True
    mark_recovered(pop, [0], 0)
    recovered_to_susceptible_step(pop, 30, cfg)
    assert pop.comp[0] == Compartment.SUSCEPTIBLE_VACCINATED


def test_return_beyond_horizon_never_fires():
    pop = fresh_population()
    cfg = default_config(daysTilSusceptible=500, timeHorizon=120)
    infect(pop, 0)
    mark_recovered(pop, [0], 20)
    for day in range(cfg.timeHorizon):
        assert recovered_to_susceptible_step(pop, day, cfg).tolist() == []
    assert pop.comp[0] == Compartment.RECOVERED


def test_vaccination_with_no_supply():
    pop = fresh_population()
    moved = vaccination_step(pop, 0, vaccination_config(0), make_rng(1))
    assert moved.tolist() == []


def test_vaccination_supply_limited():
    pop = Population(5000)
    pop.willingness[:] = 0.7
    moved = vaccination_step(pop, 0, vaccination_config(50), make_rng(2))
    assert len(moved) == 50
    assert len(np.unique(moved)) == 50
    assert pop.counts()[Compartment.SUSCEPTIBLE_VACCINATED] == 50
    assert np.count_nonzero(pop.vaccinated) == 50


def test_vaccination_demand_limited():
    pop = Population(100)
    pop.willingness[:10] = 1.0
    moved = vaccination_step(pop, 0, vaccination_config(50), make_rng(3))
    assert sorted(moved) == list(range(10))


def test_vaccination_flags_infected_without_moving_them():
    pop = fresh_population(3)
    infect(pop, 0)
    pop.willingness[:] = 1.0
    vaccination_step(pop, 0, vaccination_config(10), make_rng(4))
    assert pop.vaccinated[0]
    assert pop.comp[0] == Compartment.INFECTIOUS_SYMPTOMATIC
    assert pop.comp[1] == Compartment.SUSCEPTIBLE_VACCINATED


def test_vaccination_skips_isolated_and_already_vaccinated():
    pop = fresh_population(4)
    pop.willingness[:] = 1.0
    pop.comp[0] = Compartment.ISOLATED_SICK
    pop.vaccinated[1] = True
    pop.comp[1] = Compartment.SUSCEPTIBLE_VACCINATED
    moved = vaccination_step(pop, 0, vaccination_config(10), make_rng(5))
    assert sorted(moved) == [2, 3]
