"""Isolation entry/exit, self-isolation, loss of immunity, vaccination."""

import numpy as np
import pytest

from episim.core import (
    EPISODE_DAYS,
    Compartment,
    Population,
    ScenarioConfig,
)
from episim.engine import _advance_infections
from episim.interventions import (
    apply_positive_results,
    isolation_exit_step,
    recovered_to_susceptible_step,
    self_isolation_step,
    vaccination_step,
)
from episim.transmission import episode_schedule, start_episodes

from reference import ViralLoadProfile, profile_params

SYMPTOMATIC_PROFILE = ViralLoadProfile(
    t0=3.0, V0=1e3, tP=2.0, VP=1e5, tS=1.5, tF=6.5, VF=1e3, symptomatic=True
)


def fresh_population(n=6):
    return Population(n)


def infect(pop, agent_id, day=0, profile=SYMPTOMATIC_PROFILE,
           compartment=Compartment.INFECTIOUS_SYMPTOMATIC, will_isolate=False, cut=1e3):
    """Start an episode the way an external exposure does, scheduled for the
    infectious cut ``cut`` (the default config's), then move it to
    ``compartment``."""
    params = np.array([profile_params(profile)]).T
    symptomatic = np.array([profile.symptomatic])
    start_episodes(pop, np.array([agent_id]), day, params,
                   episode_schedule(params, symptomatic, symptomatic & will_isolate, cut))
    pop.move(np.array([agent_id]), compartment)
    return agent_id


def recover(pop, agent_id, day):
    """Move an agent to R on ``day``, as the status update does."""
    pop.move(np.array([agent_id]), Compartment.RECOVERED)
    pop.recovery_day[agent_id] = day


def counted(stage, pop, *args):
    """``stage(pop, *args)`` from running counts synced with the population,
    which the tests write directly, and checks that the stage moved its
    agents in them."""
    pop.tally = pop.counts().tolist()
    moved = stage(pop, *args)
    assert pop.tally == pop.counts().tolist()
    return moved


def vaccinate(pop, doses, seed):
    """A day's vaccination of ``doses`` doses, with the stream ``seed``."""
    return counted(vaccination_step, pop, 0, vaccination_config(doses),
                   np.random.default_rng(seed), np.count_nonzero(pop.vaccinated))


def vaccination_config(doses):
    return ScenarioConfig(vaccinesAvailablePerDay=doses)


def test_positive_result_isolates_infectious_as_sick():
    pop = fresh_population()
    cfg = ScenarioConfig()  # isolationLength 10
    infect(pop, 0)
    healthy = counted(apply_positive_results, pop, [0], 5, cfg)
    assert pop.comp[0] == Compartment.ISOLATED_SICK
    assert pop.release_day[0] == 15
    assert healthy.tolist() == []
    # the isolation ends the episode's schedule: no onset, recovery on release
    assert np.isnan(pop.infectious_day[0]) and pop.recovery_day[0] == 15


def test_an_episode_isolated_before_its_first_load_day_keeps_its_release():
    # the transition days are set when the episode starts (recovery on day
    # 14), and the isolation on day 1, before the first load day (day 3),
    # sets the recovery day to the release on day 2: no status update, as
    # the one of agent 1's first load day, overwrites it
    pop = fresh_population()
    cfg = ScenarioConfig(isolationLength=1)
    infect(pop, 0, compartment=Compartment.EXPOSED)
    infect(pop, 1, compartment=Compartment.EXPOSED)
    assert pop.recovery_day[0] == 14
    assert pop.last_load_day[0] == 13
    counted(apply_positive_results, pop, [0], 1, cfg)
    assert pop.recovery_day[0] == pop.release_day[0] == 2
    counted(_advance_infections, pop, 1)
    counted(isolation_exit_step, pop, 2)
    counted(_advance_infections, pop, 3)
    assert np.isfinite(pop.recovery_day[1])
    assert pop.comp[0] == Compartment.RECOVERED and pop.recovery_day[0] == 2
    assert np.isnan(pop.infectious_day[0])


def test_positive_result_isolates_susceptible_as_healthy():
    pop = fresh_population()
    healthy = counted(apply_positive_results, pop, [1], 5, ScenarioConfig())
    assert pop.comp[1] == Compartment.ISOLATED_HEALTHY
    assert healthy.tolist() == [1]


def test_positive_result_leaves_recovered_alone():
    pop = fresh_population()
    pop.comp[2] = Compartment.RECOVERED
    assert counted(apply_positive_results, pop, [2], 5, ScenarioConfig()).tolist() == []
    assert pop.comp[2] == Compartment.RECOVERED
    assert np.isnan(pop.release_day[2])


def test_positive_result_on_isolated_agent_is_moot():
    pop = fresh_population()
    infect(pop, 1)
    counted(apply_positive_results, pop, [0, 1], 5, ScenarioConfig())
    assert counted(apply_positive_results, pop, [0, 1], 6, ScenarioConfig()).tolist() == []
    assert pop.comp[0] == Compartment.ISOLATED_HEALTHY
    assert pop.comp[1] == Compartment.ISOLATED_SICK
    assert pop.release_day[[0, 1]].tolist() == [15, 15]


def test_self_isolation_on_first_symptomatic_day():
    pop = fresh_population()
    cfg = ScenarioConfig()
    infect(pop, 0, day=0, will_isolate=True)
    # symptom onset at 6.5 days: nothing on day 6, isolation on day 7
    assert pop.selfiso_day[0] == 7
    assert counted(self_isolation_step, pop, 6, cfg).tolist() == []
    assert counted(self_isolation_step, pop, 7, cfg).tolist() == [0]
    assert pop.comp[0] == Compartment.ISOLATED_SICK


def test_unwilling_agent_never_self_isolates():
    pop = fresh_population()
    cfg = ScenarioConfig()
    infect(pop, 0, day=0, will_isolate=False)
    for day in range(20):
        assert counted(self_isolation_step, pop, day, cfg).tolist() == []


def test_asymptomatic_agent_never_self_isolates():
    pop = fresh_population()
    cfg = ScenarioConfig()
    profile = ViralLoadProfile(
        t0=3.0, V0=1e3, tP=2.0, VP=1e5, tS=0.0, tF=6.5, VF=1e3, symptomatic=False
    )
    infect(pop, 0, profile=profile,
           compartment=Compartment.INFECTIOUS_ASYMPTOMATIC, will_isolate=True)
    for day in range(20):
        assert counted(self_isolation_step, pop, day, cfg).tolist() == []


def test_self_isolation_happens_once_per_episode():
    pop = fresh_population()
    cfg = ScenarioConfig(isolationLength=1)
    infect(pop, 0, day=0, will_isolate=True)
    assert counted(self_isolation_step, pop, 7, cfg).tolist() == [0]
    counted(isolation_exit_step, pop, 8)  # back out, still in symptom window
    assert pop.comp[0] == Compartment.RECOVERED
    assert counted(self_isolation_step, pop, 9, cfg).tolist() == []


def test_isolation_exit_timing_and_destinations():
    pop = fresh_population()
    cfg = ScenarioConfig()  # length 10
    infect(pop, 0)
    counted(apply_positive_results, pop, [0], 5, cfg)
    pop.vaccinated[1] = True
    pop.comp[1] = Compartment.SUSCEPTIBLE_VACCINATED
    counted(apply_positive_results, pop, [1], 5, cfg)

    assert counted(isolation_exit_step, pop, 14).tolist() == []
    released = counted(isolation_exit_step, pop, 15)
    assert released.tolist() == [0, 1]
    assert pop.comp[0] == Compartment.RECOVERED
    assert pop.comp[1] == Compartment.SUSCEPTIBLE_VACCINATED
    # a release writes compartments only: the recovery day was set on
    # isolation, and the release day stays as the latest release
    assert pop.recovery_day[0] == 15
    assert np.isnan(pop.recovery_day[1])
    assert pop.release_day[[0, 1]].tolist() == [15, 15]
    assert counted(isolation_exit_step, pop, 16).tolist() == []


def test_zero_length_isolation_exits_the_next_day():
    pop = fresh_population()
    cfg = ScenarioConfig(isolationLength=0)
    infect(pop, 0)
    counted(apply_positive_results, pop, [0], 5, cfg)
    assert counted(isolation_exit_step, pop, 5).tolist() == []
    assert counted(isolation_exit_step, pop, 6).tolist() == [0]
    assert pop.comp[0] == Compartment.RECOVERED


def test_recovered_returns_to_susceptible_after_immunity_lapses():
    pop = fresh_population()
    cfg = ScenarioConfig()  # daysTilSusceptible 30
    infect(pop, 0)
    recover(pop, 0, 20)
    assert counted(recovered_to_susceptible_step, pop, 49, cfg).tolist() == []
    assert counted(recovered_to_susceptible_step, pop, 50, cfg).tolist() == [0]
    assert pop.comp[0] == Compartment.SUSCEPTIBLE_UNVACCINATED
    assert np.isnan(pop.params[:, 0]).all()
    for days in (pop.exposure_day, pop.first_load_day, pop.last_load_day,
                 pop.onset_day, pop.infectious_day, pop.recovery_day, pop.selfiso_day):
        assert np.isnan(days[0])


def test_loss_of_immunity_leaves_every_other_agent_untouched():
    # agent 1 loses immunity; agent 4, with another trajectory and other
    # days, keeps both to the byte. Both ids are below the number of fields,
    # so a write along the wrong axis of params would reach agent 4.
    pop = fresh_population()
    cfg = ScenarioConfig()  # daysTilSusceptible 30
    infect(pop, 1)
    other = ViralLoadProfile(t0=2.0, V0=1e2, tP=3.0, VP=1e7, tS=0.0, tF=8.0, VF=1e2,
                             symptomatic=False)
    infect(pop, 4, day=3, profile=other, compartment=Compartment.INFECTIOUS_ASYMPTOMATIC)
    recover(pop, 1, 20)
    recover(pop, 4, 25)
    before = pop.params[:, 4].tobytes(), pop.days[:, 4].tobytes()
    assert counted(recovered_to_susceptible_step, pop, 50, cfg).tolist() == [1]
    assert (pop.params[:, 4].tobytes(), pop.days[:, 4].tobytes()) == before
    assert pop.comp[4] == Compartment.RECOVERED


def test_return_to_susceptible_keeps_the_isolation_days():
    # only the episode's days are cleared: the latest release stays on record
    pop = fresh_population()
    cfg = ScenarioConfig()  # isolationLength 10, daysTilSusceptible 30
    infect(pop, 0)
    counted(apply_positive_results, pop, [0], 5, cfg)
    counted(isolation_exit_step, pop, 15)
    assert counted(recovered_to_susceptible_step, pop, 45, cfg).tolist() == [0]
    assert np.isnan(pop.days[EPISODE_DAYS, 0]).all()
    assert pop.release_day[0] == 15


def step_stages(pop, cfg, days, isolate=None):
    """Step ``pop`` through ``days`` with the stages of ``engine.step`` that
    draw nothing, in its order: isolation exits, the status update, loss of
    immunity and self-isolation, then the isolation of the ids
    ``isolate[day]`` on a positive result, as after a testing day. Returns
    each day's compartments, one row per day."""
    isolate = isolate or {}
    comps = []
    for day in days:
        counted(isolation_exit_step, pop, day)
        counted(_advance_infections, pop, day)
        counted(recovered_to_susceptible_step, pop, day, cfg)
        counted(self_isolation_step, pop, day, cfg)
        counted(apply_positive_results, pop, isolate.get(day, []), day, cfg)
        comps.append(pop.comp.copy())
    return np.array(comps)


def test_sick_isolation_past_the_scheduled_loss_of_immunity():
    # scheduled to recover on day 14, isolated on day 10 until day 20, with
    # immunity for 3 days: day 17, 3 days after the scheduled recovery, moves
    # nothing; the agent recovers on its release and is susceptible 3 days on
    pop = fresh_population()
    cfg = ScenarioConfig(isolationLength=10, daysTilSusceptible=3)
    infect(pop, 0, compartment=Compartment.EXPOSED)
    comps = step_stages(pop, cfg, range(10))
    assert comps[-1, 0] == Compartment.INFECTIOUS_SYMPTOMATIC
    assert pop.recovery_day[0] == 14
    comps = step_stages(pop, cfg, range(10, 25), {10: [0]})[:, 0].tolist()
    sick, recovered, susceptible = (Compartment.ISOLATED_SICK, Compartment.RECOVERED,
                                    Compartment.SUSCEPTIBLE_UNVACCINATED)
    # days 10-19 isolated, 20-22 recovered, 23 on susceptible
    assert comps == [sick] * 10 + [recovered] * 3 + [susceptible] * 2


def test_exposed_agent_isolated_the_day_before_its_onset_never_becomes_infectious():
    pop = fresh_population()
    cfg = ScenarioConfig(isolationLength=10)
    infect(pop, 0, compartment=Compartment.EXPOSED)
    step_stages(pop, cfg, range(3))
    # scheduled when it started to be infectious from day 4, one day after
    # its first load day; it is isolated on day 3, after the status update
    comps = step_stages(pop, cfg, range(3, 20), {3: [0]})[:, 0].tolist()
    # isolated on days 3-12, recovered from its release on day 13
    assert comps == [Compartment.ISOLATED_SICK] * 10 + [Compartment.RECOVERED] * 7


def test_an_episode_that_recovers_before_its_self_isolation_day_stays_in_r():
    # below the cut throughout: E on days 0-2, R from day 3, past its peak;
    # symptoms from day 5, before its last load day (11)
    pop = fresh_population()
    cfg = ScenarioConfig()
    profile = ViralLoadProfile(t0=1.0, V0=1e2, tP=1.0, VP=5e2, tS=3.0, tF=6.0, VF=1e2,
                               symptomatic=True)
    infect(pop, 0, profile=profile, compartment=Compartment.EXPOSED, will_isolate=True)
    assert pop.selfiso_day[0] == 5
    comps = step_stages(pop, cfg, range(12))[:, 0].tolist()
    assert comps == [Compartment.EXPOSED] * 3 + [Compartment.RECOVERED] * 9
    assert counted(self_isolation_step, pop, 5, cfg).tolist() == []


def test_vaccinated_recovered_returns_to_vaccinated_susceptible():
    pop = fresh_population()
    cfg = ScenarioConfig()
    infect(pop, 0)
    pop.vaccinated[0] = True
    recover(pop, 0, 0)
    counted(recovered_to_susceptible_step, pop, 30, cfg)
    assert pop.comp[0] == Compartment.SUSCEPTIBLE_VACCINATED


def test_return_beyond_horizon_never_fires():
    pop = fresh_population()
    cfg = ScenarioConfig(daysTilSusceptible=500, timeHorizon=120)
    infect(pop, 0)
    recover(pop, 0, 20)
    for day in range(cfg.timeHorizon):
        assert counted(recovered_to_susceptible_step, pop, day, cfg).tolist() == []
    assert pop.comp[0] == Compartment.RECOVERED


def test_vaccination_with_no_supply():
    pop = fresh_population()
    moved = vaccinate(pop, 0, 1)
    assert moved.tolist() == []


def test_vaccination_supply_limited():
    pop = Population(5000)
    pop.willingness[:] = 0.7
    moved = vaccinate(pop, 50, 2)
    assert len(moved) == 50
    assert len(np.unique(moved)) == 50
    assert pop.counts()[Compartment.SUSCEPTIBLE_VACCINATED] == 50
    assert np.count_nonzero(pop.vaccinated) == 50


def test_vaccination_demand_limited():
    pop = Population(100)
    pop.willingness[:10] = 1.0
    moved = vaccinate(pop, 50, 3)
    assert sorted(moved) == list(range(10))


def test_vaccination_flags_infected_without_moving_them():
    pop = fresh_population(3)
    infect(pop, 0)
    pop.willingness[:] = 1.0
    vaccinate(pop, 10, 4)
    assert pop.vaccinated[0]
    assert pop.comp[0] == Compartment.INFECTIOUS_SYMPTOMATIC
    assert pop.comp[1] == Compartment.SUSCEPTIBLE_VACCINATED


def test_vaccination_skips_isolated_and_already_vaccinated():
    pop = fresh_population(4)
    pop.willingness[:] = 1.0
    pop.comp[0] = Compartment.ISOLATED_SICK
    pop.vaccinated[1] = True
    pop.comp[1] = Compartment.SUSCEPTIBLE_VACCINATED
    moved = vaccinate(pop, 10, 5)
    assert sorted(moved) == [2, 3]


QUIET_DAY = 4


def quiet_population():
    """Agents in each compartment but I_a, none of whom has anything due on
    ``QUIET_DAY``: no result, release, status change, loss of immunity or
    first symptomatic day."""
    pop = fresh_population(8)
    pop.vaccinated[1] = True
    pop.comp[1] = Compartment.SUSCEPTIBLE_VACCINATED
    # exposed the day before: first load day 6, infectious from day 7
    infect(pop, 2, day=3, compartment=Compartment.EXPOSED, will_isolate=True)
    # scheduled: infectious from day 2, recovered on day 12
    infect(pop, 3, compartment=Compartment.INFECTIOUS_SYMPTOMATIC)
    pop.infectious_day[3], pop.recovery_day[3] = 2, 12
    pop.comp[4] = Compartment.ISOLATED_HEALTHY
    pop.release_day[4] = 9
    infect(pop, 5, compartment=Compartment.RECOVERED)
    pop.infectious_day[5], pop.recovery_day[5] = 1, 2
    # isolated sick on day 1: no onset to come, and it recovers on its
    # release, day 11
    infect(pop, 6, compartment=Compartment.ISOLATED_SICK)
    pop.infectious_day[6] = np.nan
    pop.recovery_day[6] = pop.release_day[6] = 11
    pop.tally = pop.counts().tolist()
    return pop


# each stage that returns right after finding nothing due
QUIET_STAGES = {
    "apply_positive_results": lambda pop, cfg, rng: counted(
        apply_positive_results, pop, np.empty(0, dtype=np.int64), QUIET_DAY, cfg),
    "isolation_exit_step": lambda pop, cfg, rng: counted(isolation_exit_step, pop, QUIET_DAY),
    "advance_infections": lambda pop, cfg, rng: counted(_advance_infections, pop, QUIET_DAY),
    "recovered_to_susceptible_step": lambda pop, cfg, rng: counted(
        recovered_to_susceptible_step, pop, QUIET_DAY, cfg),
    "self_isolation_step": lambda pop, cfg, rng: counted(self_isolation_step, pop, QUIET_DAY, cfg),
    # five agents are eligible, but there are no doses
    "vaccination_step": lambda pop, cfg, rng: counted(
        vaccination_step, pop, QUIET_DAY, cfg, rng, np.count_nonzero(pop.vaccinated)),
}


@pytest.mark.parametrize("stage", QUIET_STAGES)
def test_a_stage_with_nothing_due_changes_and_draws_nothing(stage):
    pop = quiet_population()
    cfg = vaccination_config(0)
    rng = np.random.default_rng(9)
    arrays = {name: np.asarray(value).tobytes() for name, value in vars(pop).items()}
    rng_state = rng.bit_generator.state
    ids = QUIET_STAGES[stage](pop, cfg, rng)
    if stage != "advance_infections":
        assert ids.dtype == np.int64 and ids.size == 0
    assert {name: np.asarray(value).tobytes() for name, value in vars(pop).items()} == arrays
    assert rng.bit_generator.state == rng_state
