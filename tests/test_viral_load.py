"""Trajectory sampling, load interpolation, and status classification."""

import numpy as np
import pytest

from episim.core import (TRANSITION_DAYS, Compartment, Constant, Population, ScenarioConfig,
                         make_rng)
from episim.engine import _advance_infections, initialize, step
from episim.interventions import self_isolation_step
from episim.testing import current_loads
from episim.transmission import start_episodes
from episim.viral_load import load_array, start_days, transition_days

from reference import (
    InfectionStage,
    ViralLoadProfile,
    load_at,
    profile_params,
    sample_profile,
    status_at,
    symptomatic_now,
    transition_taus,
)

C = Compartment

# all-constant trajectory used by the worked examples
FLAT = ViralLoadProfile(
    t0=3.0, V0=1e3, tP=2.0, VP=1e5, tS=0.0, tF=6.5, VF=1e3, symptomatic=False
)


def test_constant_profile_end_time():
    assert FLAT.end_time == 11.5
    assert FLAT.peak_time == 5.0


def test_symptomatic_profile_adds_symptom_delay():
    prof = ViralLoadProfile(
        t0=3.0, V0=1e3, tP=2.0, VP=1e5, tS=1.5, tF=6.5, VF=1e3, symptomatic=True
    )
    assert prof.end_time == 13.0
    assert prof.symptom_onset_time == 6.5
    assert FLAT.symptom_onset_time is None


def test_sampled_profiles_stay_in_configured_ranges():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(5)
    for symptomatic in (False, True):
        for _ in range(200):
            prof = sample_profile(cfg, symptomatic, rng)
            assert 2.5 <= prof.t0 <= 3.5
            assert 1e4 <= prof.VP <= 1e7
            assert prof.tP >= 0.5
            assert 4.0 <= prof.tF <= 9.0
            assert prof.V0 == 1e3 and prof.VF == 1e3
            if symptomatic:
                assert 0.0 <= prof.tS <= 3.0
            else:
                assert prof.tS == 0.0
            expected_end = prof.t0 + prof.tP + prof.tS + prof.tF
            assert prof.end_time == pytest.approx(expected_end)


def test_load_zero_outside_trajectory():
    assert load_at(FLAT, 1.0) == 0.0
    assert load_at(FLAT, 12.0) == 0.0


def test_load_exact_at_control_points():
    assert load_at(FLAT, 3.0) == 1e3
    assert load_at(FLAT, 5.0) == 1e5
    assert load_at(FLAT, 11.5) == 1e3


def test_load_log_linear_on_the_rise():
    # midpoint of the rise: log10 goes 3 -> 5, so tau=4 gives 10^4
    assert load_at(FLAT, 4.0) == pytest.approx(1e4, rel=1e-12)


def test_status_examples():
    assert status_at(FLAT, 4.0, 1e3)[0] is InfectionStage.INFECTIOUS
    assert status_at(FLAT, 12.0, 1e3)[0] is InfectionStage.RECOVERED
    assert status_at(FLAT, 2.0, 1e3)[0] is InfectionStage.LATENT


def test_status_recovered_after_load_drops_below_cut():
    # high cut: infectious only near the peak, recovered soon after it
    stage, _ = status_at(FLAT, 9.0, 1e4)
    assert stage is InfectionStage.RECOVERED


def test_symptom_window():
    prof = ViralLoadProfile(
        t0=3.0, V0=1e3, tP=2.0, VP=1e5, tS=1.0, tF=6.5, VF=1e3, symptomatic=True
    )
    assert status_at(prof, 5.5, 1e3) == (InfectionStage.INFECTIOUS, False)
    assert status_at(prof, 6.0, 1e3) == (InfectionStage.INFECTIOUS, True)
    assert status_at(prof, prof.end_time + 0.5, 1e3) == (
        InfectionStage.RECOVERED,
        False,
    )


def test_sampled_trajectories_are_unimodal():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(17)
    for _ in range(300):
        prof = sample_profile(cfg, bool(rng.random() < 0.5), rng)
        rise_taus = np.append(np.linspace(prof.t0, prof.peak_time, 30), prof.peak_time)
        fall_taus = np.append(prof.peak_time, np.linspace(prof.peak_time, prof.end_time, 30))
        rise = np.log10([load_at(prof, t) for t in rise_taus])
        fall = np.log10([load_at(prof, t) for t in fall_taus])
        assert np.all(np.diff(rise) >= -1e-9)
        assert np.all(np.diff(fall) <= 1e-9)


def test_symptomatic_flag_alone_does_not_change_loads():
    asym = FLAT
    sym = ViralLoadProfile(
        t0=3.0, V0=1e3, tP=2.0, VP=1e5, tS=0.0, tF=6.5, VF=1e3, symptomatic=True
    )
    for tau in np.linspace(0.0, 13.0, 131):
        assert load_at(asym, tau) == load_at(sym, tau)


def test_infectious_days_match_open_closed_window():
    # with V0 = VF = cut, daily ticks are infectious exactly on the integer
    # days strictly inside (t0, end_time]
    cfg = ScenarioConfig()
    rng = np.random.default_rng(23)
    cut = 1e3
    for _ in range(200):
        prof = sample_profile(cfg, bool(rng.random() < 0.5), rng)
        infectious_days = sum(
            status_at(prof, tau, cut)[0] is InfectionStage.INFECTIOUS
            for tau in range(0, int(prof.end_time) + 3)
        )
        expected = sum(
            1 for k in range(0, int(prof.end_time) + 3) if prof.t0 < k <= prof.end_time
        )
        assert infectious_days == expected

    assert (
        sum(status_at(FLAT, tau, cut)[0] is InfectionStage.INFECTIOUS for tau in range(15))
        == 8  # integer days in (3, 11.5]
    )


def test_load_array_matches_load_at():
    rng = np.random.default_rng(29)
    profiles = [
        ViralLoadProfile(
            t0=float(rng.uniform(0, 4)), V0=10 ** float(rng.uniform(-2, 4)),
            tP=float(rng.choice([0.0, rng.uniform(0, 4)])), VP=10 ** float(rng.uniform(2, 9)),
            tS=float(rng.uniform(0, 3)), tF=float(rng.choice([0.0, rng.uniform(0, 10)])),
            VF=10 ** float(rng.uniform(-2, 4)), symptomatic=bool(rng.random() < 0.5),
        )
        for _ in range(300)
    ]
    cases = []  # (profile, tau, tau is a control point)
    for prof in profiles:
        points = [prof.t0, prof.peak_time, prof.end_time]
        # far outside the trajectory a segment's slope must not overflow
        for tau in [*points, prof.t0 - 1.0, prof.end_time + 0.5, -1e6, 1e6,
                    *rng.uniform(prof.t0, prof.end_time, 5), *range(0, 20)]:
            cases.append((prof, tau, tau in points))
    got = load_array(np.array([profile_params(p) for p, _, _ in cases]).T,
                     np.array([tau for _, tau, _ in cases]))
    want = np.array([load_at(p, tau) for p, tau, _ in cases])
    control = np.array([c for _, _, c in cases])
    assert np.array_equal(got[control], want[control])
    assert np.array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_load_array_of_no_profiles_is_empty():
    assert load_array(np.empty((7, 0)), np.empty(0)).shape == (0,)


def stage_profiles():
    """The 300 random valid profiles of the status checks, then edge cases
    with integer key times, so that key times fall on whole days."""
    rng = np.random.default_rng(31)
    profiles = [
        ViralLoadProfile(
            t0=float(rng.uniform(0, 4)), V0=10 ** float(rng.uniform(0, 4)),
            tP=float(rng.choice([0.0, rng.uniform(0, 4)])), VP=10 ** float(rng.uniform(2, 8)),
            tS=float(rng.uniform(0, 3)) if symptomatic else 0.0,
            tF=float(rng.choice([0.0, rng.uniform(0, 10)])), VF=10 ** float(rng.uniform(0, 4)),
            symptomatic=symptomatic,
        )
        for symptomatic in rng.random(300) < 0.5
    ]
    cut = 1e3
    edges = [
        dict(tP=0.0),  # peak on t0
        dict(tF=0.0),  # end on the peak or on symptom onset
        dict(VF=cut),  # never below the cut on the way down
        dict(VF=1e6),  # VF > VP: the load rises again after the peak
        dict(V0=1e4),  # above the cut from the first load day
        dict(VP=cut),  # never above the cut: straight from E to R
        dict(t0=0.0),  # a load on the exposure day itself
        dict(t0=0.0, tP=0.0, tF=0.0),  # t0 and peak on the exposure day, no decline
        dict(t0=0.0, V0=1e4),  # above the cut from the exposure day on
    ]
    for symptomatic in (False, True):
        for edge in edges:
            fields = dict(t0=2.0, V0=1e2, tP=2.0, VP=1e5, tS=1.0 if symptomatic else 0.0,
                          tF=3.0, VF=1e2, symptomatic=symptomatic)
            profiles.append(ViralLoadProfile(**{**fields, **edge}))
    return profiles


def test_start_days_restate_the_key_time_comparisons():
    # on every whole day, each start day answers its comparison exactly
    profiles = stage_profiles()
    params = np.array([profile_params(p) for p in profiles]).T
    onset, first_load, last_load = start_days(
        params, np.array([p.symptomatic for p in profiles]))
    for i, prof in enumerate(profiles):
        for tau in range(-1, 30):
            assert (first_load[i] <= tau) == (tau >= prof.t0), (i, tau)
            assert (tau <= last_load[i]) == (tau <= prof.end_time), (i, tau)
            showing_from = prof.symptomatic and prof.symptom_onset_time <= tau
            assert (onset[i] <= tau) == showing_from, (i, tau)


def test_loads_and_self_isolation_need_no_status_update():
    # an episode's load window and onset day are set when it starts, so a
    # testing day's loads and self-isolation read them before any status
    # update has scheduled its transition days; the isolation then ends the
    # schedule, with no onset and recovery on the release
    profile = ViralLoadProfile(t0=3.0, V0=1e3, tP=2.0, VP=1e5, tS=1.5, tF=6.5, VF=1e3,
                               symptomatic=True)
    params = np.array([profile_params(profile)]).T
    symptomatic = np.array([True])
    pop = Population(2)
    start_episodes(pop, np.array([1]), 2, 2, params, start_days(params, symptomatic),
                   symptomatic)
    pop.comp[1] = Compartment.INFECTIOUS_SYMPTOMATIC
    # day 6 is tau 4, between t0 and the peak
    loads = current_loads(pop, np.array([0, 1]), 6)
    assert loads[0] == 0.0 and loads[1] > 0.0
    np.testing.assert_allclose(loads[1], load_at(profile, 4.0), rtol=1e-12)
    # symptoms from tau 6.5: the willing agent isolates on day 9
    config = ScenarioConfig()
    assert self_isolation_step(pop, 8, config).tolist() == []
    assert self_isolation_step(pop, 9, config).tolist() == [1]
    assert pop.comp[1] == Compartment.ISOLATED_SICK
    assert np.isnan(pop.days[TRANSITION_DAYS, 0]).all()
    assert np.isnan(pop.infectious_day[1]) and pop.recovery_day[1] == pop.release_day[1] == 19


def schedule_profiles(cut):
    """The stage profiles, then profiles with whole-day control times and
    loads that are powers of ten, whose loads often fall exactly on the cut
    on a whole day, then hand-picked edges."""
    rng = np.random.default_rng(37)
    decades = 10.0 ** np.arange(1, 7)
    whole = [
        ViralLoadProfile(
            t0=float(rng.integers(0, 4)), V0=float(rng.choice(decades)),
            tP=float(rng.integers(0, 4)), VP=float(rng.choice(decades)),
            tS=float(rng.integers(0, 3)) if symptomatic else 0.0,
            tF=float(rng.integers(0, 5)), VF=float(rng.choice(decades)),
            symptomatic=symptomatic,
        )
        for symptomatic in rng.random(300) < 0.5
    ]
    edges = [
        # on the cut at tau 3 on the way up and at tau 5 on the way down:
        # infectious from tau 4, recovered at tau 6
        ViralLoadProfile(t0=2.0, V0=1e2, tP=2.0, VP=1e4, tS=0.0, tF=2.0, VF=1e2,
                         symptomatic=False),
        # above the cut on the exposure day, then a peak below it: infectious
        # on days 0-2 from tau 0; from tau 1 it stays E and recovers at tau 3
        ViralLoadProfile(t0=0.0, V0=1e4, tP=2.0, VP=1.0, tS=0.0, tF=3.0, VF=1e2,
                         symptomatic=False),
        # peak on the cut, and the default V0, equal to the default cut
        ViralLoadProfile(t0=1.5, V0=cut, tP=2.0, VP=cut, tS=1.0, tF=4.0, VF=1e5,
                         symptomatic=True),
        # everything on the exposure day
        ViralLoadProfile(t0=0.0, V0=1e5, tP=0.0, VP=1e5, tS=0.0, tF=0.0, VF=1e5,
                         symptomatic=False),
    ]
    return stage_profiles() + whole + edges


def test_scheduled_days_equal_the_daily_status_update():
    # the transition days, infectious and recovery, are the days since
    # exposure on which status_at, stepped day by day from first_tau, moves
    # the episode. The first update is at tau 0 (a seed or an external
    # exposure) or tau 1 (an internal exposure), but the status update
    # schedules every waiting episode once one reaches its first load day, so
    # it passes any first_tau from the first update to ceil(t0): the days
    # must not depend on which
    cut = 1e3
    profiles = schedule_profiles(cut)
    params = np.array([profile_params(p) for p in profiles]).T
    first_load = np.ceil(params[0])
    on_the_cut, peak_below_v0 = profiles[-4:-2]
    assert transition_taus(on_the_cut, cut, 0) == (4, 6)
    assert transition_taus(peak_below_v0, cut, 0) == (0, 3)
    assert transition_taus(peak_below_v0, cut, 1) == (None, 3)
    # the t0 = 0 profiles, whose first update may come after their first load
    assert (first_load == 0).any()
    at_first_update = {lag: transition_days(params, cut, lag) for lag in (0, 1)}
    moved = set()
    for first_tau in range(int(first_load.max()) + 1):
        infectious, recovery = days = transition_days(params, cut, first_tau)
        for i, prof in enumerate(profiles):
            onset, recovered = transition_taus(prof, cut, first_tau)
            if onset is None:
                assert np.isnan(infectious[i]), (i, first_tau)
            else:
                assert infectious[i] == onset, (i, first_tau)
            assert recovery[i] == recovered, (i, first_tau)
            moved.add(onset is None)
        for lag, want in at_first_update.items():
            same = (lag <= first_tau) & (first_tau <= first_load)
            assert np.array_equal(days[:, same], want[:, same], equal_nan=True), (lag, first_tau)
    # some episodes go straight from E to R, and some through I
    assert moved == {False, True}


def test_daily_stages_match_scalar_reference():
    # The status update, self-isolation and the testing loads, day by day,
    # against status_at, symptomatic_now and load_at. Each episode starts
    # through start_episodes on day i % 7: even ones before the day's status
    # update (an external exposure, first seen at tau 0), odd ones at the end
    # of the day (an internal exposure, first seen at tau 1). Self-isolation
    # moves each willing episode on one day: the first day from its first
    # update on with symptoms while the reference has it in E or I. Only the
    # status update schedules transition days; self-isolation and the loads
    # need none.
    cut = 1e3
    profiles = stage_profiles()
    n = len(profiles)
    exposure = np.arange(n) % 7
    external = np.arange(n) % 2 == 0
    params = np.array([profile_params(p) for p in profiles]).T
    symptomatic = np.array([p.symptomatic for p in profiles])
    offsets = start_days(params, symptomatic)
    config = ScenarioConfig(infectiousViralLoadCut=cut)
    status = Population(n)  # the status update
    selfiso = Population(n)  # self-isolation, every symptomatic agent willing
    comp = np.full(n, int(C.SUSCEPTIBLE_UNVACCINATED))  # the scalar reference
    isolated = np.zeros(n, dtype=bool)
    recovered_showing = 0  # agent-days in R with symptoms, never isolated
    transitions = set()

    def start(ids, day, first_update):
        for pop in (status, selfiso):
            start_episodes(pop, ids, day, first_update, params[:, ids], offsets[:, ids],
                           symptomatic[ids])
        comp[ids] = C.EXPOSED

    for day in range(30):
        start((external & (exposure == day)).nonzero()[0], day, day)
        started = np.isfinite(status.exposure_day)
        tau = day - exposure

        before = comp.copy()
        for i in np.flatnonzero((comp >= C.EXPOSED) & (comp <= C.INFECTIOUS_ASYMPTOMATIC)):
            stage, _ = status_at(profiles[i], tau[i], cut)
            if stage is InfectionStage.INFECTIOUS and comp[i] == C.EXPOSED:
                comp[i] = C.INFECTIOUS_SYMPTOMATIC if symptomatic[i] else C.INFECTIOUS_ASYMPTOMATIC
            elif stage is InfectionStage.RECOVERED:
                comp[i] = C.RECOVERED
        _advance_infections(status, day, cut)
        assert status.comp.tolist() == comp.tolist(), day
        transitions |= set(zip(before[before != comp].tolist(), comp[before != comp].tolist()))

        # the stage sees the reference's compartments, so an agent that has
        # self-isolated is back in E or I, and must not move again
        selfiso.comp[:] = comp
        showing = [i for i in np.flatnonzero(started & ~isolated)
                   if symptomatic_now(profiles[i], tau[i])]
        active = [i for i in showing if C.EXPOSED <= comp[i] <= C.INFECTIOUS_ASYMPTOMATIC]
        recovered_showing += len(showing) - len(active)
        moved = self_isolation_step(selfiso, day, config)
        assert moved.tolist() == active, day
        isolated[moved] = True

        ids = np.arange(n)
        got = current_loads(status, ids, day)
        want = np.array([load_at(profiles[i], tau[i]) if started[i] else 0.0 for i in ids])
        assert np.array_equal(got == 0.0, want == 0.0), day
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

        start((~external & (exposure == day)).nonzero()[0], day, day + 1)

    # every transition occurs, and every episode has ended
    E, I_S, I_A, R = (int(c) for c in (C.EXPOSED, C.INFECTIOUS_SYMPTOMATIC,
                                       C.INFECTIOUS_ASYMPTOMATIC, C.RECOVERED))
    assert transitions == {(E, I_S), (E, I_A), (E, R), (I_S, R), (I_A, R)}
    assert (comp == C.RECOVERED).all()
    # some episodes self-isolate, and some show symptoms only in R
    assert isolated.any() and recovered_showing > 0


@pytest.mark.parametrize("field,dist", [
    ("t0", Constant(1e300)),
    ("tF", Constant(1e300)),
    ("tP", Constant(1e39)),
])
def test_trajectory_times_beyond_float32_range_run_without_overflow(field, dist):
    # the days are stored as float32; a day beyond its range is never
    # reached, so it is held at the largest float32 instead of overflowing
    cfg = ScenarioConfig(popSize=200, timeHorizon=20, initialInfected=10, **{field: dist})
    state = initialize(cfg, make_rng(cfg.baseSeed, 0))
    for day in range(cfg.timeHorizon):
        step(state, day)
    # every stored day, the start and the transition days included
    assert not np.isinf(state.population.days).any()
