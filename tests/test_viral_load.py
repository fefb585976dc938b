"""Trajectory sampling, load interpolation, and status classification."""

import math

import numpy as np
import pytest

from episim.core import Compartment, Constant, Population, default_config, make_rng
from episim.engine import RunState, _advance_infections
from episim.interventions import self_isolation_step
from episim.testing import current_loads
from episim.transmission import start_episodes
from episim.viral_load import key_days, load_array

from reference import (
    InfectionStage,
    ViralLoadProfile,
    load_at,
    profile_params,
    sample_profile,
    status_at,
    symptomatic_now,
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
    cfg = default_config()
    rng = make_rng(5)
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
    cfg = default_config()
    rng = make_rng(17)
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
    cfg = default_config()
    rng = make_rng(23)
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
    rng = make_rng(29)
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
    rng = make_rng(31)
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
    ]
    for symptomatic in (False, True):
        for edge in edges:
            fields = dict(t0=2.0, V0=1e2, tP=2.0, VP=1e5, tS=1.0 if symptomatic else 0.0,
                          tF=3.0, VF=1e2, symptomatic=symptomatic)
            profiles.append(ViralLoadProfile(**{**fields, **edge}))
    return profiles


def test_key_days_restate_the_key_time_comparisons():
    # on every whole day, each key day answers its comparison exactly
    profiles = stage_profiles()
    params = np.array([profile_params(p) for p in profiles])
    exposure = np.arange(len(profiles)) % 7
    first_load, past_peak, last_load, onset = key_days(
        params, exposure, np.array([p.symptomatic for p in profiles])
    )
    for i, prof in enumerate(profiles):
        for tau in range(-1, 30):
            day = exposure[i] + tau
            assert (first_load[i] <= day) == (tau >= prof.t0), (i, tau)
            assert (past_peak[i] <= day) == (tau > prof.peak_time), (i, tau)
            assert (day <= last_load[i]) == (tau <= prof.end_time), (i, tau)
            showing_from = prof.symptomatic and prof.symptom_onset_time <= tau
            assert (onset[i] <= day) == showing_from, (i, tau)


def test_daily_stages_match_scalar_reference():
    # The status update, the self-isolation symptom window and the testing
    # loads, day by day, against status_at, symptomatic_now and load_at.
    # Each episode starts through start_episodes on day i % 7: even ones
    # before the day's status update (an external exposure, first seen at
    # tau 0), odd ones at the end of the day (an internal exposure, first
    # seen at tau 1).
    cut = 1e3
    profiles = stage_profiles()
    n = len(profiles)
    exposure = np.arange(n) % 7
    external = np.arange(n) % 2 == 0
    params = np.array([profile_params(p) for p in profiles])
    symptomatic = np.array([p.symptomatic for p in profiles])
    config = default_config(infectiousViralLoadCut=cut)
    state = RunState(config, Population(n))  # the status update
    windows = Population(n)  # the symptom window, every symptomatic agent willing
    comp = np.full(n, int(C.SUSCEPTIBLE_UNVACCINATED))  # the scalar reference
    transitions = set()

    def start(ids, day):
        for pop in (state.population, windows):
            start_episodes(pop, ids, day, params[ids], symptomatic[ids], np.ones(len(ids), bool))
        comp[ids] = C.EXPOSED

    for day in range(30):
        start((external & (exposure == day)).nonzero()[0], day)
        started = np.isfinite(state.population.exposure_day)
        tau = day - exposure

        before = comp.copy()
        for i in np.flatnonzero((comp >= C.EXPOSED) & (comp <= C.INFECTIOUS_ASYMPTOMATIC)):
            stage, _ = status_at(profiles[i], tau[i], cut)
            if stage is InfectionStage.INFECTIOUS and comp[i] == C.EXPOSED:
                comp[i] = C.INFECTIOUS_SYMPTOMATIC if symptomatic[i] else C.INFECTIOUS_ASYMPTOMATIC
            elif stage is InfectionStage.RECOVERED:
                comp[i] = C.RECOVERED
        _advance_infections(state, day)
        assert state.population.comp.tolist() == comp.tolist(), day
        transitions |= set(zip(before[before != comp].tolist(), comp[before != comp].tolist()))

        showing = [i for i in np.flatnonzero(started) if symptomatic_now(profiles[i], tau[i])]
        moved = self_isolation_step(windows, day, config)
        assert moved.tolist() == showing, day
        # undo the isolation, so that every day of the window is checked
        windows.comp[moved] = C.EXPOSED
        windows.selfiso_candidate[moved] = True
        still_candidate = [bool(started[i] and symptomatic[i]
                                and tau[i] <= profiles[i].end_time) for i in range(n)]
        assert (windows.selfiso_candidate & started).tolist() == still_candidate, day

        ids = np.arange(n)
        got = current_loads(state.population, ids, day)
        want = np.array([load_at(profiles[i], tau[i]) if started[i] else 0.0 for i in ids])
        assert np.array_equal(got == 0.0, want == 0.0), day
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

        start((~external & (exposure == day)).nonzero()[0], day)

    # every transition occurs, and every episode has ended
    E, I_S, I_A, R = (int(c) for c in (C.EXPOSED, C.INFECTIOUS_SYMPTOMATIC,
                                       C.INFECTIOUS_ASYMPTOMATIC, C.RECOVERED))
    assert transitions == {(E, I_S), (E, I_A), (E, R), (I_S, R), (I_A, R)}
    assert (comp == C.RECOVERED).all()
