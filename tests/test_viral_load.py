"""Trajectory sampling, load interpolation, and status classification."""

import math

import numpy as np
import pytest

from episim.core import Constant, default_config, make_rng
from episim.viral_load import (
    InfectionStage,
    ViralLoadProfile,
    load_array,
    load_at,
    profile_params,
    sample_profile,
    status_at,
)

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
        for tau in [*points, prof.t0 - 1.0, prof.end_time + 0.5,
                    *rng.uniform(prof.t0, prof.end_time, 5), *range(0, 20)]:
            cases.append((prof, tau, tau in points))
    got = load_array(np.array([profile_params(p) for p, _, _ in cases]),
                     np.array([tau for _, tau, _ in cases]))
    want = np.array([load_at(p, tau) for p, tau, _ in cases])
    control = np.array([c for _, _, c in cases])
    assert np.array_equal(got[control], want[control])
    assert np.array_equal(got == 0.0, want == 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_load_array_of_no_profiles_is_empty():
    assert load_array(np.empty((0, 7)), np.empty(0)).shape == (0,)
