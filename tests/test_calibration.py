"""Infectious-duration arithmetic, beta estimation, and the R_t estimator."""

import math

import numpy as np
import pytest

from episim.calibration import (
    effective_r_series,
    estimate_beta,
    expected_infectious_duration,
)
from episim.core import Constant, ConfigError, NormalClipped, ScenarioConfig
from episim.engine import RECORD_DTYPE, run


def make_record(day, i=0, new_int=0, s_u=9800, s_v=0, e=0, r=0):
    """One record; the fields not named here are 0."""
    record = np.zeros((), dtype=RECORD_DTYPE)
    for name, value in dict(day=day, s_u=s_u, s_v=s_v, e=e, i_s=i, r=r,
                            new_int=new_int).items():
        record[name] = value
    return record


def test_expected_duration_on_defaults():
    assert expected_infectious_duration(ScenarioConfig()) == 12.25


def test_expected_duration_without_symptomatics():
    assert expected_infectious_duration(ScenarioConfig(fractionSymptomatic=0.0)) == 11.5


def test_expected_duration_all_constants():
    cfg = ScenarioConfig(
        fractionSymptomatic=1.0,
        t0=Constant(1.0), tP=Constant(1.0), tS=Constant(1.0), tF=Constant(1.0),
    )
    assert expected_infectious_duration(cfg) == 4.0


def test_expected_duration_rejects_clipped_normal():
    cfg = ScenarioConfig(tP=NormalClipped(2.0, 0.5, 0.0, 5.0))
    with pytest.raises(ConfigError):
        expected_infectious_duration(cfg)


def test_estimate_beta_for_target_five():
    beta = estimate_beta(5.0, ScenarioConfig())
    assert beta == pytest.approx(5.0 / 12.25)
    assert 0.405 <= beta <= 0.412


def test_estimate_beta_cancellation():
    assert estimate_beta(12.25, ScenarioConfig()) == pytest.approx(1.0)


def test_estimate_beta_linear_in_target():
    cfg = ScenarioConfig()
    assert estimate_beta(2.5, cfg) == pytest.approx(0.5 * estimate_beta(5.0, cfg))
    assert estimate_beta(2.5, cfg) == pytest.approx(0.20408, rel=1e-4)


def test_estimate_beta_rejects_nonpositive_target():
    with pytest.raises(ConfigError):
        estimate_beta(0.0, ScenarioConfig())


def test_r_series_hand_value():
    records = np.stack([make_record(0, i=200), make_record(1, i=210, new_int=78)])
    series = effective_r_series(records, 12.25)
    assert series.values[1] == pytest.approx(4.7775)


def test_r_series_undefined_without_previous_infectious():
    records = np.stack([make_record(0, i=0), make_record(1, i=0, new_int=3)])
    series = effective_r_series(records, 12.25)
    assert math.isnan(series.values[0])
    assert math.isnan(series.values[1])
    assert not series.early_window.any()
    assert math.isnan(series.early_mean())


def test_r_series_window_requires_susceptible_share_and_floor():
    records = np.stack([
        make_record(0, i=100, s_u=9000, r=800),   # s_u/p > 0.9
        make_record(1, i=100, new_int=40, s_u=8000, r=1800),  # s_u/p < 0.9
        make_record(2, i=10, new_int=4, s_u=8000, r=1800),
        make_record(3, i=10, new_int=4, s_u=8000, r=1800),   # floor fails
    ])
    series = effective_r_series(records, 12.25)
    assert series.early_window[1]
    assert not series.early_window[2]
    assert not series.early_window[3]


def test_r_series_zero_after_seeds_recover_without_transmission():
    cfg = ScenarioConfig(
        popSize=300, initialInfected=10, timeHorizon=40,
        betaDaily=0.0, externalExposureProbDaily=0.0,
    )
    _, records = run(cfg, 0)
    series = effective_r_series(records, 12.25)
    defined = series.values[~np.isnan(series.values)]
    assert np.all(defined == 0.0)
    # trajectory over: infectious gone, estimator undefined from then on
    assert math.isnan(series.values[-1])
