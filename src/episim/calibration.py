"""Transmission-rate calibration: expected infectious duration, the effective
reproduction number estimated from run records, and the daily contact rate
needed to hit a target basic reproduction number."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, ScenarioConfig

# Defaults for the window where the reproduction-number estimate is trusted:
# the unvaccinated-susceptible share must still be near 1 and the infectious
# count large enough to keep the ratio estimator stable.
EARLY_WINDOW_SU_FRACTION = 0.9
EARLY_WINDOW_MIN_INFECTIOUS = 20


def expected_infectious_duration(config: ScenarioConfig) -> float:
    """Mean days an infection stays infectious, from the trajectory means.

    Sum of the mean onset delay, rise time and decline time, plus the
    symptomatic fraction's share of the symptom delay. Requires parameter
    distributions with closed-form means.
    """
    try:
        tau = (
            config.t0.mean()
            + config.tP.mean()
            + config.tF.mean()
            + config.fractionSymptomatic * config.tS.mean()
        )
    except ConfigError as exc:
        raise ConfigError(f"viral-load parameter distribution unsupported: {exc}") from exc
    return tau


def estimate_beta(target_r0: float, config: ScenarioConfig) -> float:
    """Daily contact rate that yields ``target_r0`` in a fully susceptible
    population: beta = R0 / expected infectious duration."""
    if not (math.isfinite(target_r0) and target_r0 > 0):
        raise ConfigError(f"target R0 must be a positive finite number, got {target_r0!r}")
    tau = expected_infectious_duration(config)
    if tau <= 0:
        raise ConfigError("expected infectious duration is not positive")
    return target_r0 / tau


@dataclass
class ReproductionSeries:
    """Per-day effective reproduction number estimated from one run.

    values[t] is NaN where undefined (day 0, or no infectious agents the day
    before). early_window flags days where the estimate approximates R0.
    """

    tau_i: float
    days: np.ndarray
    values: np.ndarray
    early_window: np.ndarray

    def early_mean(self) -> float:
        if not self.early_window.any():
            return float("nan")
        return float(np.nanmean(self.values[self.early_window]))


def effective_r_series(
    records: np.ndarray,
    tau_i: float,
    su_fraction_min: float = EARLY_WINDOW_SU_FRACTION,
    min_infectious: int = EARLY_WINDOW_MIN_INFECTIOUS,
) -> ReproductionSeries:
    """Estimate R_t = (new internal exposures / previous-day infectious) * tau_i
    from a run's records (an array of :data:`~episim.engine.RECORD_DTYPE`)."""
    n = len(records)
    values = np.full(n, np.nan)
    window = np.zeros(n, dtype=bool)
    prev = records[:-1]
    infectious = prev["i_s"] + prev["i_a"]
    in_population = prev["s_u"] + prev["s_v"] + prev["e"] + infectious + prev["r"]
    # R_t is defined on the day after each day with infectious agents
    before = np.flatnonzero(infectious > 0)
    values[before + 1] = records["new_int"][before + 1] / infectious[before] * tau_i
    window[before + 1] = (
        (prev["s_u"][before] / in_population[before] > su_fraction_min)
        & (infectious[before] >= min_infectious)
    )
    return ReproductionSeries(
        tau_i=tau_i, days=np.arange(n), values=values, early_window=window
    )
