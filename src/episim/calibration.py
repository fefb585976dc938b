"""Transmission-rate calibration, and its check from a run's final size.

R0 here is the disease's own basic reproduction number: the agents one
infectious agent exposes in a wholly susceptible population with no testing,
isolation or vaccination. Internal propagation exposes with the daily
probability beta*I/P, so R0 = beta * tau, where tau is the mean number of
end-of-day counts an episode adds to I (:func:`infectious_days`).
:func:`final_size_r0` estimates R0 back from a run without using tau.
"""

from __future__ import annotations

import math

import numpy as np

from .core import N_COMPARTMENTS, TRANSITION_DAYS, ConfigError, ScenarioConfig, make_rng
from .transmission import EpisodeSource

# Episodes sampled for tau; at the defaults its standard error is 0.09%.
EPISODES = 2**16


def infectious_days(config: ScenarioConfig) -> float:
    """tau: the mean number of end-of-day counts an episode of ``config`` adds
    to I, on the engine's own episodes. The first ``EPISODES`` episodes of the
    ``episodes`` stream of run 0 of ``baseSeed`` are taken with their
    schedules as internal exposures, first seen by the status update one day
    after exposure (``first_tau`` 1), with no population; tau is the mean of
    recovery day minus infectious day, 0 for an episode that is never
    infectious."""
    episodes = EpisodeSource(config, make_rng(config.baseSeed).episodes)
    infectious, recovery = episodes.take(EPISODES, first_tau=1)[1][TRANSITION_DAYS]
    return float(np.nansum(recovery - infectious)) / EPISODES


def estimate_beta(target_r0: float, tau: float) -> float:
    """Daily contact rate that yields ``target_r0`` for an infectious time of
    ``tau`` days (:func:`infectious_days`): beta = R0 / tau."""
    if not (math.isfinite(target_r0) and target_r0 > 0):
        raise ConfigError(f"target R0 must be a positive finite number, got {target_r0!r}")
    if tau == 0:
        raise ConfigError("no episode of this config is ever infectious")
    beta = target_r0 / tau
    if not math.isfinite(beta):
        raise ConfigError(f"target R0 {target_r0:g} over {tau:g} infectious days "
                          "gives a beta that is not finite")
    return beta


def final_size_r0(records: np.ndarray) -> float:
    """R0 from the first and last of a run's ``records`` (an array of
    :data:`~episim.engine.RECORD_DTYPE`), without tau: mass action gives
    ln(S0/S_end) = R0 * (1 - S_end/N) for any infectious-period distribution
    (Ma & Earn, Bull Math Biol 68:679, 2006), where N counts the agents, S0
    the susceptible before day 0 (all but the seeds) and S_end the susceptible
    at the end. It holds once the outbreak is over, in a run with no
    importation, loss of immunity, vaccination or isolation; while agents are
    still in E or I it reads low. NaN where undefined: with no susceptible at
    the start or at the end, or no seed.
    """
    first, last = records[0], records[-1]
    n = sum(last.tolist()[1:1 + N_COMPARTMENTS])  # the counts s_u ... iso_sick
    s0 = n - int(first["cum_infections"] - first["new_ext"] - first["new_int"])
    s_end = int(last["s_u"] + last["s_v"])
    if not 0 < s_end < n:
        return math.nan
    return math.log(s0 / s_end) / (1 - s_end / n)
