"""Within-host viral-load trajectories.

Each infected agent gets a piecewise trajectory through sampled control
points: rise from (t0, V0) to (t0+tP, VP), then decline to the final point
(t0+tP+tF, VF), stretched by tS for symptomatic cases whose symptoms start
tS days after the peak. Interpolation is linear in log10(load); outside the
trajectory the load is 0 (undetectable). This is the control-point family of
Larremore et al., Sci Adv 7:eabd5393 (2021).

The simulation evaluates whole populations at once. Every function here
takes and returns trajectories field-major: one row per field of
``DISTRIBUTION_FIELDS`` (t0, V0, tP, VP, tS, tF, VF) and one column per
episode. :func:`sample_params` draws them and :func:`load_array` evaluates
them.

Time here is days since exposure. The engine steps in whole days, so the
days on which an episode's status changes are fixed when it is sampled, as
offsets from exposure that the caller adds the exposure day to when it
stores them: the first symptomatic day and the load window
(:func:`start_days`), and the days the status update moves it to I and to R
(:func:`transition_days`), which also depend on the day of its first update.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DISTRIBUTION_FIELDS, LOAD_FIELDS, ScenarioConfig

LOAD_ROWS = np.array([DISTRIBUTION_FIELDS.index(name) for name in LOAD_FIELDS])  # V0, VP, VF
TS_ROW = DISTRIBUTION_FIELDS.index("tS")
# the largest float32, which no day of a run reaches; day rows are float32
FLOAT32_MAX = float(np.finfo(np.float32).max)


def sample_params(
    config: ScenarioConfig, symptomatic: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw one trajectory per entry of the boolean ``symptomatic`` vector,
    field-major: one row per field of ``DISTRIBUTION_FIELDS`` and one column
    per episode. Each row is one draw, in that order. An asymptomatic
    episode's tS is drawn, then set to 0."""
    n = len(symptomatic)
    params = np.empty((len(DISTRIBUTION_FIELDS), n))
    for row, name in zip(params, DISTRIBUTION_FIELDS):
        row[:] = getattr(config, name).sample_array(rng, n)
    params[TS_ROW, ~symptomatic] = 0.0
    return params


def load_array(params: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The viral load (cp/ml) of episode ``i`` at ``tau[..., i]`` days since
    exposure, where ``params`` is field-major: one row per field of
    ``DISTRIBUTION_FIELDS`` and one column per episode. ``tau`` may hold
    several rows of times.

    Exactly V0/VP/VF at the control points, 0 before t0 and after the end of
    the trajectory, and log-linear in between. Every entry takes the
    same pass: one ``log10`` per load row and one power. Entries outside a
    segment get a zero-guarded span and a ``frac`` clipped into [0, 1], so
    they stay finite until they are overwritten.
    """
    t0, v0, _, vp, _, _, vf = params
    tau = np.asarray(tau, dtype=float)
    peak, _, end = key_times(params)
    log_v0, log_vp, log_vf = np.log10(v0), np.log10(vp), np.log10(vf)
    # in place where it can be, and each temporary let go once used: a
    # refill's schedule evaluates thousands of episodes at seven times
    rising = tau < peak
    start = np.where(rising, t0, peak)
    span = np.where(rising, peak, end)
    span -= start
    frac = tau - start
    del start
    frac /= np.where(span > 0.0, span, 1.0)
    del span
    frac.clip(0.0, 1.0, out=frac)
    log_start = np.where(rising, log_v0, log_vp)
    load = np.where(rising, log_vp, log_vf)
    del rising
    load -= log_start
    load *= frac
    del frac
    load += log_start
    del log_start
    np.power(10.0, load, out=load)
    load[(tau < t0) | (tau > end)] = 0.0
    # control points, lowest precedence first so that t0 wins ties
    for point, value in ((end, vf), (peak, vp), (t0, v0)):
        np.copyto(load, value, where=tau == point)
    return load


def key_times(params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peak, symptom-onset and end time of each episode of the field-major
    ``params``; tS is 0 for an asymptomatic episode."""
    t0, _, tp, _, ts, tf, _ = params
    peak = t0 + tp
    onset = peak + ts
    return peak, onset, onset + tf


def start_days(params: np.ndarray, symptomatic: np.ndarray) -> np.ndarray:
    """The start days of the episodes of the field-major ``params`` (one row
    per field of ``DISTRIBUTION_FIELDS`` and one column per episode), as
    offsets from exposure: a ``(3, k)`` array in the order of the
    ``core.START_DAYS`` rows: the first symptomatic day (``onset <=
    tau``, NaN if asymptomatic) and the first and last load day (``tau >= t0``
    and ``tau <= end``), clipped like :func:`transition_days`."""
    _, onset, end = key_times(params)
    days = np.array([np.where(symptomatic, np.ceil(onset), np.nan),
                     np.ceil(params[0]), np.floor(end)])
    return np.minimum(days, FLOAT32_MAX, out=days)


def transition_days(params: np.ndarray, cut: float, first_tau: float | np.ndarray) -> np.ndarray:
    """The transition days of the episodes of the field-major ``params`` (one
    row per field of ``DISTRIBUTION_FIELDS`` and one column per episode), as
    offsets from exposure: a ``(2, k)`` array in the order of the
    ``core.TRANSITION_DAYS`` rows: the days on which a status update
    run every day from ``first_tau`` (days since exposure) moves the episode,
    to I on a load strictly above ``cut`` (NaN if it recovers first) and to R
    past the end, or past the peak on a load strictly below ``cut``. Each is
    clipped to the largest float32, so recovery is never NaN and exposure
    day + offset is finite when stored."""
    t0 = params[0]
    peak, _, end = key_times(params)
    times = np.array([t0, peak, end])
    # The log load is linear on [t0, peak) and [peak, end], so a status first
    # changes on the first whole day from t0, past the peak or past the end,
    # or on the whole day nearest a crossing of the cut or the day after.
    # load_array decides each of these candidates, as the daily rule would.
    rel = np.log10(params[LOAD_ROWS]) - math.log10(cut)  # log10(load / cut)
    change, span = rel[1:] - rel[:2], times[1:] - times[:2]
    # a flat or empty segment divides by infinity: its crossing is its start
    frac = -rel[:2] / np.where(change != 0.0, change, np.inf)
    near = np.rint(times[:2] + span * frac.clip(0.0, 1.0))
    first = np.maximum(np.ceil(t0), first_tau)
    taus = np.concatenate([first[np.newaxis], np.floor(times[1:]) + 1.0, near, near + 1.0])
    np.maximum(taus, first, out=taus)
    load = load_array(params, taus)
    infectious = np.where(load > cut, taus, np.inf).min(axis=0)
    recovery = np.where((taus > peak) & (load < cut), taus, np.inf).min(axis=0)
    infectious[infectious >= recovery] = np.nan
    days = np.array([infectious, recovery])
    return np.minimum(days, FLOAT32_MAX, out=days)
