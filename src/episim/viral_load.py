"""Within-host viral-load trajectories.

Each infected agent gets a piecewise trajectory through sampled control
points: rise from (t0, V0) to (t0+tP, VP), then decline to the final point
(t0+tP+tF, VF), stretched by tS for symptomatic cases whose symptoms start
tS days after the peak. Interpolation is linear in log10(load); outside the
trajectory the load is 0 (undetectable). This is the control-point family of
Larremore et al., Sci Adv 7:eabd5393 (2021).

The simulation evaluates whole populations at once: :func:`sample_params`
draws trajectories as rows of (t0, V0, tP, VP, tS, tF, VF), the order of
``DISTRIBUTION_FIELDS``, and :func:`load_array` evaluates them.

The engine steps in whole days, so for each episode the integer days on which
a comparison with a key time changes are fixed when the episode is sampled.
:func:`key_days` returns them, and the daily stages compare days with them
instead of evaluating loads:

* the first load day, exposure day + ceil(t0): the load is 0 before it
  (``tau >= t0``);
* the first day past the peak, exposure day + floor(peak) + 1
  (``tau > peak``); up to it an infectious agent stays infectious;
* the last load day, exposure day + floor(end): the load is 0 after it and
  the episode is over (``tau <= end``);
* the first symptomatic day, exposure day + ceil(onset), NaN for an
  asymptomatic episode (``onset <= tau``).

They are read by the status update (``engine._advance_infections``),
self-isolation (``interventions.self_isolation_step``) and the testing day
(``testing.current_loads``).
"""

from __future__ import annotations

import numpy as np

from .core import DISTRIBUTION_FIELDS, ScenarioConfig


def sample_params(
    config: ScenarioConfig, symptomatic: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw one trajectory per entry of the boolean ``symptomatic`` vector,
    one row each with a column per field of ``DISTRIBUTION_FIELDS``.

    One vector per parameter, in the fixed order t0, V0, tP, VP, then tS for
    the symptomatic entries only (asymptomatic ones get 0), then tF, VF.
    """
    n = len(symptomatic)
    params = np.zeros((n, len(DISTRIBUTION_FIELDS)))
    for col, name in enumerate(DISTRIBUTION_FIELDS):
        dist = getattr(config, name)
        if name == "tS":
            params[symptomatic, col] = dist.sample_array(rng, int(np.count_nonzero(symptomatic)))
        else:
            params[:, col] = dist.sample_array(rng, n)
    return params


def load_array(columns: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """The viral load (cp/ml) of profile ``i`` at ``tau[i]`` days since
    exposure, where ``columns`` holds one row per field of
    ``DISTRIBUTION_FIELDS`` and one column per profile (the transpose of
    :func:`sample_params` rows).

    Exactly V0/VP/VF at the control points, 0 before t0 and after the end of
    the trajectory, and log-linear in between. Every entry takes the
    same pass over contiguous columns: one ``log10`` per load column and one
    power. Entries outside a segment get a zero-guarded span and a ``frac``
    clipped into [0, 1], so they stay finite until they are overwritten.
    """
    columns = np.ascontiguousarray(columns, dtype=float)
    t0, v0, _, vp, _, _, vf = columns
    tau = np.asarray(tau, dtype=float)
    peak, _, end = key_times(columns)
    log_v0, log_vp, log_vf = np.log10(v0), np.log10(vp), np.log10(vf)
    rising = tau < peak
    start = np.where(rising, t0, peak)
    span = np.where(rising, peak, end) - start
    log_start = np.where(rising, log_v0, log_vp)
    frac = (tau - start) / np.where(span > 0.0, span, 1.0)
    np.clip(frac, 0.0, 1.0, out=frac)
    load = 10.0 ** (log_start + frac * (np.where(rising, log_vp, log_vf) - log_start))
    load[(tau < t0) | (tau > end)] = 0.0
    # control points, lowest precedence first so that t0 wins ties
    for point, value in ((end, vf), (peak, vp), (t0, v0)):
        np.copyto(load, value, where=tau == point)
    return load


def key_times(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peak, symptom-onset and end time of each profile of ``columns`` (one
    row per field of ``DISTRIBUTION_FIELDS``); tS is 0 for an asymptomatic
    profile."""
    t0, _, tp, _, ts, tf, _ = columns
    peak = t0 + tp
    onset = peak + ts
    return peak, onset, onset + tf


def key_days(
    params: np.ndarray, exposure_day: float | np.ndarray, symptomatic: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The key days of episodes ``params`` (rows of :func:`sample_params`)
    exposed on ``exposure_day``: the first load day, the first day past the
    peak, the last load day and the first symptomatic day (NaN where
    ``symptomatic`` is False).

    For an integer ``tau = day - exposure_day`` they restate ``tau >= t0``,
    ``tau > peak``, ``tau <= end`` and ``onset <= tau`` exactly.
    """
    columns = np.asarray(params, dtype=float).reshape(-1, 7).T
    peak, onset, end = key_times(columns)
    return (
        exposure_day + np.ceil(columns[0]),
        exposure_day + np.floor(peak) + 1.0,
        exposure_day + np.floor(end),
        np.where(symptomatic, exposure_day + np.ceil(onset), np.nan),
    )
