"""Within-host viral-load trajectories.

Each infected agent gets a piecewise trajectory through sampled control
points: rise from (t0, V0) to (t0+tP, VP), then decline to the final point
(t0+tP+tF, VF), stretched by tS for symptomatic cases whose symptoms start
tS days after the peak. Interpolation is linear in log10(load); outside the
trajectory the load is 0 (undetectable). This is the control-point family of
Larremore et al., Sci Adv 7:eabd5393 (2021).

The simulation evaluates whole populations with the array forms
(:func:`sample_params`, :func:`key_days`, :func:`load_array`). The scalar
functions on a :class:`ViralLoadProfile` are the reference they are tested
against.

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

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import DISTRIBUTION_FIELDS, ScenarioConfig


class InfectionStage(Enum):
    LATENT = "latent"
    INFECTIOUS = "infectious"
    RECOVERED = "recovered"


@dataclass(frozen=True, slots=True)
class ViralLoadProfile:
    """Sampled trajectory parameters for one infection episode.

    Times are days since exposure, loads in cp/ml. ``tS`` is 0 for
    asymptomatic profiles.
    """

    t0: float
    V0: float
    tP: float
    VP: float
    tS: float
    tF: float
    VF: float
    symptomatic: bool

    @property
    def peak_time(self) -> float:
        return self.t0 + self.tP

    @property
    def end_time(self) -> float:
        return self.t0 + self.tP + self.tS + self.tF

    @property
    def symptom_onset_time(self) -> Optional[float]:
        if not self.symptomatic:
            return None
        return self.t0 + self.tP + self.tS


def sample_params(
    config: ScenarioConfig, symptomatic: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Draw one trajectory per entry of the boolean ``symptomatic`` vector,
    as rows of :data:`profile_params`.

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


def sample_profile(
    config: ScenarioConfig, symptomatic: bool, rng: np.random.Generator
) -> ViralLoadProfile:
    """Draw one trajectory; :func:`sample_params` for a single agent."""
    row = sample_params(config, np.array([symptomatic]), rng)[0]
    return ViralLoadProfile(*row.tolist(), symptomatic=symptomatic)


def load_at(profile: ViralLoadProfile, tau: float) -> float:
    """Viral load (cp/ml) at ``tau`` days since exposure.

    Exactly V0/VP/VF at the control points, log-linear in between, and 0
    before t0 and after the end of the trajectory.
    """
    t0 = profile.t0
    peak = profile.peak_time
    end = profile.end_time
    if tau < t0 or tau > end:
        return 0.0
    if tau == t0:
        return profile.V0
    if tau == peak:
        return profile.VP
    if tau == end:
        return profile.VF
    if tau < peak:
        frac = (tau - t0) / (peak - t0)
        log_v = math.log10(profile.V0) + frac * (
            math.log10(profile.VP) - math.log10(profile.V0)
        )
    else:
        frac = (tau - peak) / (end - peak)
        log_v = math.log10(profile.VP) + frac * (
            math.log10(profile.VF) - math.log10(profile.VP)
        )
    return 10.0 ** log_v


# (t0, V0, tP, VP, tS, tF, VF) of a profile, one row of sample_params
profile_params = operator.attrgetter(*DISTRIBUTION_FIELDS)


def load_array(columns: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Vectorised :func:`load_at`: the load of profile ``i`` at ``tau[i]``
    days since exposure, where ``columns`` holds one row per field of
    :data:`profile_params` and one column per profile (``rows.T``).

    Equal to ``load_at`` entry by entry: exact at the control points, 0
    outside the trajectory, and log-linear in between. Every entry takes the
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
    # control points, lowest precedence first so that t0 wins ties as in load_at
    for point, value in ((end, vf), (peak, vp), (t0, v0)):
        np.copyto(load, value, where=tau == point)
    return load


def symptomatic_now(profile: ViralLoadProfile, tau: float) -> bool:
    """True while a symptomatic profile is inside its symptom window."""
    if not profile.symptomatic:
        return False
    return profile.symptom_onset_time <= tau <= profile.end_time


def status_at(
    profile: ViralLoadProfile, tau: float, infectious_cut: float
) -> tuple[InfectionStage, bool]:
    """Classify an infection at ``tau`` days since exposure.

    Infectious while the load strictly exceeds ``infectious_cut`` inside the
    trajectory; recovered once the trajectory is over or the load has dropped
    back below the cut after the peak; latent otherwise. Also reports whether
    symptoms are currently present.
    """
    if tau > profile.end_time:
        return InfectionStage.RECOVERED, False
    load = load_at(profile, tau)
    showing = symptomatic_now(profile, tau)
    if load > infectious_cut:
        return InfectionStage.INFECTIOUS, showing
    if tau > profile.peak_time and load < infectious_cut:
        return InfectionStage.RECOVERED, showing
    return InfectionStage.LATENT, showing


def key_times(columns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peak, symptom-onset and end time of each profile of ``columns`` (one
    row per field of :data:`profile_params`), summed in the same order as
    the :class:`ViralLoadProfile` properties."""
    t0, _, tp, _, ts, tf, _ = columns
    peak = t0 + tp
    onset = peak + ts
    return peak, onset, onset + tf


def key_days(
    params: np.ndarray, exposure_day: float | np.ndarray, symptomatic: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The key days of episodes ``params`` (rows of :data:`profile_params`)
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
