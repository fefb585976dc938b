"""Within-host viral-load trajectories.

Each infected agent gets a piecewise trajectory through sampled control
points: rise from (t0, V0) to (t0+tP, VP), then decline to the final point
(t0+tP+tF, VF), stretched by tS for symptomatic cases whose symptoms start
tS days after the peak. Interpolation is linear in log10(load); outside the
trajectory the load is 0 (undetectable).

The simulation evaluates whole populations with the array forms
(:func:`sample_params`, :func:`load_array`, :func:`status_array`,
:func:`symptoms_array`) over rows of :data:`profile_params`. The scalar
functions on a :class:`ViralLoadProfile` are the reference they are tested
against.
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


# (t0, V0, tP, VP, tS, tF, VF) of a profile, the row layout load_array reads
profile_params = operator.attrgetter(*DISTRIBUTION_FIELDS)


def load_array(params: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Vectorised :func:`load_at`: the load of profile ``params[i]`` (a row
    of :data:`profile_params`) at ``tau[i]`` days since exposure.

    Equal to ``load_at`` entry by entry: exact at the control points, 0
    outside the trajectory, and log-linear in between. Logarithms and powers
    are taken only on entries strictly inside a segment.
    """
    t0, v0, tp, vp, ts, tf, vf = np.asarray(params, dtype=float).reshape(-1, 7).T
    tau = np.asarray(tau, dtype=float)
    peak = t0 + tp
    end = peak + ts + tf
    load = np.zeros(len(tau))
    for seg, (start, stop, v_start, v_stop) in (
        ((tau > t0) & (tau < peak), (t0, peak, v0, vp)),
        ((tau > peak) & (tau < end), (peak, end, vp, vf)),
    ):
        start, stop = start[seg], stop[seg]
        log_start = np.log10(v_start[seg])
        frac = (tau[seg] - start) / (stop - start)
        load[seg] = 10.0 ** (log_start + frac * (np.log10(v_stop[seg]) - log_start))
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


def key_times(params: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peak, symptom-onset and end time of each row of :data:`profile_params`,
    summed in the same order as the :class:`ViralLoadProfile` properties."""
    t0, _, tp, _, ts, tf, _ = np.asarray(params, dtype=float).reshape(-1, 7).T
    peak = t0 + tp
    onset = peak + ts
    return peak, onset, onset + tf


def status_array(
    params: np.ndarray, tau: np.ndarray, infectious_cut: float
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`status_at`: the (infectious, recovered) masks of
    profiles ``params`` at ``tau``; an entry in neither is latent."""
    peak, _, end = key_times(params)
    load = load_array(params, tau)
    over = tau > end
    return ~over & (load > infectious_cut), over | ((tau > peak) & (load < infectious_cut))


def symptoms_array(
    params: np.ndarray, symptomatic: np.ndarray, tau: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`symptomatic_now`: inside the symptom window."""
    _, onset, end = key_times(params)
    return symptomatic & (onset <= tau) & (tau <= end)
