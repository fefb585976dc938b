"""Within-host viral-load trajectories.

Each infected agent gets a piecewise trajectory through sampled control
points: rise from (t0, V0) to (t0+tP, VP), then decline to the final point
(t0+tP+tF, VF), stretched by tS for symptomatic cases whose symptoms start
tS days after the peak. Interpolation is linear in log10(load); outside the
trajectory the load is 0 (undetectable).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .core import DISTRIBUTION_FIELDS, ScenarioConfig, sample


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


def sample_profile(
    config: ScenarioConfig, symptomatic: bool, rng: np.random.Generator
) -> ViralLoadProfile:
    """Draw a trajectory from the configured parameter distributions.

    Draw order is fixed (t0, V0, tP, VP, tS if symptomatic, tF, VF) so runs
    are reproducible.
    """
    t0 = sample(config.t0, rng)
    v0 = sample(config.V0, rng)
    tp = sample(config.tP, rng)
    vp = sample(config.VP, rng)
    ts = sample(config.tS, rng) if symptomatic else 0.0
    tf = sample(config.tF, rng)
    vf = sample(config.VF, rng)
    return ViralLoadProfile(
        t0=t0, V0=v0, tP=tp, VP=vp, tS=ts, tF=tf, VF=vf, symptomatic=symptomatic
    )


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
