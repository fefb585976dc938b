"""Core domain types: disease compartments, the array-backed population,
parameter distributions, the scenario configuration, and the deterministic
per-run random stream."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Union

import numpy as np


class ConfigError(ValueError):
    """A configuration document could not be parsed or is invalid."""


class SimulationError(RuntimeError):
    """A run reached an internally inconsistent state."""


class Compartment(IntEnum):
    """Disease states, numbered as stored in :attr:`Population.comp`.

    The order is part of the storage format: the two susceptible states come
    first, the four states of an infection episode (E, I_s, I_a, R) next, and
    the two isolation states, which are outside the population, last.
    """

    SUSCEPTIBLE_UNVACCINATED = 0
    SUSCEPTIBLE_VACCINATED = 1
    EXPOSED = 2
    INFECTIOUS_SYMPTOMATIC = 3
    INFECTIOUS_ASYMPTOMATIC = 4
    RECOVERED = 5
    ISOLATED_HEALTHY = 6
    ISOLATED_SICK = 7


N_COMPARTMENTS = len(Compartment)
# The codes as plain ints for array arithmetic: NumPy compares an int8 array
# with an IntEnum member several times slower than with an int.
S_U, S_V, E, I_S, I_A, R, ISO_HEALTHY, ISO_SICK = map(int, Compartment)


# ---------------------------------------------------------------------------
# Parameter distributions


@dataclass(frozen=True)
class Constant:
    """Degenerate distribution: always returns ``value``."""

    value: float

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, float(self.value))

    def mean(self) -> float:
        return float(self.value)

    def lower_bound(self) -> float:
        return self.value

    def param_errors(self) -> list[str]:
        if not math.isfinite(self.value):
            return ["value must be finite"]
        return []

    def to_dict(self) -> dict:
        return {"type": "constant", "value": self.value}


@dataclass(frozen=True)
class Uniform:
    low: float
    high: float

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        self._check()
        return rng.uniform(self.low, self.high, n)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def lower_bound(self) -> float:
        return self.low

    def param_errors(self) -> list[str]:
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            return ["bounds must be finite"]
        if self.low > self.high:
            return ["requires low <= high"]
        return []

    def _check(self) -> None:
        errs = self.param_errors()
        if errs:
            raise ConfigError(f"uniform distribution: {errs[0]}")

    def to_dict(self) -> dict:
        return {"type": "uniform", "low": self.low, "high": self.high}


@dataclass(frozen=True)
class GammaShifted:
    """Gamma(shape, scale) translated by ``shift``."""

    shape: float
    scale: float
    shift: float = 0.0

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        self._check()
        return rng.gamma(self.shape, self.scale, n) + self.shift

    def mean(self) -> float:
        return self.shape * self.scale + self.shift

    def lower_bound(self) -> float:
        # a gamma draw can underflow to 0, so the shift itself is attainable
        return self.shift

    def param_errors(self) -> list[str]:
        errs = []
        if not self.shape > 0:
            errs.append("requires shape > 0")
        if not self.scale > 0:
            errs.append("requires scale > 0")
        return errs

    def _check(self) -> None:
        errs = self.param_errors()
        if errs:
            raise ConfigError(f"gamma distribution: {errs[0]}")

    def to_dict(self) -> dict:
        return {
            "type": "gamma_shifted",
            "shape": self.shape,
            "scale": self.scale,
            "shift": self.shift,
        }


@dataclass(frozen=True)
class NormalClipped:
    """Normal(mean, std) with samples clipped into [low, high].

    Clipping has no closed-form mean, so this spec is not usable where an
    analytic mean is required (see :mod:`episim.calibration`).
    """

    mean_: float
    std: float
    low: float
    high: float

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        self._check()
        return np.clip(rng.normal(self.mean_, self.std, n), self.low, self.high)

    def mean(self) -> float:
        raise ConfigError("normal_clipped has no closed-form mean")

    def lower_bound(self) -> float:
        return self.low

    def param_errors(self) -> list[str]:
        errs = []
        if self.std < 0:
            errs.append("requires std >= 0")
        if self.low > self.high:
            errs.append("requires low <= high")
        return errs

    def _check(self) -> None:
        errs = self.param_errors()
        if errs:
            raise ConfigError(f"normal_clipped distribution: {errs[0]}")

    def to_dict(self) -> dict:
        return {
            "type": "normal_clipped",
            "mean": self.mean_,
            "std": self.std,
            "low": self.low,
            "high": self.high,
        }


DistributionSpec = Union[Constant, Uniform, GammaShifted, NormalClipped]


def dist_from_dict(obj: Any, path: str = "distribution") -> DistributionSpec:
    """Parse a distribution spec from its JSON form.

    A bare number is shorthand for a constant.
    """
    if _is_number(obj):
        return Constant(float(obj))
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a number or an object, got {obj!r}")
    kind = obj.get("type")

    def num(key: str, default: Any = None) -> float:
        value = obj.get(key, default)
        if value is None and key not in obj:
            raise ConfigError(f"{path}: missing field {key!r} for type {kind!r}")
        if not _is_number(value):
            raise ConfigError(f"{path}.{key}: expected a number, got {value!r}")
        return float(value)

    if kind == "constant":
        return Constant(num("value"))
    if kind == "uniform":
        return Uniform(num("low"), num("high"))
    if kind == "gamma_shifted":
        return GammaShifted(num("shape"), num("scale"), num("shift", 0.0))
    if kind == "normal_clipped":
        return NormalClipped(num("mean"), num("std"), num("low"), num("high"))
    raise ConfigError(f"{path}: unknown distribution type {kind!r}")


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Scenario configuration

# Field names are the configuration-file identifiers and must stay camelCase
# so documents round-trip unchanged.


@dataclass
class ScenarioConfig:
    # run
    popSize: int = 10_000
    timeHorizon: int = 120
    initialInfected: int = 200
    initProportionVaccinated: float = 0.0
    baseSeed: int = 12345
    # disease
    betaDaily: float = 0.4
    daysTilSusceptible: int = 30
    externalExposureProbDaily: float = 0.005
    fractionSymptomatic: float = 0.5
    infectiousViralLoadCut: float = 1e3
    # viral-load trajectory parameters (times in days, loads in cp/ml)
    t0: DistributionSpec = field(default_factory=lambda: Uniform(2.5, 3.5))
    V0: DistributionSpec = field(default_factory=lambda: Constant(1e3))
    tP: DistributionSpec = field(default_factory=lambda: GammaShifted(1.5, 1.0, 0.5))
    VP: DistributionSpec = field(default_factory=lambda: Uniform(1e4, 1e7))
    tS: DistributionSpec = field(default_factory=lambda: Uniform(0.0, 3.0))
    tF: DistributionSpec = field(default_factory=lambda: Uniform(4.0, 9.0))
    VF: DistributionSpec = field(default_factory=lambda: Constant(1e3))
    # testing (daysBetweenTesting = 0 disables testing entirely)
    daysBetweenTesting: int = 0
    daysDelayTestResults: int = 0
    detectionCut: float = 100.0
    firstDayOfTesting: int = 7
    fprSingle: float = 0.014
    fnrSingle: float = 0.06
    poolingType: str = "average"
    poolSize: int = 1
    costPerTest: float = 100.0
    # isolation
    noTestingPostIsolationDays: int = 0
    isolationLength: int = 10
    selfIsolationOnSymptomsProb: float = 0.7
    # vaccination
    vaccineAcceptProbMean: float = 0.7
    vaccineAcceptProbStd: float = 0.05
    vaccinesAvailablePerDay: int = 0
    vaccineInfectionProb: float = 0.3

    def testing_enabled(self) -> bool:
        return self.daysBetweenTesting > 0

    def is_testing_day(self, day: int) -> bool:
        if not self.testing_enabled() or day < self.firstDayOfTesting:
            return False
        return (day - self.firstDayOfTesting) % self.daysBetweenTesting == 0

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.to_dict() if hasattr(value, "to_dict") else value
        return out


DISTRIBUTION_FIELDS = ("t0", "V0", "tP", "VP", "tS", "tF", "VF")
# Loads are interpolated in log10, so every sampled load must be positive;
# the other fields are times along the trajectory and must not run backwards.
LOAD_FIELDS = ("V0", "VP", "VF")

_INT_FIELDS = {
    "popSize", "timeHorizon", "initialInfected", "baseSeed",
    "daysTilSusceptible", "daysBetweenTesting", "daysDelayTestResults",
    "firstDayOfTesting", "poolSize", "noTestingPostIsolationDays",
    "isolationLength", "vaccinesAvailablePerDay",
}


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build a config from a flat key-value document; unknown keys are errors."""
    if not isinstance(doc, dict):
        raise ConfigError(f"config document must be an object, got {type(doc).__name__}")
    known = {f.name for f in dataclasses.fields(ScenarioConfig)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    kwargs: dict[str, Any] = {}
    for name, value in doc.items():
        if name in DISTRIBUTION_FIELDS:
            kwargs[name] = dist_from_dict(value, path=name)
        elif name in _INT_FIELDS:
            kwargs[name] = _as_int(name, value)
        elif name == "poolingType":
            kwargs[name] = str(value)
        else:
            if not _is_number(value):
                raise ConfigError(f"{name}: expected a number, got {value!r}")
            kwargs[name] = float(value)
    return ScenarioConfig(**kwargs)


def _as_int(name: str, value: Any) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name}: expected an integer, got {value!r}")


@dataclass(frozen=True)
class Violation:
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.field}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def validate_config(config: ScenarioConfig) -> ValidationReport:
    """Check every config invariant; returns all violations, never raises."""
    bad: list[Violation] = []

    def check(cond: bool, fld: str, msg: str) -> None:
        if not cond:
            bad.append(Violation(fld, msg))

    c = config
    check(c.popSize >= 0, "popSize", "must be >= 0")
    check(c.timeHorizon >= 0, "timeHorizon", "must be >= 0")
    check(c.initialInfected >= 0, "initialInfected", "must be >= 0")
    check(c.initialInfected <= c.popSize, "initialInfected", "must be <= popSize")
    check(c.baseSeed >= 0, "baseSeed", "must be >= 0")
    check(c.betaDaily >= 0, "betaDaily", "must be >= 0")
    check(c.infectiousViralLoadCut > 0, "infectiousViralLoadCut", "must be > 0")
    check(c.detectionCut > 0, "detectionCut", "must be > 0")
    check(c.costPerTest >= 0, "costPerTest", "must be >= 0")
    check(c.poolSize >= 1, "poolSize", "must be >= 1")
    check(c.vaccinesAvailablePerDay >= 0, "vaccinesAvailablePerDay", "must be >= 0")
    check(c.vaccineAcceptProbStd >= 0, "vaccineAcceptProbStd", "must be >= 0")
    check(
        c.poolingType in ("average", "exponential"),
        "poolingType", "must be 'average' or 'exponential'",
    )
    for fld in (
        "initProportionVaccinated", "externalExposureProbDaily",
        "fractionSymptomatic", "fprSingle", "fnrSingle",
        "selfIsolationOnSymptomsProb", "vaccineAcceptProbMean",
        "vaccineInfectionProb",
    ):
        value = getattr(c, fld)
        check(0.0 <= value <= 1.0, fld, "not in [0, 1]")
    for fld in (
        "daysTilSusceptible", "daysBetweenTesting", "daysDelayTestResults",
        "firstDayOfTesting", "noTestingPostIsolationDays", "isolationLength",
    ):
        check(getattr(c, fld) >= 0, fld, "must be >= 0")
    for fld in DISTRIBUTION_FIELDS:
        dist = getattr(c, fld)
        errors = dist.param_errors()
        for msg in errors:
            bad.append(Violation(fld, msg))
        if errors:
            continue
        low = dist.lower_bound()
        if fld in LOAD_FIELDS:
            if not low > 0:
                bad.append(Violation(fld, f"loads must be > 0, but samples can reach {low:g}"))
        elif not low >= 0:
            bad.append(Violation(fld, f"times must be >= 0, but samples can reach {low:g}"))
    return ValidationReport(bad)


def default_config(**overrides: Any) -> ScenarioConfig:
    """Default parameter set (no testing, no vaccination)."""
    return dataclasses.replace(ScenarioConfig(), **overrides)


# ---------------------------------------------------------------------------
# Random streams

def make_rng(base_seed: int, run_index: int = 0) -> np.random.Generator:
    """Deterministic stream for one run, derived from (baseSeed, runIndex).

    Identical arguments always yield a bit-identical draw sequence.
    """
    return np.random.default_rng(np.random.SeedSequence((base_seed, run_index)))


# ---------------------------------------------------------------------------
# Population state


class Population:
    """Every agent of one run, one array per field, indexed by agent id.

    A day is NaN where it is unset. ``params`` holds the episode's trajectory
    (t0, V0, tP, VP, tS, tF, VF) in the order of ``DISTRIBUTION_FIELDS``;
    it is stored column by column, so that :meth:`trajectories` hands the
    load kernel contiguous columns. ``exposure_day``, ``params`` and the
    episode's key days (``first_load_day``, ``past_peak_day``,
    ``last_load_day`` and ``onset_day``; see
    :func:`episim.viral_load.key_days`) are set exactly for agents in E, I_s,
    I_a, R and sick isolation, except that ``onset_day`` is NaN for an
    asymptomatic episode; that is what marks an episode as symptomatic.
    ``iso_exit_day``, the scheduled release, is set exactly for isolated
    agents. ``last_exit_day`` is the day of the latest release and is never
    cleared.

    Mutable and confined to a single run; never shared across runs.
    """

    def __init__(self, n: int):
        self.comp = np.zeros(n, dtype=np.int8)
        self.vaccinated = np.zeros(n, dtype=bool)
        self.willingness = np.zeros(n)
        self.exposure_day = np.full(n, np.nan)
        # key days are only compared with day numbers, and float32 holds every
        # whole day below 2**24 exactly
        self.first_load_day, self.past_peak_day, self.last_load_day, self.onset_day = (
            np.full((4, n), np.nan, dtype=np.float32)
        )
        self.recovery_day = np.full(n, np.nan)
        self.iso_exit_day = np.full(n, np.nan)
        self.last_exit_day = np.full(n, np.nan)
        # willing to self-isolate and has not yet decided this episode
        self.selfiso_candidate = np.zeros(n, dtype=bool)
        self.params = np.full((n, len(DISTRIBUTION_FIELDS)), np.nan, order="F")

    def __len__(self) -> int:
        return len(self.comp)

    def counts(self) -> np.ndarray:
        """Agents per compartment, indexed by :class:`Compartment`."""
        return np.bincount(self.comp, minlength=N_COMPARTMENTS)

    def ids(self, compartment: int) -> np.ndarray:
        """Ascending ids of the agents in ``compartment``."""
        return (self.comp == compartment).nonzero()[0]

    def in_population(self) -> np.ndarray:
        """Mask of the agents outside isolation."""
        return self.comp < ISO_HEALTHY

    def susceptible_compartment(self, ids: np.ndarray) -> np.ndarray:
        """S_v for the vaccinated among ``ids``, S_u for the others."""
        return np.where(self.vaccinated[ids], S_V, S_U)

    def trajectories(self, ids: np.ndarray) -> np.ndarray:
        """The trajectory parameters of ``ids`` as one contiguous row per
        field of ``DISTRIBUTION_FIELDS``, the layout
        :func:`episim.viral_load.load_array` reads."""
        return np.take(self.params.T, ids, axis=1)
