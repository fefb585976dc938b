"""Core domain types: disease compartments, agents, parameter distributions,
the scenario configuration, and the deterministic per-run random stream."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Iterable, Optional, Union

import numpy as np

if TYPE_CHECKING:
    from .interventions import IsolationRecord
    from .viral_load import ViralLoadProfile


class ConfigError(ValueError):
    """A configuration document could not be parsed or is invalid."""


class SimulationError(RuntimeError):
    """A run reached an internally inconsistent state."""


class Compartment(Enum):
    """Disease states. The two isolation states are outside the population."""

    SUSCEPTIBLE_UNVACCINATED = "s_u"
    SUSCEPTIBLE_VACCINATED = "s_v"
    EXPOSED = "e"
    INFECTIOUS_SYMPTOMATIC = "i_s"
    INFECTIOUS_ASYMPTOMATIC = "i_a"
    RECOVERED = "r"
    ISOLATED_HEALTHY = "iso_healthy"
    ISOLATED_SICK = "iso_sick"


SUSCEPTIBLE_COMPARTMENTS = (
    Compartment.SUSCEPTIBLE_UNVACCINATED,
    Compartment.SUSCEPTIBLE_VACCINATED,
)
INFECTIOUS_COMPARTMENTS = (
    Compartment.INFECTIOUS_SYMPTOMATIC,
    Compartment.INFECTIOUS_ASYMPTOMATIC,
)
ISOLATED_COMPARTMENTS = (
    Compartment.ISOLATED_HEALTHY,
    Compartment.ISOLATED_SICK,
)
# Everything outside the two isolation states counts toward the population P.
IN_POPULATION_COMPARTMENTS = tuple(
    c for c in Compartment if c not in ISOLATED_COMPARTMENTS
)


# ---------------------------------------------------------------------------
# Parameter distributions


@dataclass(frozen=True)
class Constant:
    """Degenerate distribution: always returns ``value``."""

    value: float

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.value)

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, float(self.value))

    def mean(self) -> float:
        return float(self.value)

    def lower_bound(self) -> float:
        return self.value

    def param_errors(self) -> list[str]:
        if not np.isfinite(self.value):
            return ["value must be finite"]
        return []

    def to_dict(self) -> dict:
        return {"type": "constant", "value": self.value}


@dataclass(frozen=True)
class Uniform:
    low: float
    high: float

    def sample(self, rng: np.random.Generator) -> float:
        self._check()
        return float(rng.uniform(self.low, self.high))

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        self._check()
        return rng.uniform(self.low, self.high, n)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def lower_bound(self) -> float:
        return self.low

    def param_errors(self) -> list[str]:
        if not (np.isfinite(self.low) and np.isfinite(self.high)):
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

    def sample(self, rng: np.random.Generator) -> float:
        self._check()
        return float(rng.gamma(self.shape, self.scale) + self.shift)

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

    def sample(self, rng: np.random.Generator) -> float:
        self._check()
        return float(np.clip(rng.normal(self.mean_, self.std), self.low, self.high))

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


def sample(dist: DistributionSpec, rng: np.random.Generator) -> float:
    """Draw one value from a distribution spec."""
    return dist.sample(rng)


def dist_from_dict(obj: Any, path: str = "distribution") -> DistributionSpec:
    """Parse a distribution spec from its JSON form.

    A bare number is shorthand for a constant.
    """
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return Constant(float(obj))
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a number or an object, got {obj!r}")
    kind = obj.get("type")
    try:
        if kind == "constant":
            return Constant(float(obj["value"]))
        if kind == "uniform":
            return Uniform(float(obj["low"]), float(obj["high"]))
        if kind == "gamma_shifted":
            return GammaShifted(
                float(obj["shape"]), float(obj["scale"]), float(obj.get("shift", 0.0))
            )
        if kind == "normal_clipped":
            return NormalClipped(
                float(obj["mean"]), float(obj["std"]),
                float(obj["low"]), float(obj["high"]),
            )
    except KeyError as exc:
        raise ConfigError(f"{path}: missing field {exc.args[0]!r} for type {kind!r}") from None
    raise ConfigError(f"{path}: unknown distribution type {kind!r}")


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
            if isinstance(value, bool) or not isinstance(value, (int, float)):
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
# Agents and population state


@dataclass(slots=True)
class Agent:
    id: int
    compartment: Compartment
    willingness_to_vaccinate: float = 0.0
    vaccinated: bool = False
    will_self_isolate_on_symptoms: bool = False
    viral_profile: Optional["ViralLoadProfile"] = None
    exposure_day: Optional[int] = None
    recovery_day: Optional[int] = None
    isolation_entry_day: Optional[int] = None
    isolation_exit_day: Optional[int] = None
    symptomatic_assignment: bool = False
    self_isolation_triggered: bool = False

    @property
    def is_isolated(self) -> bool:
        return self.compartment in ISOLATED_COMPARTMENTS

    @property
    def is_susceptible(self) -> bool:
        return self.compartment in SUSCEPTIBLE_COMPARTMENTS


class Population:
    """All agents of one run plus compartment membership bookkeeping.

    Mutable and confined to a single run; never shared across runs.
    """

    def __init__(self, agents: Iterable[Agent]):
        self.agents: list[Agent] = list(agents)
        if [a.id for a in self.agents] != list(range(len(self.agents))):
            raise SimulationError("agent ids must be 0..n-1 in order")
        self.members: dict[Compartment, set[int]] = {c: set() for c in Compartment}
        for a in self.agents:
            self.members[a.compartment].add(a.id)
        # agent id -> active IsolationRecord
        self.isolation: dict[int, "IsolationRecord"] = {}
        # ids that may still decide to self-isolate this infection episode
        self.selfiso_candidates: set[int] = set()
        # recovery-return schedule: day -> [(agent id, recovery_day), ...]
        self.return_schedule: dict[int, list[tuple[int, int]]] = {}
        self.vaccinated_count = sum(a.vaccinated for a in self.agents)

    def __len__(self) -> int:
        return len(self.agents)

    def agent(self, agent_id: int) -> Agent:
        return self.agents[agent_id]

    def move(self, agent: Agent, new_compartment: Compartment) -> None:
        self.members[agent.compartment].discard(agent.id)
        self.members[new_compartment].add(agent.id)
        agent.compartment = new_compartment

    def count(self, compartment: Compartment) -> int:
        return len(self.members[compartment])

    def sorted_ids(self, compartment: Compartment) -> list[int]:
        return sorted(self.members[compartment])

    def in_population_ids(self) -> list[int]:
        ids: list[int] = []
        for comp in IN_POPULATION_COMPARTMENTS:
            ids.extend(self.members[comp])
        ids.sort()
        return ids

    def compartment_counts(self) -> dict[Compartment, int]:
        return {c: len(self.members[c]) for c in Compartment}
