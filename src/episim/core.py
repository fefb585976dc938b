"""Core domain types: disease compartments, the array-backed population,
parameter distributions, the scenario configuration, and the deterministic
per-run random streams.

A :class:`ScenarioConfig` is checked once, when it is built (also by
``config_from_dict`` and ``dataclasses.replace``), and is frozen, so every
config that exists is valid and runs to completion; no command, stage or
helper checks one again.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, ClassVar, Union, get_args

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


class _JsonSpec:
    """A distribution spec's JSON form: ``type`` is the class's ``kind``, and
    each dataclass field is one key of the same name."""

    kind: ClassVar[str]

    def to_dict(self) -> dict:
        return {"type": self.kind, **dataclasses.asdict(self)}


@dataclass(frozen=True)
class Constant(_JsonSpec):
    """Degenerate distribution: always returns ``value``."""

    kind = "constant"
    value: float

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, float(self.value))

    def lower_bound(self) -> float:
        return self.value

    def param_errors(self) -> list[str]:
        return []


@dataclass(frozen=True)
class Uniform(_JsonSpec):
    kind = "uniform"
    low: float
    high: float

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, n)

    def lower_bound(self) -> float:
        return self.low

    def param_errors(self) -> list[str]:
        if self.low > self.high:
            return ["requires low <= high"]
        return []


@dataclass(frozen=True)
class GammaShifted(_JsonSpec):
    """Gamma(shape, scale) translated by ``shift``."""

    kind = "gamma_shifted"
    shape: float
    scale: float
    shift: float = 0.0

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.gamma(self.shape, self.scale, n) + self.shift

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


@dataclass(frozen=True)
class NormalClipped(_JsonSpec):
    """Normal(mean, std) with samples clipped into [low, high]."""

    kind = "normal_clipped"
    mean: float
    std: float
    low: float
    high: float

    def sample_array(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.clip(rng.normal(self.mean, self.std, n), self.low, self.high)

    def lower_bound(self) -> float:
        return self.low

    def param_errors(self) -> list[str]:
        errs = []
        if self.std < 0:
            errs.append("requires std >= 0")
        if self.low > self.high:
            errs.append("requires low <= high")
        return errs


DistributionSpec = Union[Constant, Uniform, GammaShifted, NormalClipped]
_DIST_TYPES = {cls.kind: cls for cls in get_args(DistributionSpec)}


def dist_from_dict(obj: Any, path: str = "distribution") -> DistributionSpec:
    """Parse a distribution spec from its JSON form: ``type``, then one number
    per field of the class it names, keyed by the field's name. A field with a
    default, such as ``GammaShifted.shift``, may be left out; any other key is
    an error. A bare number is a constant.
    """
    if _is_number(obj):
        return Constant(_as_float(obj, path))
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected a number or an object, got {obj!r}")
    kind = obj.get("type")
    cls = _DIST_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"{path}: unknown distribution type {kind!r}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(obj) - {"type"} - {f.name for f in fields})
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) for type {kind!r}: {', '.join(unknown)}")
    params = []
    for f in fields:
        value = obj.get(f.name, f.default)
        if value is dataclasses.MISSING:
            raise ConfigError(f"{path}: missing field {f.name!r} for type {kind!r}")
        params.append(_as_float(value, f"{path}.{f.name}"))
    return cls(*params)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Scenario configuration

# Field names are the configuration-file identifiers and must stay camelCase
# so documents round-trip unchanged.


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario's parameters. The defaults, ``ScenarioConfig()``, test
    and vaccinate nobody. Building one that breaks a rule raises one
    :class:`ConfigError`: an ``invalid config:`` line, then one ``field:
    message`` line per violation."""

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
    t0: DistributionSpec = Uniform(2.5, 3.5)
    V0: DistributionSpec = Constant(1e3)
    tP: DistributionSpec = GammaShifted(1.5, 1.0, 0.5)
    VP: DistributionSpec = Uniform(1e4, 1e7)
    tS: DistributionSpec = Uniform(0.0, 3.0)
    tF: DistributionSpec = Uniform(4.0, 9.0)
    VF: DistributionSpec = Constant(1e3)
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

    def __post_init__(self) -> None:
        _check(self)

    def is_testing_day(self, day: int) -> bool:
        if self.daysBetweenTesting == 0 or day < self.firstDayOfTesting:
            return False
        return (day - self.firstDayOfTesting) % self.daysBetweenTesting == 0

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            out[f.name] = value.to_dict() if hasattr(value, "to_dict") else value
        return out


# the trajectory fields, in declaration order: t0, V0, tP, VP, tS, tF, VF
DISTRIBUTION_FIELDS = tuple(f.name for f in dataclasses.fields(ScenarioConfig)
                            if f.type == "DistributionSpec")
# Loads are interpolated in log10, so every sampled load must be positive;
# the other fields are times along the trajectory and must not run backwards.
LOAD_FIELDS = ("V0", "VP", "VF")


def _as_int(value: Any, name: str) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name}: expected an integer, got {value!r}")


def _as_float(value: Any, name: str) -> float:
    if not _is_number(value):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond float range
        raise ConfigError(f"{name}: number too large for a float") from None


# annotation (a string under ``from __future__ import annotations``) -> the
# parser(value, name) of a document's value, the types a built config's value
# may have (never a bool) and their name
_KINDS = {
    "int": (_as_int, numbers.Integral, "an integer"),
    "float": (_as_float, numbers.Real, "a number"),
    "str": (lambda value, name: str(value), str, "a string"),
    "DistributionSpec": (dist_from_dict, get_args(DistributionSpec), "a distribution"),
}
_FIELD_KINDS = {f.name: _KINDS[f.type] for f in dataclasses.fields(ScenarioConfig)}
_DEFAULT_TYPES = tuple(type(f.default) for f in dataclasses.fields(ScenarioConfig))
# every integer field is a count, a day or a seed, and sizes and days reach
# NumPy as int64, so each is held to [0, 2**63 - 1]
_INT_FIELDS = tuple(f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "int")


def config_from_dict(doc: dict) -> ScenarioConfig:
    """Build a config from a flat key-value document; unknown keys are errors.

    Each value is parsed by its field's declared type.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"config document must be an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - _FIELD_KINDS.keys())
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(unknown)}")
    return ScenarioConfig(
        **{name: _FIELD_KINDS[name][0](value, name) for name, value in doc.items()}
    )


def _check(config: ScenarioConfig) -> None:
    """The rules of :class:`ScenarioConfig`, run as it is built, once every
    field holds a value of its type."""
    values = vars(config).values()  # set by __init__, in declaration order
    # most configs hold a value of its default's type in every field
    if tuple(map(type, values)) != _DEFAULT_TYPES:
        wrong = [f"{fld}: expected {what}, got {value!r}"
                 for (fld, (_, types, what)), value in zip(_FIELD_KINDS.items(), values)
                 if type(value) is bool or not isinstance(value, types)]
        if wrong:
            raise ConfigError("invalid config:\n" + "\n".join(wrong))

    bad: list[str] = []

    def check(cond: bool, fld: str, msg: str) -> None:
        if not cond:
            bad.append(f"{fld}: {msg}")

    c = config
    for fld in _INT_FIELDS:
        check(0 <= getattr(c, fld) <= 2**63 - 1, fld, "must be in [0, 2**63 - 1]")
    check(c.popSize >= 1, "popSize", "must be >= 1")
    check(c.initialInfected <= c.popSize, "initialInfected", "must be <= popSize")
    check(c.timeHorizon >= 1, "timeHorizon", "must be >= 1")
    # days are stored as float32 (see Population)
    check(c.timeHorizon <= 2**24, "timeHorizon", "must be <= 2**24")
    # a JSON config may hold Infinity, so the floats with no upper bound are
    # bounded by it; NaN fails every comparison
    check(0 <= c.betaDaily < math.inf, "betaDaily", "must be finite and >= 0")
    check(0 < c.infectiousViralLoadCut < math.inf, "infectiousViralLoadCut",
          "must be finite and > 0")
    check(0 < c.detectionCut < math.inf, "detectionCut", "must be finite and > 0")
    check(0 <= c.costPerTest < math.inf, "costPerTest", "must be finite and >= 0")
    check(c.poolSize >= 1, "poolSize", "must be >= 1")
    check(0 <= c.vaccineAcceptProbStd < math.inf, "vaccineAcceptProbStd",
          "must be finite and >= 0")
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
    for fld in DISTRIBUTION_FIELDS:
        dist = getattr(c, fld)
        if all(map(math.isfinite, vars(dist).values())):
            errors = dist.param_errors()
        else:
            errors = ["parameters must be finite"]
        for msg in errors:
            bad.append(f"{fld}: {msg}")
        if errors:
            continue
        low = dist.lower_bound()
        if fld in LOAD_FIELDS:
            if not low > 0:
                bad.append(f"{fld}: loads must be > 0, but samples can reach {low:g}")
        elif not low >= 0:
            bad.append(f"{fld}: times must be >= 0, but samples can reach {low:g}")
    if bad:
        raise ConfigError("invalid config:\n" + "\n".join(bad))


# ---------------------------------------------------------------------------
# Random streams

# The purposes of a run's streams; stream k is child k of the run's seed.
STREAMS = ("init", "exposure", "episodes", "testing", "vaccination")


class Streams:
    """The random streams of one run, one :class:`numpy.random.Generator` per
    purpose in ``STREAMS``. Stream ``k`` is seeded by child ``k`` of
    ``SeedSequence((baseSeed, runIndex))`` (as ``SeedSequence.spawn`` would
    make it), so a run is a pure function of (config, runIndex), and a stage
    draws the same values whatever another stage draws. A stream is made on
    first use.

    Each stream is drawn in this order:

    - ``init`` (:func:`~episim.engine.initialize`): one acceptance
      probability per agent, the seeds, then the initially vaccinated among
      the other agents.
    - ``exposure``, at each exposure stage (external, then internal), for
      S_u, then for S_v. In a population of fewer than
      ``SPARSE_EXPOSURE_AGENTS`` (10,000) agents: one uniform per agent of the
      compartment, in ascending id order. In a larger one: one binomial count
      k of the |S_c| agents of the compartment, then, if k is at most |S_c|/8,
      batches of uniform ids over all agents until k distinct ids in S_c are
      drawn (the first k are exposed), else one ``choice`` of k among the
      ascending ids in S_c (:func:`~episim.transmission.draw_exposures`).
    - ``episodes``: blocks of ``EPISODE_BLOCK`` episodes
      (:class:`~episim.transmission.EpisodeSource`). A block draws one vector
      each of: the symptomatic uniforms; t0, V0, tP, VP, tS, tF and VF
      (``tS`` for every episode, then zeroed where asymptomatic); the
      self-isolation uniforms. Episodes are handed out in draw order: first
      to the seeds, then to each exposure stage's newly exposed ids in
      ascending order. Where one batch of exposures ends, or how many blocks
      are drawn ahead, does not change which episode an exposure gets.
    - ``testing``, each testing day with M eligible samples, cut into pools
      of ``poolSize`` in order, the last holding the remainder, where the c
      carriers are the eligible agents inside their load window: if c > 0,
      one ``choice`` of c of the M positions, taken by the carriers in
      ascending id order; one uniform per pool holding a carrier for its
      stage-1 test, in pool order; one per carrier in a positive pool of two
      or more for its stage-2 test, in id order; one binomial count of the
      positive full pools without a carrier; one uniform for a short last
      pool without a carrier; one binomial count of the positives among the
      non-carriers retested; then the positive non-carriers, drawn as
      exposure draws who (batches of uniform ids over all agents, or one
      ``choice``) among the eligible non-carriers
      (:func:`~episim.testing.run_testing_day`).
    - ``vaccination``, each day with doses: batches of uniform ids over all
      agents, each with one uniform, examining each eligible agent at its
      first draw (willing when its uniform is below its acceptance
      probability), until the doses are accepted or the draws reach a quarter
      of the agents; then, if doses are left, one permutation of the
      eligible agents not yet examined and one uniform for each
      (:func:`~episim.interventions.vaccination_step`).

    Delivered results, isolation, status updates and loss of immunity draw
    nothing.
    """

    def __init__(self, base_seed: int, run_index: int = 0):
        self.entropy = (base_seed, run_index)

    def __getattr__(self, name: str) -> np.random.Generator:
        # called only until the stream is set as an attribute of its own
        if name not in STREAMS:
            raise AttributeError(name)
        seed = np.random.SeedSequence(self.entropy, spawn_key=(STREAMS.index(name),))
        rng = np.random.default_rng(seed)
        setattr(self, name, rng)
        return rng


def first_occurrences(ids: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``ids`` that are the first of their value. A
    stable sort and a neighbour compare: the first call of ``np.unique``
    maps about 1.5 MB, which shows in a run's peak memory."""
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    first = np.ones(ids.size, dtype=bool)
    first[order[1:]] = ranked[1:] != ranked[:-1]
    return first


def make_rng(base_seed: int, run_index: int = 0) -> Streams:
    """The streams of run ``run_index`` of a config with ``baseSeed``
    ``base_seed``, as :func:`~episim.engine.initialize` takes them.

    Identical arguments always yield bit-identical draw sequences.
    """
    return Streams(base_seed, run_index)


# ---------------------------------------------------------------------------
# Population state

# The rows of Population.days. An episode's days come first, so that ending
# one clears days[EPISODE_DAYS]: its start days, its transition days, then its
# self-isolation day.
DAY_ROWS = ("exposure_day", "onset_day", "first_load_day", "last_load_day",
            "infectious_day", "recovery_day", "selfiso_day", "release_day")
START_DAYS = slice(1, 4)
TRANSITION_DAYS = slice(4, 6)
EPISODE_DAYS = slice(0, 7)


class Population:
    """Every agent of one run, one array per field, indexed by agent id.

    Every per-agent day is a row of one float32 block, ``days``, in the order
    of ``DAY_ROWS``, and the attribute of the same name views that row. A day
    is NaN where it is unset. Days are only compared with day numbers and
    subtracted from them, and float32 holds every whole day below 2**24
    exactly, so a ``ScenarioConfig`` holds ``timeHorizon`` to at most 2**24; a
    later day rounds to one that is still beyond every day of a run.

    ``params`` holds each agent's episode trajectory, field-major: one row
    per field of ``DISTRIBUTION_FIELDS`` and one column per agent, read and
    written as ``params[:, ids]``. ``params`` and the episode's whole
    schedule, ``days[EPISODE_DAYS]`` (the exposure day, the start days: onset,
    first and last load day; the transition days: infectious and recovery;
    and the self-isolation day), are set when an episode starts, exactly for
    agents in E, I_s, I_a, R and sick isolation; ``onset_day`` is NaN for an
    asymptomatic episode, which is what marks it, and ``infectious_day`` is
    NaN if it never becomes infectious. A sick isolation ends the schedule:
    it sets ``infectious_day`` to NaN and ``recovery_day`` to the release,
    which stays until immunity lapses. ``selfiso_day`` is the one day the
    episode self-isolates if then in E or I. ``release_day``, set by every
    isolation and never cleared, is the scheduled release of an isolated
    agent and the latest release of any other.

    :meth:`move` is the only code that changes an agent's compartment, and
    it keeps ``tally``, the agents per compartment as a list indexed by
    :class:`Compartment`, as they move; :meth:`counts`, over every agent, is
    the tests' reference.

    ``params`` and ``days`` share one allocation. glibc trims the heap past
    twice the largest block freed, so what a run frees stays for the next
    set-up instead of being returned to the system and faulted in again.

    Mutable and confined to a single run; never shared across runs.
    """

    def __init__(self, n: int):
        self.comp = np.zeros(n, dtype=np.int8)
        self.tally = [n] + [0] * (N_COMPARTMENTS - 1)
        self.vaccinated = np.zeros(n, dtype=bool)
        self.willingness = np.zeros(n)
        split = 8 * len(DISTRIBUTION_FIELDS) * n
        block = np.empty(split + 4 * len(DAY_ROWS) * n, dtype=np.uint8)
        self.params = block[:split].view(np.float64).reshape(len(DISTRIBUTION_FIELDS), n)
        self.params.fill(np.nan)
        self.days = block[split:].view(np.float32).reshape(len(DAY_ROWS), n)
        self.days.fill(np.nan)
        for name, row in zip(DAY_ROWS, self.days):
            setattr(self, name, row)

    def move(self, ids: np.ndarray, to: int | np.ndarray, source: int | None = None) -> None:
        """Move agents ``ids`` to compartment ``to``, one code or one code per
        id, and keep ``tally``: by sizes when every id is in ``source``, else
        by one ``bincount`` of the ids' codes."""
        if not ids.size:
            return
        tally = self.tally
        if source is None:
            for c, k in enumerate(np.bincount(self.comp[ids]).tolist()):
                tally[c] -= k
        else:
            tally[source] -= ids.size
        if isinstance(to, np.ndarray):
            for c, k in enumerate(np.bincount(to).tolist()):
                tally[c] += k
        else:
            tally[to] += ids.size
        self.comp[ids] = to

    def counts(self) -> np.ndarray:
        """Agents per compartment, indexed by :class:`Compartment`."""
        return np.bincount(self.comp, minlength=N_COMPARTMENTS)

    def in_population(self) -> np.ndarray:
        """Mask of the agents outside isolation."""
        return self.comp < ISO_HEALTHY

    def susceptible_compartment(self, ids: np.ndarray) -> np.ndarray:
        """S_v for the vaccinated among ``ids``, S_u for the others."""
        return np.where(self.vaccinated[ids], S_V, S_U)

