"""Config schema, distribution sampling, random-stream determinism and the
population's compartment moves."""

import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import episim
from episim.core import (
    STREAMS,
    Compartment,
    ConfigError,
    Constant,
    GammaShifted,
    NormalClipped,
    Population,
    ScenarioConfig,
    Uniform,
    config_from_dict,
    dist_from_dict,
    make_rng,
)


def violations(**fields):
    """The ``field: message`` lines of the error that building a config of
    ``fields`` raises, one per violation, in order; [] when it is valid."""
    try:
        ScenarioConfig(**fields)
    except ConfigError as exc:
        header, *lines = str(exc).split("\n")
        assert header == "invalid config:"
        return lines
    return []


def violated_fields(**fields):
    return [line.split(":", 1)[0] for line in violations(**fields)]


def test_the_default_scenario_is_valid():
    assert violated_fields() == []


def test_validate_flags_fpr_out_of_range():
    assert "fprSingle" in violated_fields(fprSingle=1.5)


def test_validate_flags_zero_pool_size():
    assert "poolSize" in violated_fields(poolSize=0)


def test_validate_flags_seed_overflow_and_bad_distribution():
    fields = violated_fields(initialInfected=20_000, t0=Uniform(5.0, 1.0))
    assert "initialInfected" in fields
    assert "t0" in fields


@pytest.mark.parametrize("field,dist", [
    ("V0", Constant(0.0)),
    ("VF", Constant(-1.0)),
    ("VP", Uniform(0.0, 1e7)),
    ("VP", GammaShifted(2.0, 1e5)),
    ("tP", GammaShifted(1.0, 0.1, shift=-5.0)),
    ("t0", NormalClipped(3.0, 1.0, -1.0, 6.0)),
])
def test_validate_flags_distributions_outside_their_domain(field, dist):
    # loads are interpolated in log10 and must be > 0; times must be >= 0
    assert violated_fields(**{field: dist}) == [field]


def test_validate_accepts_zero_times():
    assert violated_fields(t0=Constant(0.0), tP=Constant(0.0), tS=Constant(0.0),
                           tF=Uniform(0.0, 1.0)) == []


def test_validate_flags_bad_pooling_type():
    assert "poolingType" in violated_fields(poolingType="median")


def test_every_violation_is_listed_in_one_error():
    assert violations(popSize=0, timeHorizon=0, fprSingle=2.0) == [
        "popSize: must be >= 1",
        "initialInfected: must be <= popSize",
        "timeHorizon: must be >= 1",
        "fprSingle: not in [0, 1]",
    ]
    # a value of the wrong type is named, and the rules wait until every type fits
    assert violations(popSize="5") == ["popSize: expected an integer, got '5'"]
    assert violations(t0=3.0) == ["t0: expected a distribution, got 3.0"]
    assert violations(popSize=True, fprSingle=2.0) == ["popSize: expected an integer, got True"]


def test_a_config_is_checked_however_it_is_built():
    doc = dict(ScenarioConfig().to_dict(), poolingType="bogus")
    with pytest.raises(ConfigError, match="poolingType: must be"):
        config_from_dict(doc)
    with pytest.raises(ConfigError, match="fprSingle: not in"):
        dataclasses.replace(ScenarioConfig(), fprSingle=7.0)


def test_a_config_is_frozen():
    cfg = ScenarioConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.popSize = 0
    assert cfg == ScenarioConfig()


def test_constant_sampling_is_degenerate():
    rng = np.random.default_rng(1)
    assert Constant(1000.0).sample_array(rng, 3).tolist() == [1000.0] * 3


def test_uniform_moment_matches_analytic_mean():
    rng = np.random.default_rng(7)
    draws = Uniform(2.5, 3.5).sample_array(rng, 100_000)
    assert abs(draws.mean() - 3.0) < 0.01
    assert draws.min() >= 2.5 and draws.max() <= 3.5


def test_gamma_shifted_moment_matches_analytic_mean():
    # shifted gamma with shape*scale = 1.5 plus shift 0.5 has mean 2.0
    rng = np.random.default_rng(11)
    dist = GammaShifted(1.5, 1.0, 0.5)
    draws = dist.sample_array(rng, 100_000)
    assert abs(draws.mean() - 2.0) < 0.02
    assert draws.min() >= 0.5


def test_normal_clipped_stays_in_bounds():
    rng = np.random.default_rng(3)
    draws = NormalClipped(0.7, 0.5, 0.0, 1.0).sample_array(rng, 50_000)
    assert draws.min() >= 0.0 and draws.max() <= 1.0


def test_invalid_distribution_parameters_raise():
    assert violated_fields(t0=Uniform(3.0, 1.0)) == ["t0"]
    assert violated_fields(tP=GammaShifted(-1.0, 1.0)) == ["tP"]


def test_config_round_trips_through_json():
    configs = [
        ScenarioConfig(),
        ScenarioConfig(
            poolSize=5,
            daysBetweenTesting=4,
            t0=Constant(3.0),
            tP=GammaShifted(2.0, 0.5, 1.0),
            VP=Uniform(1e4, 1e6),
            tS=NormalClipped(1.0, 0.3, 0.0, 3.0),
        ),
    ]
    for cfg in configs:
        rebuilt = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert rebuilt == cfg


def test_config_rejects_unknown_keys():
    doc = ScenarioConfig().to_dict()
    doc["popsize"] = 5
    with pytest.raises(ConfigError, match="popsize"):
        config_from_dict(doc)


def test_bare_number_is_constant_distribution():
    assert dist_from_dict(1000) == Constant(1000.0)


@pytest.mark.parametrize("dist,doc", [
    (Constant(3.0), {"type": "constant", "value": 3.0}),
    (Uniform(1.0, 2.0), {"type": "uniform", "low": 1.0, "high": 2.0}),
    (GammaShifted(2.0, 0.5, 1.0),
     {"type": "gamma_shifted", "shape": 2.0, "scale": 0.5, "shift": 1.0}),
    (NormalClipped(1.0, 0.3, 0.0, 3.0),
     {"type": "normal_clipped", "mean": 1.0, "std": 0.3, "low": 0.0, "high": 3.0}),
])
def test_distribution_json_form(dist, doc):
    assert dist.to_dict() == doc
    assert dist_from_dict(doc) == dist


def test_gamma_shifted_shift_defaults_to_zero():
    doc = {"type": "gamma_shifted", "shape": 2.0, "scale": 0.5}
    assert dist_from_dict(doc) == GammaShifted(2.0, 0.5, 0.0)


@pytest.mark.parametrize("doc,message", [
    ({"type": "uniform", "low": 1.0},
     "tP: missing field 'high' for type 'uniform'"),
    ({"type": "normal_clipped", "std": 1.0, "low": 0.0, "high": 2.0},
     "tP: missing field 'mean' for type 'normal_clipped'"),
    ({"type": "normal_clipped", "mean": "1", "std": 1.0, "low": 0.0, "high": 2.0},
     "tP.mean: expected a number, got '1'"),
    ({"type": "lognormal", "mu": 1.0}, "tP: unknown distribution type 'lognormal'"),
    ({"value": 1.0}, "tP: unknown distribution type None"),
    ({"type": ["uniform"]}, "tP: unknown distribution type ['uniform']"),
    ({"type": "gamma_shifted", "shape": 1.5, "scale": 1.0, "shfit": 0.5},
     "tP: unknown field(s) for type 'gamma_shifted': shfit"),
])
def test_dist_from_dict_errors(doc, message):
    with pytest.raises(ConfigError) as info:
        dist_from_dict(doc, "tP")
    assert str(info.value) == message


def test_validate_flags_non_finite_distribution_parameters():
    nan, inf = float("nan"), float("inf")
    assert violations(t0=Constant(nan), tS=Uniform(0.0, inf),
                      tP=GammaShifted(1.0, 1.0, -inf), VP=NormalClipped(1e5, inf, 1.0, 1e7)) == [
        f"{field}: parameters must be finite" for field in ("t0", "tP", "VP", "tS")
    ]


@pytest.mark.parametrize("field", [
    f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "int"
])
def test_validate_flags_integers_beyond_int64(field):
    bound = f"{field}: must be in [0, 2**63 - 1]"
    assert bound in violations(**{field: 2**63})
    assert bound not in violations(**{field: 2**63 - 1})


def test_validate_holds_time_horizon_to_whole_days_float32_holds_exactly():
    # every per-agent day is stored as float32
    assert violations(timeHorizon=2**24 + 1) == ["timeHorizon: must be <= 2**24"]
    assert violations(timeHorizon=2**24) == []


def test_rng_streams_are_deterministic():
    for name in STREAMS:
        a = getattr(make_rng(42, 3), name).random(1_000_000)
        b = getattr(make_rng(42, 3), name).random(1_000_000)
        assert np.array_equal(a, b)
        c = getattr(make_rng(42, 4), name).random(10)
        assert not np.array_equal(a[:10], c)


def test_each_stream_is_a_spawned_child_of_the_run_seed():
    # the contract: stream k is child k of SeedSequence((baseSeed, runIndex)),
    # whichever streams were made before it
    children = np.random.SeedSequence((42, 3)).spawn(len(STREAMS))
    streams = make_rng(42, 3)
    first = [getattr(streams, name).random(5) for name in reversed(STREAMS)][::-1]
    for name, child, draws in zip(STREAMS, children, first):
        assert np.array_equal(draws, np.random.default_rng(child).random(5)), name
    assert len({draws[0] for draws in first}) == len(STREAMS)
    with pytest.raises(AttributeError):
        streams.other


def test_population_bookkeeping_moves():
    pop = Population(4)
    assert pop.counts()[Compartment.SUSCEPTIBLE_UNVACCINATED] == 4
    pop.comp[2] = Compartment.EXPOSED
    assert pop.counts()[Compartment.EXPOSED] == 1
    assert (pop.comp == Compartment.SUSCEPTIBLE_UNVACCINATED).nonzero()[0].tolist() == [0, 1, 3]
    assert np.flatnonzero(pop.in_population()).tolist() == [0, 1, 2, 3]


def test_population_move_keeps_the_running_counts():
    C = Compartment
    pop = Population(10)
    assert pop.tally == pop.counts().tolist() == [10, 0, 0, 0, 0, 0, 0, 0]
    # from a known source, to one code
    pop.move(np.array([1, 2, 3, 4]), C.EXPOSED, C.SUSCEPTIBLE_UNVACCINATED)
    assert pop.tally == pop.counts().tolist() == [6, 0, 4, 0, 0, 0, 0, 0]
    # from a known source, to one code per id
    pop.move(np.array([1, 2, 3]), np.array([C.INFECTIOUS_ASYMPTOMATIC, C.INFECTIOUS_SYMPTOMATIC,
                                            C.INFECTIOUS_ASYMPTOMATIC]), C.EXPOSED)
    assert pop.comp[:5].tolist() == [C.SUSCEPTIBLE_UNVACCINATED, C.INFECTIOUS_ASYMPTOMATIC,
                                     C.INFECTIOUS_SYMPTOMATIC, C.INFECTIOUS_ASYMPTOMATIC, C.EXPOSED]
    assert pop.tally == pop.counts().tolist()
    # from mixed sources, to one code
    pop.move(np.array([0, 2, 3, 4]), C.RECOVERED)
    assert pop.tally == pop.counts().tolist() == [5, 0, 0, 0, 1, 4, 0, 0]
    # from mixed sources, to one code per id
    pop.move(np.array([1, 4, 5, 9]), np.array([C.ISOLATED_SICK, C.SUSCEPTIBLE_VACCINATED,
                                               C.ISOLATED_HEALTHY, C.ISOLATED_HEALTHY]))
    assert pop.tally == pop.counts().tolist() == [3, 1, 0, 0, 0, 3, 2, 1]
    # no ids: nothing moves, whatever the source
    before = pop.comp.copy()
    pop.move(np.empty(0, dtype=np.int64), C.EXPOSED)
    pop.move(np.empty(0, dtype=np.int64), C.EXPOSED, C.RECOVERED)
    pop.move(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    assert np.array_equal(pop.comp, before)
    assert pop.tally == pop.counts().tolist() == [3, 1, 0, 0, 0, 3, 2, 1]


class CompartmentWrites(ast.NodeVisitor):
    """Each write into a ``.comp`` attribute in a module, as (the enclosing
    class and function, the kind, the line): ``item`` for a store into an
    item of it, or of a local name bound to it; ``out`` for an ``out=``
    argument of it; ``attribute`` for a rebinding of the attribute."""

    def __init__(self):
        self.scope = []
        self.aliases = [set()]
        self.writes = []

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.aliases.append(set())
        self.generic_visit(node)
        self.aliases.pop()
        self.scope.pop()

    def is_comp(self, node):
        return ((isinstance(node, ast.Attribute) and node.attr == "comp")
                or (isinstance(node, ast.Name) and node.id in self.aliases[-1]))

    def write(self, kind, node):
        self.writes.append((".".join(self.scope), kind, node.lineno))

    def store(self, target):
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.store(element)
        elif isinstance(target, ast.Subscript) and self.is_comp(target.value):
            self.write("item", target)
        elif isinstance(target, ast.Attribute) and target.attr == "comp":
            self.write("attribute", target)

    def bind(self, target, value):
        if isinstance(target, ast.Name) and self.is_comp(value):
            self.aliases[-1].add(target.id)
        elif isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            for t, v in zip(target.elts, value.elts):
                self.bind(t, v)

    def visit_Assign(self, node):
        self.generic_visit(node)
        for target in node.targets:
            self.store(target)
            self.bind(target, node.value)

    def visit_AugAssign(self, node):
        self.generic_visit(node)
        self.store(node.target)

    def visit_keyword(self, node):
        self.generic_visit(node)
        if node.arg == "out" and self.is_comp(node.value):
            self.write("out", node)


def compartment_writes(source):
    visitor = CompartmentWrites()
    visitor.visit(ast.parse(source))
    return visitor.writes


def test_the_guard_finds_each_kind_of_compartment_write():
    source = (
        "def stage(population, ids):\n"
        "    population.comp[ids] = 5\n"
        "    comp, other = population.comp, 1\n"
        "    comp[ids] += 1\n"
        "    np.copyto(out=population.comp, src=ids)\n"
        "    population.comp = ids\n"
        "    population.comp.view(np.uint8).max()\n"
    )
    assert compartment_writes(source) == [
        ("stage", "item", 2), ("stage", "item", 4), ("stage", "out", 5), ("stage", "attribute", 6)]


def test_only_population_move_writes_compartments():
    # every compartment change goes through Population.move, which keeps the
    # running counts; __init__ only creates the array
    package = Path(episim.__file__).parent
    writes = {path.name: compartment_writes(path.read_text())
              for path in sorted(package.glob("*.py"))}
    allowed = {("Population.move", "item"), ("Population.__init__", "attribute")}
    outside = {name: [w for w in found if w[:2] not in allowed] for name, found in writes.items()}
    assert outside == {name: [] for name in writes}
    assert [w[:2] for w in writes["core.py"]] == [("Population.__init__", "attribute"),
                                                   ("Population.move", "item")]


@pytest.mark.parametrize("n", [0, 1, 5])
def test_population_trajectories_and_days_share_one_allocation(n):
    # the days start where the trajectories end, and both start unset
    pop = Population(n)
    start = pop.params.__array_interface__["data"][0]
    assert pop.days.__array_interface__["data"][0] == start + pop.params.nbytes
    assert pop.params.shape == (7, n) and pop.days.shape == (8, n)
    assert np.isnan(pop.params).all() and np.isnan(pop.days).all()
