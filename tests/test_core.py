"""Config schema, distribution sampling, and random-stream determinism."""

import dataclasses
import json

import numpy as np
import pytest

from episim.core import (
    Compartment,
    ConfigError,
    Constant,
    GammaShifted,
    NormalClipped,
    Population,
    ScenarioConfig,
    Uniform,
    config_from_dict,
    default_config,
    dist_from_dict,
    make_rng,
    validate_config,
)


def test_default_config_is_valid():
    report = validate_config(default_config())
    assert report.ok, str(report)


def test_validate_flags_fpr_out_of_range():
    report = validate_config(default_config(fprSingle=1.5))
    assert not report.ok
    assert any(v.field == "fprSingle" for v in report.violations)


def test_validate_flags_zero_pool_size():
    report = validate_config(default_config(poolSize=0))
    assert not report.ok
    assert any(v.field == "poolSize" for v in report.violations)


def test_validate_flags_seed_overflow_and_bad_distribution():
    cfg = default_config(initialInfected=20_000, t0=Uniform(5.0, 1.0))
    report = validate_config(cfg)
    fields = {v.field for v in report.violations}
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
    report = validate_config(default_config(**{field: dist}))
    assert [v.field for v in report.violations] == [field]


def test_validate_accepts_zero_times():
    cfg = default_config(t0=Constant(0.0), tP=Constant(0.0), tS=Constant(0.0),
                         tF=Uniform(0.0, 1.0))
    assert validate_config(cfg).ok


def test_validate_flags_bad_pooling_type():
    report = validate_config(default_config(poolingType="median"))
    assert any(v.field == "poolingType" for v in report.violations)


def test_constant_sampling_is_degenerate():
    rng = make_rng(1)
    assert Constant(1000.0).sample_array(rng, 3).tolist() == [1000.0] * 3


def test_uniform_moment_matches_analytic_mean():
    rng = make_rng(7)
    draws = Uniform(2.5, 3.5).sample_array(rng, 100_000)
    assert abs(draws.mean() - 3.0) < 0.01
    assert draws.min() >= 2.5 and draws.max() <= 3.5


def test_gamma_shifted_moment_matches_analytic_mean():
    # shifted gamma with shape*scale = 1.5 plus shift 0.5 has mean 2.0
    rng = make_rng(11)
    dist = GammaShifted(1.5, 1.0, 0.5)
    draws = dist.sample_array(rng, 100_000)
    assert abs(draws.mean() - 2.0) < 0.02
    assert draws.min() >= 0.5
    assert dist.mean() == 2.0


def test_normal_clipped_stays_in_bounds():
    rng = make_rng(3)
    draws = NormalClipped(0.7, 0.5, 0.0, 1.0).sample_array(rng, 50_000)
    assert draws.min() >= 0.0 and draws.max() <= 1.0


def test_invalid_distribution_parameters_raise():
    rng = make_rng(0)
    with pytest.raises(ConfigError):
        Uniform(3.0, 1.0).sample_array(rng, 1)
    with pytest.raises(ConfigError):
        GammaShifted(-1.0, 1.0).sample_array(rng, 1)


def test_config_round_trips_through_json():
    configs = [
        default_config(),
        default_config(
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
    doc = default_config().to_dict()
    doc["popsize"] = 5
    with pytest.raises(ConfigError, match="popsize"):
        config_from_dict(doc)


def test_bare_number_is_constant_distribution():
    assert dist_from_dict(1000) == Constant(1000.0)


def test_rng_streams_are_deterministic():
    a = make_rng(42, 3).random(1_000_000)
    b = make_rng(42, 3).random(1_000_000)
    assert np.array_equal(a, b)
    c = make_rng(42, 4).random(10)
    assert not np.array_equal(a[:10], c)


def test_population_bookkeeping_moves():
    pop = Population(4)
    assert pop.counts()[Compartment.SUSCEPTIBLE_UNVACCINATED] == 4
    pop.comp[2] = Compartment.EXPOSED
    assert pop.counts()[Compartment.EXPOSED] == 1
    assert pop.ids(Compartment.SUSCEPTIBLE_UNVACCINATED).tolist() == [0, 1, 3]
    assert np.flatnonzero(pop.in_population()).tolist() == [0, 1, 2, 3]
