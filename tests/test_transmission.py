"""Exposure probability arithmetic and the two exposure stages."""

import numpy as np
import pytest

from episim.core import (
    Compartment,
    Population,
    SimulationError,
    default_config,
    make_rng,
)
from episim.transmission import (
    expose,
    exposure_probability,
    external_exposure_step,
    internal_propagation_step,
)


def make_counts(s_u=0, s_v=0, e=0, i_s=0, i_a=0, r=0, iso_healthy=0, iso_sick=0):
    """Agents per compartment, in the layout of Population.counts()."""
    return np.array([s_u, s_v, e, i_s, i_a, r, iso_healthy, iso_sick])


BASE_COUNTS = make_counts(s_u=9800, s_v=0, e=0, i_s=100, i_a=100, r=0)


def build_population(n_su=0, n_sv=0, n_inf=0, n_rec=0):
    pop = Population(n_su + n_sv + n_inf + n_rec)
    pop.comp[:] = np.repeat(
        [Compartment.SUSCEPTIBLE_UNVACCINATED, Compartment.SUSCEPTIBLE_VACCINATED,
         Compartment.INFECTIOUS_ASYMPTOMATIC, Compartment.RECOVERED],
        [n_su, n_sv, n_inf, n_rec],
    )
    pop.vaccinated[n_su:n_su + n_sv] = True
    return pop


def reset_exposed(population, compartment):
    exposed = population.ids(Compartment.EXPOSED)
    population.params[exposed] = np.nan
    population.exposure_day[exposed] = np.nan
    population.comp[exposed] = compartment
    population.selfiso_candidate[:] = False


def test_probability_hand_value_unvaccinated():
    p = exposure_probability(BASE_COUNTS, beta=0.4, gamma=0.005, alpha=0.3,
                             vaccinated=False)
    assert p == pytest.approx(0.013, rel=1e-12)


def test_probability_hand_value_vaccinated():
    p = exposure_probability(BASE_COUNTS, beta=0.4, gamma=0.005, alpha=0.3,
                             vaccinated=True)
    assert p == pytest.approx(0.0039, rel=1e-12)


def test_probability_zero_without_sources():
    counts = make_counts(s_u=100, s_v=0, e=0, i_s=0, i_a=0, r=0)
    assert exposure_probability(counts, 0.4, 0.0, 0.3, False) == 0.0


def test_probability_is_clamped():
    counts = make_counts(s_u=0, s_v=0, e=0, i_s=50, i_a=50, r=0)
    assert exposure_probability(counts, 5.0, 0.9, 0.3, False) == 1.0


def test_probability_mass_action_scale_invariance():
    doubled = make_counts(s_u=2 * 9800, s_v=0, e=0, i_s=200, i_a=200, r=0)
    p1 = exposure_probability(BASE_COUNTS, 0.4, 0.005, 0.3, False)
    p2 = exposure_probability(doubled, 0.4, 0.005, 0.3, False)
    assert p1 == pytest.approx(p2)


def test_probability_monotone_in_inputs():
    base = exposure_probability(BASE_COUNTS, 0.4, 0.005, 0.3, False)
    assert exposure_probability(BASE_COUNTS, 0.5, 0.005, 0.3, False) > base
    assert exposure_probability(BASE_COUNTS, 0.4, 0.008, 0.3, False) > base
    more_inf = make_counts(s_u=9600, s_v=0, e=0, i_s=200, i_a=200, r=0)
    assert exposure_probability(more_inf, 0.4, 0.005, 0.3, False) > base
    bigger_p = make_counts(s_u=19800, s_v=0, e=0, i_s=100, i_a=100, r=0)
    assert exposure_probability(bigger_p, 0.4, 0.005, 0.3, False) < base


def test_probability_empty_population_is_an_error():
    counts = make_counts(s_u=0, s_v=0, e=0, i_s=0, i_a=0, r=0)
    with pytest.raises(SimulationError):
        exposure_probability(counts, 0.4, 0.005, 0.3, False, include_internal=True)


def test_external_step_zero_rate_exposes_nobody():
    pop = build_population(n_su=50)
    cfg = default_config(externalExposureProbDaily=0.0)
    assert external_exposure_step(pop, cfg, 0, make_rng(1)).tolist() == []


def test_external_step_certain_rate_exposes_everyone():
    pop = build_population(n_su=30, n_sv=10)
    cfg = default_config(externalExposureProbDaily=1.0, vaccineInfectionProb=1.0)
    exposed = external_exposure_step(pop, cfg, 2, make_rng(1))
    assert len(exposed) == 40
    for agent_id in exposed:
        assert pop.comp[agent_id] == Compartment.EXPOSED
        assert pop.exposure_day[agent_id] == 2
        assert not np.isnan(pop.params[agent_id]).any()


def test_external_step_binomial_moment():
    # 9800 susceptibles at gamma 0.005: mean exposures per day is 49
    pop = build_population(n_su=9800)
    cfg = default_config(externalExposureProbDaily=0.005)
    rng = make_rng(31)
    counts = []
    for _ in range(1000):
        exposed = external_exposure_step(pop, cfg, 0, rng)
        counts.append(len(exposed))
        reset_exposed(pop, Compartment.SUSCEPTIBLE_UNVACCINATED)
    assert abs(np.mean(counts) - 49.0) < 2.0


def test_internal_step_empty_without_infectious():
    pop = build_population(n_su=100)
    cfg = default_config()
    assert internal_propagation_step(pop, cfg, 0, make_rng(1)).tolist() == []


def test_internal_step_binomial_moment():
    # beta I/P = 0.4 * 200/10000 = 0.008 over 9800 candidates: mean 78.4
    pop = build_population(n_su=9800, n_inf=200)
    cfg = default_config(externalExposureProbDaily=0.0)
    rng = make_rng(37)
    counts = []
    for _ in range(1000):
        exposed = internal_propagation_step(pop, cfg, 0, rng)
        counts.append(len(exposed))
        reset_exposed(pop, Compartment.SUSCEPTIBLE_UNVACCINATED)
    assert abs(np.mean(counts) - 78.4) < 3.0


def test_internal_step_vaccinated_moment():
    # vaccinated candidates see 0.3 * 0.008 = 0.0024: mean 2.4 over 1000 reps
    pop = build_population(n_sv=1000, n_inf=200, n_rec=8800)
    cfg = default_config(externalExposureProbDaily=0.0)
    rng = make_rng(41)
    counts = []
    for _ in range(1000):
        exposed = internal_propagation_step(pop, cfg, 0, rng)
        counts.append(len(exposed))
        reset_exposed(pop, Compartment.SUSCEPTIBLE_VACCINATED)
    assert abs(np.mean(counts) - 2.4) < 0.5


def test_internal_step_uses_supplied_counts():
    pop = build_population(n_su=1000)
    cfg = default_config(betaDaily=1.0, externalExposureProbDaily=0.0)
    stale = make_counts(s_u=1000, s_v=0, e=0, i_s=0, i_a=0, r=0)
    # no infectious agents in the supplied counts: nothing happens even
    # though the live population would say otherwise
    pop.comp[0] = Compartment.INFECTIOUS_ASYMPTOMATIC
    assert internal_propagation_step(pop, cfg, 0, make_rng(1), counts=stale).tolist() == []


def test_exposure_never_touches_non_susceptibles():
    pop = build_population(n_su=200, n_inf=50, n_rec=100)
    cfg = default_config(externalExposureProbDaily=0.5)
    before_inf = pop.ids(Compartment.INFECTIOUS_ASYMPTOMATIC).tolist()
    before_rec = pop.ids(Compartment.RECOVERED).tolist()
    rng = make_rng(43)
    external_exposure_step(pop, cfg, 0, rng)
    internal_propagation_step(pop, cfg, 0, rng)
    assert pop.ids(Compartment.INFECTIOUS_ASYMPTOMATIC).tolist() == before_inf
    assert pop.ids(Compartment.RECOVERED).tolist() == before_rec


def test_snapshot_counts_excludes_isolated():
    pop = build_population(n_su=10, n_inf=5)
    pop.comp[0] = Compartment.ISOLATED_HEALTHY
    pop.comp[10] = Compartment.ISOLATED_SICK
    counts = pop.counts()
    assert counts[Compartment.SUSCEPTIBLE_UNVACCINATED] == 9
    infectious = counts[Compartment.INFECTIOUS_SYMPTOMATIC] + counts[Compartment.INFECTIOUS_ASYMPTOMATIC]
    assert infectious == 4
    assert counts[:Compartment.ISOLATED_HEALTHY].sum() == 13
    # P excludes the isolated: beta * 4/13 with beta 13/4 is exactly 1
    assert exposure_probability(counts, 13 / 4, 0.0, 0.3, False) == 1.0


def test_expose_draws_one_vector_per_episode_draw():
    # the documented order: symptomatic uniforms; t0, V0, tP, VP; tS for the
    # symptomatic subset; tF, VF; then the self-isolation uniforms
    cfg = default_config()
    pop = build_population(n_su=50)
    ids = np.arange(0, 50, 2)
    expose(pop, ids, 4, cfg, make_rng(47))
    rng = make_rng(47)
    symptomatic = rng.random(ids.size) < cfg.fractionSymptomatic
    t0, v0, tp, vp = (getattr(cfg, f).sample_array(rng, ids.size)
                      for f in ("t0", "V0", "tP", "VP"))
    ts = np.zeros(ids.size)
    ts[symptomatic] = cfg.tS.sample_array(rng, int(symptomatic.sum()))
    tf, vf = cfg.tF.sample_array(rng, ids.size), cfg.VF.sample_array(rng, ids.size)
    willing = rng.random(ids.size) < cfg.selfIsolationOnSymptomsProb
    assert np.array_equal(pop.params[ids], np.column_stack([t0, v0, tp, vp, ts, tf, vf]))
    assert np.array_equal(pop.symptomatic[ids], symptomatic)
    assert np.array_equal(pop.selfiso_candidate[ids], symptomatic & willing)
    assert pop.ids(Compartment.EXPOSED).tolist() == ids.tolist()
    assert np.all(pop.exposure_day[ids] == 4)
    assert 0 < symptomatic.sum() < ids.size
