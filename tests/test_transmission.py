"""The exposure probability of each exposure stage, and the two stages."""

from unittest.mock import MagicMock

import numpy as np
import pytest

from episim.core import (DAY_ROWS, DISTRIBUTION_FIELDS, EPISODE_DAYS, TRANSITION_DAYS, Compartment,
                         Constant, NormalClipped, Population, ScenarioConfig, Uniform,
                         make_rng)
from episim.transmission import (
    EPISODE_BLOCK,
    REFILL_AGENTS,
    REFILL_BLOCKS,
    EpisodeSource,
    episode_schedule,
    expose,
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
    pop.tally = pop.counts().tolist()
    return pop


def exposure_streams(config, seed):
    """The exposure stream and the episodes of run 0 of ``baseSeed`` ``seed``."""
    streams = make_rng(seed)
    return streams.exposure, EpisodeSource(config, streams.episodes)


def reset_exposed(population, compartment):
    exposed = (population.comp == Compartment.EXPOSED).nonzero()[0]
    population.params[:, exposed] = np.nan
    population.days[EPISODE_DAYS, exposed] = np.nan
    population.comp[exposed] = compartment
    population.tally = population.counts().tolist()


def stage_probabilities(stage, config, *counts):
    """The probabilities with which ``stage`` exposes an S_u and an S_v
    agent, read from the comparisons with its uniforms; a block with a zero
    probability draws nothing and is left out. The population holds one
    agent in S_u and one in S_v; ``counts`` are the stage's own arguments
    after the episodes."""
    rng = MagicMock()
    uniforms = rng.random.return_value
    uniforms.__lt__.return_value = np.zeros(1, dtype=bool)  # nobody is exposed
    pop = build_population(n_su=1, n_sv=1)
    assert stage(pop, config, 0, rng, None, *counts).size == 0
    return tuple(call.args[0] for call in uniforms.__lt__.call_args_list)


def external_probabilities(gamma, alpha=0.3):
    config = ScenarioConfig(externalExposureProbDaily=gamma, vaccineInfectionProb=alpha)
    return stage_probabilities(external_exposure_step, config)


def internal_probabilities(counts, beta=0.4, alpha=0.3):
    config = ScenarioConfig(betaDaily=beta, vaccineInfectionProb=alpha)
    return stage_probabilities(internal_propagation_step, config, counts)


def test_probability_hand_value_unvaccinated():
    assert external_probabilities(0.005)[0] == 0.005
    # beta I/P = 0.4 * 200/10000
    assert internal_probabilities(BASE_COUNTS)[0] == pytest.approx(0.008, rel=1e-12)


def test_probability_hand_value_vaccinated():
    assert external_probabilities(0.005)[1] == pytest.approx(0.0015, rel=1e-12)
    assert internal_probabilities(BASE_COUNTS)[1] == pytest.approx(0.0024, rel=1e-12)


def test_probability_zero_without_sources():
    assert external_probabilities(0.0) == ()
    assert internal_probabilities(BASE_COUNTS, beta=0.0) == ()
    assert internal_probabilities(make_counts(s_u=100)) == ()


def test_probability_is_clamped():
    counts = make_counts(s_u=0, s_v=0, e=0, i_s=50, i_a=50, r=0)
    assert internal_probabilities(counts, beta=5.0) == (1.0, 1.0)


def test_probability_mass_action_scale_invariance():
    doubled = make_counts(s_u=2 * 9800, s_v=0, e=0, i_s=200, i_a=200, r=0)
    assert internal_probabilities(BASE_COUNTS) == pytest.approx(internal_probabilities(doubled))


def test_probability_monotone_in_inputs():
    assert external_probabilities(0.008)[0] > external_probabilities(0.005)[0]
    base = internal_probabilities(BASE_COUNTS)[0]
    assert internal_probabilities(BASE_COUNTS, beta=0.5)[0] > base
    more_inf = make_counts(s_u=9600, s_v=0, e=0, i_s=200, i_a=200, r=0)
    assert internal_probabilities(more_inf)[0] > base
    bigger_p = make_counts(s_u=19800, s_v=0, e=0, i_s=100, i_a=100, r=0)
    assert internal_probabilities(bigger_p)[0] < base


def test_external_step_zero_rate_exposes_nobody():
    pop = build_population(n_su=50)
    cfg = ScenarioConfig(externalExposureProbDaily=0.0)
    assert external_exposure_step(pop, cfg, 0, *exposure_streams(cfg, 1)).tolist() == []


def test_external_step_certain_rate_exposes_everyone():
    pop = build_population(n_su=30, n_sv=10)
    cfg = ScenarioConfig(externalExposureProbDaily=1.0, vaccineInfectionProb=1.0)
    exposed = external_exposure_step(pop, cfg, 2, *exposure_streams(cfg, 1))
    assert len(exposed) == 40
    for agent_id in exposed:
        assert pop.comp[agent_id] == Compartment.EXPOSED
        assert pop.exposure_day[agent_id] == 2
        assert not np.isnan(pop.params[:, agent_id]).any()


def test_external_step_binomial_moment():
    # 9800 susceptibles at gamma 0.005: mean exposures per day is 49
    pop = build_population(n_su=9800)
    cfg = ScenarioConfig(externalExposureProbDaily=0.005)
    rng, episodes = exposure_streams(cfg, 31)
    counts = []
    for _ in range(1000):
        exposed = external_exposure_step(pop, cfg, 0, rng, episodes)
        counts.append(len(exposed))
        reset_exposed(pop, Compartment.SUSCEPTIBLE_UNVACCINATED)
    assert abs(np.mean(counts) - 49.0) < 2.0


def test_internal_step_empty_without_infectious():
    pop = build_population(n_su=100)
    cfg = ScenarioConfig()
    assert internal_propagation_step(pop, cfg, 0, *exposure_streams(cfg, 1),
                                     pop.counts()).tolist() == []


def test_internal_step_binomial_moment():
    # beta I/P = 0.4 * 200/10000 = 0.008 over 9800 candidates: mean 78.4
    pop = build_population(n_su=9800, n_inf=200)
    cfg = ScenarioConfig(externalExposureProbDaily=0.0)
    rng, episodes = exposure_streams(cfg, 37)
    counts = []
    for _ in range(1000):
        exposed = internal_propagation_step(pop, cfg, 0, rng, episodes, pop.counts())
        counts.append(len(exposed))
        reset_exposed(pop, Compartment.SUSCEPTIBLE_UNVACCINATED)
    assert abs(np.mean(counts) - 78.4) < 3.0


def test_internal_step_vaccinated_moment():
    # vaccinated candidates see 0.3 * 0.008 = 0.0024: mean 2.4 over 1000 reps
    pop = build_population(n_sv=1000, n_inf=200, n_rec=8800)
    cfg = ScenarioConfig(externalExposureProbDaily=0.0)
    rng, episodes = exposure_streams(cfg, 41)
    counts = []
    for _ in range(1000):
        exposed = internal_propagation_step(pop, cfg, 0, rng, episodes, pop.counts())
        counts.append(len(exposed))
        reset_exposed(pop, Compartment.SUSCEPTIBLE_VACCINATED)
    assert abs(np.mean(counts) - 2.4) < 0.5


def test_internal_step_uses_supplied_counts():
    pop = build_population(n_su=1000)
    cfg = ScenarioConfig(betaDaily=1.0, externalExposureProbDaily=0.0)
    stale = make_counts(s_u=1000, s_v=0, e=0, i_s=0, i_a=0, r=0)
    # no infectious agents in the supplied counts: nothing happens even
    # though the live population would say otherwise
    pop.move(np.array([0]), Compartment.INFECTIOUS_ASYMPTOMATIC)
    assert internal_propagation_step(pop, cfg, 0, *exposure_streams(cfg, 1),
                                     counts=stale).tolist() == []


def test_exposure_never_touches_non_susceptibles():
    pop = build_population(n_su=200, n_inf=50, n_rec=100)
    cfg = ScenarioConfig(externalExposureProbDaily=0.5)
    before_inf = (pop.comp == Compartment.INFECTIOUS_ASYMPTOMATIC).nonzero()[0].tolist()
    before_rec = (pop.comp == Compartment.RECOVERED).nonzero()[0].tolist()
    rng, episodes = exposure_streams(cfg, 43)
    external_exposure_step(pop, cfg, 0, rng, episodes)
    internal_propagation_step(pop, cfg, 0, rng, episodes, pop.counts())
    # each stage moves its exposed from S_u to E in the running counts
    assert pop.tally == pop.counts().tolist()
    assert (pop.comp == Compartment.INFECTIOUS_ASYMPTOMATIC).nonzero()[0].tolist() == before_inf
    assert (pop.comp == Compartment.RECOVERED).nonzero()[0].tolist() == before_rec


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
    assert internal_probabilities(counts, beta=13 / 4)[0] == 1.0


def test_expose_draws_one_vector_per_episode_draw():
    # the documented order of a block: symptomatic uniforms; t0, V0, tP, VP,
    # tS (for every episode, then zeroed where asymptomatic), tF, VF; then the
    # self-isolation uniforms. The ids, in ascending order, take its first
    # episodes.
    cfg = ScenarioConfig()
    pop = build_population(n_su=50)
    ids = np.arange(0, 50, 2)
    expose(pop, ids, 4, 5, EpisodeSource(cfg, np.random.default_rng(47)))
    rng = np.random.default_rng(47)
    symptomatic = rng.random(EPISODE_BLOCK) < cfg.fractionSymptomatic
    params = np.array([getattr(cfg, f).sample_array(rng, EPISODE_BLOCK)
                       for f in DISTRIBUTION_FIELDS])
    params[DISTRIBUTION_FIELDS.index("tS"), ~symptomatic] = 0.0
    willing = rng.random(EPISODE_BLOCK) < cfg.selfIsolationOnSymptomsProb
    first = slice(ids.size)
    assert np.array_equal(pop.params[:, ids], params[:, first])
    assert np.array_equal(np.isfinite(pop.onset_day[ids]), symptomatic[first])
    # every symptom onset is after the first update, inside the symptom window
    selfiso_day = np.where((symptomatic & willing)[first], pop.onset_day[ids], np.nan)
    assert np.array_equal(pop.selfiso_day[ids], selfiso_day, equal_nan=True)
    assert not pop.comp.any()  # the caller moves them to E
    assert np.all(pop.exposure_day[ids] == 4)
    assert 0 < symptomatic[first].sum() < ids.size


@pytest.mark.parametrize("cut", [1, 100, EPISODE_BLOCK - 1, EPISODE_BLOCK, 300])
def test_batch_boundaries_are_invisible(cut):
    # ids exposed in one call, or split over two consecutive calls, get the
    # same episodes, down to the byte; 384 ids span two blocks
    cfg = ScenarioConfig()
    ids = np.arange(0, 3 * EPISODE_BLOCK, 2)
    whole, split = build_population(n_su=3 * EPISODE_BLOCK), build_population(n_su=3 * EPISODE_BLOCK)
    expose(whole, ids, 5, 5, EpisodeSource(cfg, np.random.default_rng(53)))
    episodes = EpisodeSource(cfg, np.random.default_rng(53))
    for part in np.split(ids, [cut]):
        expose(split, part, 5, 5, episodes)
    for name in ("params", "days"):
        assert getattr(whole, name).tobytes() == getattr(split, name).tobytes(), name


def test_a_later_first_update_reschedules_only_the_episodes_it_follows():
    # The schedules are derived for a first update on the exposure day. For
    # one on the next day, as an internal exposure gets, only an episode
    # with a load on its exposure day (t0 = 0) has other transition days and
    # a self-isolation day of 1 at the earliest; taking them so is the same
    # as deriving every schedule for that update.
    # t0 is 0 for about half of the episodes, with a load above the cut on
    # the exposure day, and so is the onset when tS is too
    cfg = ScenarioConfig(t0=NormalClipped(0.0, 1.0, 0.0, 2.0), V0=Constant(1e4), tP=Constant(0.0),
                         tS=Uniform(0.0, 1.0), fractionSymptomatic=0.8,
                         selfIsolationOnSymptomsProb=0.8)
    n = 3 * EPISODE_BLOCK
    params, at_exposure = EpisodeSource(cfg, np.random.default_rng(61)).take(n)
    _, next_day = EpisodeSource(cfg, np.random.default_rng(61)).take(n, first_tau=1)
    onset, selfiso = (at_exposure[DAY_ROWS.index(name)] for name in ("onset_day", "selfiso_day"))
    want = episode_schedule(params, np.isfinite(onset), np.isfinite(selfiso),
                            cfg.infectiousViralLoadCut, 1)
    assert np.array_equal(next_day, want, equal_nan=True)
    early = params[0] == 0.0
    assert early.any() and not early.all()
    assert np.array_equal(next_day[:, ~early], at_exposure[:, ~early], equal_nan=True)
    assert not np.array_equal(next_day[TRANSITION_DAYS][:, early],
                              at_exposure[TRANSITION_DAYS][:, early], equal_nan=True)


@pytest.mark.parametrize("agents,blocks", [
    (10_000, [1, 2, 4, REFILL_BLOCKS, REFILL_BLOCKS, REFILL_BLOCKS]),
    (2 * REFILL_AGENTS, [1, 2, 2, 8, 10, 10]),
])
def test_refills_double_up_to_their_cap_and_hand_out_the_same_episodes(agents, blocks):
    # each refill draws twice the blocks of the one before, up to
    # REFILL_BLOCKS and one block per REFILL_AGENTS agents, and at least what
    # is asked for; where the refills fall does not change the episodes
    cfg = ScenarioConfig(popSize=agents, initialInfected=0)
    episodes = EpisodeSource(cfg, np.random.default_rng(67))
    drawn = []
    taken = []
    for size in (1, 300, 900, 2000, 2500, 10):
        taken.append(episodes.take(size))
        drawn.append(episodes.blocks)
    assert drawn == blocks
    whole = EpisodeSource(cfg, np.random.default_rng(67)).take(sum(p.shape[1] for p, _ in taken))
    for got, want in zip((np.concatenate(parts, axis=1) for parts in zip(*taken)), whole):
        assert got.tobytes() == want.tobytes()
