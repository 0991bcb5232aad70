import warnings

import numpy as np
import pytest
from scipy import integrate, stats

import matchprior as mp
from matchprior import mcmc
from matchprior.errors import (InvalidHyperparameter, MatchPriorError,
                               NonFiniteInput, SingularPrecision,
                               ZeroAcceptance)
from matchprior.experiments import logistic_design, logistic_scenario_data
from matchprior.mcmc import ChainConfig, batch_means_se, polya_gamma_1


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(length=0)
    with pytest.raises(ValueError):
        ChainConfig(length=10, burnin=-1)
    with pytest.raises(ValueError):
        ChainConfig(length=10, step_scale=0.0)
    for bad in ({"length": 2.5}, {"length": 10, "burnin": 1.5},
                {"length": 10, "step_scale": np.nan},
                {"length": 10, "step_scale": np.inf}):
        with pytest.raises(ValueError):
            ChainConfig(**bad)
    assert ChainConfig(length=np.int64(4), burnin=np.int64(0)).length == 4
    # batch means need two kept draws
    with pytest.raises(ValueError, match="keeps fewer than 2 draws"):
        ChainConfig(length=1)
    assert ChainConfig(length=2).length == 2


def test_polya_gamma_moments():
    rng = np.random.default_rng(0)
    n = 400_000
    # E[PG(1, z)] = tanh(z/2) / (2z); z = 0 gives 1/4
    for z in (0.0, 0.5, 1.5, 3.0, 8.0):
        draws = polya_gamma_1(rng, np.full(n, z))
        mean = np.tanh(z / 2) / (2 * z) if z > 0 else 0.25
        se = draws.std() / np.sqrt(n)
        assert abs(draws.mean() - mean) < 4 * se, z
        assert np.all(draws > 0)


def test_polya_gamma_mixed_array():
    # one call with z on both sides of |z|/2 = 1/0.64: each slot keeps its
    # own branch weight and left proposal
    zs = np.array([0.5, 3.0, 3.2, 8.0])
    n = 100_000
    draws = polya_gamma_1(np.random.default_rng(4),
                          np.tile(zs, n)).reshape(n, zs.size)
    se = draws.std(axis=0) / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - np.tanh(zs / 2) / (2 * zs))
                  < 4 * se)


def test_polya_gamma_variance():
    # Var[PG(1, z)] = (sinh z - z) / (4 z^3 cosh^2(z/2)); z = 0 gives 1/24.
    # z = 3.0 and 3.2 sit either side of |z|/2 = 1/0.64, where the left
    # proposal switches from the untilted Levy, whose tilt joins the series
    # test, to the untruncated-IG rejection
    rng = np.random.default_rng(3)
    n = 400_000
    for z in (0.0, 0.5, 1.5, 3.0, 3.2, 8.0):
        draws = polya_gamma_1(rng, np.full(n, z))
        var = ((np.sinh(z) - z) / (4 * z**3 * np.cosh(z / 2) ** 2) if z > 0
               else 1.0 / 24.0)
        dev = draws - draws.mean()
        se = np.sqrt((np.mean(dev**4) - np.mean(dev**2) ** 2) / n)
        assert abs(np.mean(dev**2) - var) < 4 * se, z


def _pg_gamma_sum(rng, z, size, terms=100):
    """PG(1, z) = sum_k g_k / (2 pi^2 ((k - 1/2)^2 + z^2 / (4 pi^2))) with
    g_k ~ Exp(1), truncated after `terms` terms plus the mean of the rest
    (the rest's sd is below 3e-5)."""
    c = (z / (2.0 * np.pi)) ** 2
    k = np.arange(1, 200_000)
    weights = 1.0 / (2.0 * np.pi**2 * ((k - 0.5) ** 2 + c))
    out = np.empty(size)
    for i in range(0, size, 20_000):
        m = min(20_000, size - i)
        out[i:i + m] = rng.standard_exponential((m, terms)) @ weights[:terms]
    return out + weights[terms:].sum()


# a generator case keeps the bare z as its test id; the pool runs only on
# z below its switch |z|/2 = 1, since above it the pool takes the
# generator's draws (test_pg_pool_takes_devroye_draws_above_switch)
@pytest.mark.parametrize("z, source", [
    *(pytest.param(z, "generator", id=str(z))
      for z in (0.0, 0.5, 1.5, 1.99, 2.01, 3.1249, 3.1251, 8.0)),
    *(pytest.param(z, "pool", id=f"{z}-pool") for z in (0.0, 0.5, 1.5, 1.99))])
def test_polya_gamma_matches_gamma_sum_in_distribution(z, source):
    # z = 1.99 and 2.01 sit either side of the pool's switch |z|/2 = 1,
    # z = 3.1249 and 3.1251 either side of the Devroye switch |z|/2 = 1/0.64
    rng = np.random.default_rng(int(z * 1e4) + 17)
    src = rng if source == "generator" else mcmc.PGPool(rng)
    draws = polya_gamma_1(src, np.full(200_000, z))
    ref = _pg_gamma_sum(rng, z, 200_000)
    assert stats.ks_2samp(draws, ref).pvalue > 1e-3


def test_pg_pool_takes_devroye_draws_above_switch():
    z = np.full(64, 2.01)
    pool = mcmc.PGPool(np.random.default_rng(9))
    rng = np.random.default_rng(9)
    assert np.array_equal(polya_gamma_1(pool, z), polya_gamma_1(rng, z))
    assert pool.rng.bit_generator.state == rng.bit_generator.state


def test_polya_gamma_left_mass_and_branch_weight():
    # a_0 left of t is (pi / 2) (2 / (pi x))^{3/2} e^{-1/(2x)}, of mass
    # 4 Phi(-1/sqrt(t)) on (0, t)
    t = mcmc._PG_TRUNC
    mass, _ = integrate.quad(
        lambda x: np.pi / 2 * (2 / (np.pi * x)) ** 1.5 * np.exp(-0.5 / x),
        0.0, t, epsabs=1e-14, epsrel=1e-13)
    assert abs(mass - 4.0 * mcmc._PG_LEVY_MASS) < 1e-12
    # at z = 0 the tilt is 1, so the untilted and tilted envelopes coincide
    f0 = np.array([np.pi**2 / 8.0])
    assert abs(mcmc._pg_mass_untilted(f0)[0]
               - mcmc._pg_mass_texpon(np.zeros(1), f0)[0]) < 1e-15


@pytest.mark.parametrize("z", [100.0, 300.0])
def test_polya_gamma_large_z_without_overflow_warning(z):
    # the truncated-exponential mass overflows exp near |z| = 96; its limit 0
    # is the right mass, and no RuntimeWarning may escape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        draws = polya_gamma_1(np.random.default_rng(5), np.full(2000, z))
    se = draws.std() / np.sqrt(draws.size)
    assert abs(draws.mean() - np.tanh(z / 2) / (2 * z)) < 4 * se


def test_polya_gamma_sign_invariance_and_determinism():
    d1 = polya_gamma_1(np.random.default_rng(1), np.array([2.0, -2.0, 0.3]))
    d2 = polya_gamma_1(np.random.default_rng(1), np.array([2.0, 2.0, -0.3]))
    assert np.array_equal(d1, d2)


# PG(1, z) draws and the PCG64 state after them, recorded from the sampler
# as it stood before the squeeze: seed 28 on the slots below takes three
# passes and IG rounds on the slots at and above |z|/2 = 1/0.64
_PG_PINNED_Z = np.repeat([0.0, 0.5, 2.9, 3.2, 3.5, 8.0, 100.0], 3)
_PG_PINNED = [
    0.11397606263714387, 0.12932946776243898, 0.0836591206388287,
    0.1776823735714435, 0.4223347538903923, 0.28867876656203506,
    0.12017954348081214, 0.03360758188759579, 0.314037169982181,
    0.045824664376367924, 0.15890520087231266, 0.13333238917487128,
    0.09240245533200576, 0.1740808063271901, 0.11265727973964715,
    0.06864480522232078, 0.06023046089251949, 0.066236011490209,
    0.004606070518185719, 0.00458187111715661, 0.004967615326086891]


def test_polya_gamma_stream_is_pinned():
    # the exact stream keeps the Gibbs chains, and so every gap study,
    # reproducible across versions of the sampler
    rng = np.random.default_rng(28)
    draws = polya_gamma_1(rng, _PG_PINNED_Z)
    np.testing.assert_allclose(draws, _PG_PINNED, rtol=1e-12)
    assert (rng.bit_generator.state["state"]["state"]
            == 278059539079590822960839300155323229983)
    rng = np.random.default_rng(29)
    draws = polya_gamma_1(rng, np.random.default_rng(6).normal(0.0, 2.0, 4096))
    assert draws.sum() == pytest.approx(841.9270249177491, rel=1e-12)
    assert (rng.bit_generator.state["state"]["state"]
            == 35018962869002039825678036668888347557)


# a short Gibbs chain on its pool and the PCG64 state after it, recorded from
# the pooled sampler as introduced: sweeps 1, 6, 8 and 9 draw from the pool,
# the others have a slot at or above |z|/2 = 1 and run the Devroye scheme
_PG_CHAIN_PINNED = [
    0.06684262404076044, -1.4297332239780385, 0.29864165912542023,
    0.6215740382871969, 0.17829222573832998, 0.06938515468081353,
    -0.12347535236052559, 0.20363340135315167, 0.4148054590558607,
    1.1178055454041855, 0.6313144034553054, 0.21785619346008064]


def test_pg_gibbs_pooled_chain_is_pinned(monkeypatch):
    sources, pooled = [], []
    draw = mcmc.polya_gamma_1

    def spy(source, z):
        sources.append(source)
        pooled.append(bool(np.all(np.abs(z) < 2 * mcmc._PG_POOL_SWITCH)))
        return draw(source, z)

    monkeypatch.setattr(mcmc, "polya_gamma_1", spy)
    design = np.column_stack([np.linspace(-5.0, 5.0, 6), np.ones(6)])
    chain = mp.polya_gamma_gibbs(design, np.array([0, 0, 1, 0, 1, 1.0]),
                                 mp.normal_prior(0, 2),
                                 ChainConfig(length=6, burnin=4, seed=31))
    assert pooled == [True] + [False] * 4 + [True, False, True, True, False]
    assert all(s is sources[0] and isinstance(s, mcmc.PGPool)
               for s in sources)
    np.testing.assert_allclose(chain.samples.ravel(), _PG_CHAIN_PINNED,
                               rtol=1e-12)
    assert (sources[0].rng.bit_generator.state["state"]["state"]
            == 63678637510422810869910526439825706456)


def test_polya_gamma_squeeze_lies_below_first_partial_sum():
    # the series test's first partial sum is 1 - 3 e^{-2A}, with A = 2 / x
    # left of t and pi^2 x / 2 right of it, so its minimum sits at x = t
    t = mcmc._PG_TRUNC
    floor = 1.0 - 3.0 * np.exp(-2.0 * min(np.pi**2 * t / 2.0, 2.0 / t))
    assert 0.99 < mcmc._PG_SQUEEZE < floor


def test_pg_series_decides_on_odd_partial_sums():
    # at x = t, A = 2 / t = 3.125; S1 = 1 - 3 e^{-2A} and S2 = S1 + 5 e^{-6A}
    # are the first two partial sums.  A u between them is left open by both
    # and accepted by S3 = S2 - 7 e^{-12A}; one above S2 is rejected at k = 2
    # and one below S1 is accepted at once
    a = 2.0 / mcmc._PG_TRUNC
    s1 = 1.0 - 3.0 * np.exp(-2.0 * a)
    s2 = s1 + 5.0 * np.exp(-6.0 * a)
    u = np.array([s1 + (s2 - s1) / 2, s2 + 1e-9, s1 - 1e-9])
    assert np.all(u > mcmc._PG_SQUEEZE)
    rejected = mcmc._pg_series_rejects(np.full(3, mcmc._PG_TRUNC), u)
    assert rejected.tolist() == [1]


class _NoDraws:
    """A generator stand-in that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator ({name})")


def test_polya_gamma_rejects_nonfinite_z_before_drawing():
    # the alternating series never decides a NaN slot, so without the check
    # the sampler would loop forever; _NoDraws turns that into a failure.
    # Past |z| = 1.9e154 the tilt z^2/2 overflows and every draw was t/4
    for bad in ([0.5, np.nan], [np.inf], [-np.inf, 1.0], [0.3, 1e160],
                [-1e160]):
        for source in (_NoDraws(), mcmc.PGPool(_NoDraws())):
            with warnings.catch_warnings(), \
                    pytest.raises(NonFiniteInput, match="1.896e"):
                warnings.simplefilter("error")
                polya_gamma_1(source, np.array(bad))
    assert issubclass(NonFiniteInput, MatchPriorError)


# a pool refill's z = 0 draws: sum, first and last value and the PCG64 state
# after them, recorded from the refill's own copy of the pass loop before
# _pg_devroye took refills over; 4096 and 3 * 4096 are one and three blocks
_PG_ZERO_PINNED = {
    1: (0.7689503385426159, 0.7689503385426159, 0.7689503385426159,
        236658695069053534921881806884699931691),
    5: (2.1540145081962394, 0.10921801633594012, 1.5990606535554373,
        258231481655682701799766420152383874717),
    4096: (1014.5193655134531, 0.4377479625401206, 0.13169866220895252,
           37490213452930002587930176967665462290),
    3 * 4096: (3088.8344111678134, 0.21104437294381279, 0.12787747409057523,
               230044490909428000540264257323334556900)}


@pytest.mark.parametrize("size", sorted(_PG_ZERO_PINNED))
def test_pg_zero_stream_is_pinned(size):
    rng = np.random.default_rng(size)
    draws = mcmc._pg_devroye(rng, np.zeros(size))
    total, first, last, state = _PG_ZERO_PINNED[size]
    np.testing.assert_allclose([draws.sum(), draws[0], draws[-1]],
                               [total, first, last], rtol=1e-12)
    assert rng.bit_generator.state["state"]["state"] == state


# Gibbs chains across pool refills: samples.sum() and the PCG64 state after
# the chain, recorded before _pg_devroye took refills over.  Seed 41 on the
# n = 512 chain refills 6 times; on the n = 16 chain it refills once and runs
# 3 Devroye sweeps
_PG_REFILL_CHAINS_PINNED = {
    (512, 20): (21.978263705447105, 6, 0,
                21758486176916866750215687294719175827),
    (16, 40): (14.816661365050312, 1, 3,
               8544181507858323928230975420173107161)}


@pytest.mark.parametrize("n, length", sorted(_PG_REFILL_CHAINS_PINNED))
def test_pg_gibbs_chain_across_refills_is_pinned(monkeypatch, n, length):
    sources, zero_calls = [], []
    draw, devroye = mcmc.polya_gamma_1, mcmc._pg_devroye

    def draw_spy(source, z):
        sources.append(source)
        return draw(source, z)

    def devroye_spy(rng, z):
        # a call whose z is all zero is a pool refill
        zero_calls.append(not np.any(z))
        return devroye(rng, z)

    monkeypatch.setattr(mcmc, "polya_gamma_1", draw_spy)
    monkeypatch.setattr(mcmc, "_pg_devroye", devroye_spy)
    y = logistic_scenario_data(1, n, np.random.default_rng(5))
    chain = mp.polya_gamma_gibbs(logistic_design(n), y, mp.normal_prior(0, 1),
                                 ChainConfig(length=length, burnin=length,
                                             seed=41))
    total, refills, sweeps, state = _PG_REFILL_CHAINS_PINNED[n, length]
    assert (sum(zero_calls), zero_calls.count(False)) == (refills, sweeps)
    assert all(s is sources[0] for s in sources)
    assert chain.samples.sum() == pytest.approx(total, rel=1e-12)
    assert sources[0].rng.bit_generator.state["state"]["state"] == state


def test_pg_pool_hands_out_each_entry_once():
    # the pool's entries in order, as a second pool on the same seed sees
    # them when it refills one block at a time
    ref = mcmc.PGPool(np.random.default_rng(21))
    entries = np.concatenate([ref.take(mcmc._PG_POOL_BLOCK)[0]
                              for _ in range(3)])
    pool = mcmc.PGPool(np.random.default_rng(21))
    # at z = 0 every entry is kept: a draw is the next consecutive entries
    np.testing.assert_array_equal(polya_gamma_1(pool, np.zeros(5)),
                                  entries[:5])
    assert pool._omega.size == mcmc._PG_POOL_BLOCK
    # near the switch about 1 entry in 3 is discarded; a kept entry is
    # never handed out again, and neither is a discarded one, across the
    # refill this draw makes
    kept = polya_gamma_1(pool, np.full(3500, 1.9))
    where = {v: i for i, v in enumerate(entries)}
    pos = np.array([where[v] for v in kept])
    used = where[pool._omega[0]] + pool._next
    assert pos.min() >= 5 and pos.max() < used
    assert np.unique(pos).size == kept.size
    assert used > max(1.4 * kept.size, mcmc._PG_POOL_BLOCK)
    np.testing.assert_array_equal(polya_gamma_1(pool, np.zeros(3)),
                                  entries[used:used + 3])


def test_batch_means_se_iid_scale():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40_000, 1))
    se, ess = batch_means_se(x)
    assert se[0] == pytest.approx(1.0 / np.sqrt(40_000), rel=0.25)
    assert 0.5 * 40_000 < ess[0] <= 40_000
    # the Cauchy m_grid path slices a chain directly
    for rows in (0, 1):
        with pytest.raises(ValueError, match="at least 2 rows"):
            batch_means_se(x[:rows])
    assert batch_means_se(x[:2])[0].shape == (1,)


def test_rwmh_conjugate_poisson():
    rng = np.random.default_rng(3)
    y = rng.poisson(2.0, size=30).astype(float)
    data = mp.Dataset(y)
    chain = mp.rwmh(mp.PoissonRate(), data, mp.gamma_prior(1.0, 1.0),
                    ChainConfig(length=50_000, burnin=2000, seed=4))
    exact = (1 + y.sum()) / (1 + 30)
    assert abs(chain.posterior_mean[0] - exact) < 3 * chain.mc_se[0]
    assert 0.1 < chain.acceptance_rate < 0.9
    assert chain.samples.shape == (50_000, 1)


def test_rwmh_cauchy_proposal():
    rng = np.random.default_rng(5)
    y = rng.poisson(2.0, size=20).astype(float)
    data = mp.Dataset(y)
    chain = mp.rwmh(mp.PoissonRate(), data, mp.gamma_prior(1.0, 1.0),
                    ChainConfig(length=20_000, burnin=1000, seed=6),
                    proposal="cauchy")
    assert chain.samples.shape == (20_000, 1)
    exact = (1 + y.sum()) / (1 + 20)
    assert abs(chain.posterior_mean[0] - exact) < 4 * chain.mc_se[0]


def test_rwmh_determinism():
    y = np.array([2.0, 3.0, 1.0, 4.0])
    data = mp.Dataset(y)
    cfg = ChainConfig(length=500, burnin=100, seed=7)
    c1 = mp.rwmh(mp.PoissonRate(), data, mp.gamma_prior(1.0, 1.0), cfg)
    c2 = mp.rwmh(mp.PoissonRate(), data, mp.gamma_prior(1.0, 1.0), cfg)
    assert np.array_equal(c1.samples, c2.samples)


def test_rwmh_zero_acceptance():
    y = np.array([2.0, 3.0, 1.0, 4.0])
    data = mp.Dataset(y)
    with pytest.raises(ZeroAcceptance):
        mp.rwmh(mp.PoissonRate(), data, mp.gamma_prior(1.0, 1.0),
                ChainConfig(length=2000, burnin=100, seed=8,
                            step_scale=1e6))


def test_rwmh_target_low_level():
    # standard normal target through the generic interface
    chain = mp.rwmh_target(lambda th: -0.5 * float(th @ th), np.zeros(1),
                           ChainConfig(length=40_000, burnin=1000, seed=9))
    assert abs(chain.posterior_mean[0]) < 3 * chain.mc_se[0]
    var = chain.samples.var()
    assert abs(var - 1.0) < 0.1
    with pytest.raises(ValueError):
        mp.rwmh_target(lambda th: -np.inf, np.zeros(1),
                       ChainConfig(length=10, seed=0))
    with pytest.raises(ValueError, match="proposal"):
        mp.rwmh(mp.PoissonRate(), mp.Dataset(np.array([1.0, 2.0])),
                mp.gamma_prior(1.0, 1.0), ChainConfig(length=10, seed=0),
                proposal="foo")


def test_pg_gibbs_conjugacy_with_quadrature():
    n = 24
    design = np.column_stack([np.arange(1, n + 1) / n, np.ones(n)])
    y = (np.random.default_rng(10).random(n)
         < 1 / (1 + np.exp(-design @ [1.0, 0.0]))).astype(float)
    prior = mp.normal_prior(0.0, 1.0)
    chain = mp.polya_gamma_gibbs(design, y, prior,
                                 ChainConfig(length=30_000, burnin=2000,
                                             seed=11))
    model = mp.LogisticGLM(design)
    data = mp.Dataset(y, design)
    ref, _ = mp.quad_posterior_expectation(model, data, prior,
                                           spec=mp.QuadratureSpec(abs_tol=1e-9))
    assert np.all(np.abs(chain.posterior_mean - ref) < 3 * chain.mc_se)


def test_pg_gibbs_means_are_calibrated_over_seeds():
    # criterion 10's logistic instance: over 30 seeds, both the zero-variance
    # mean and the draws' mean sit within their own batch-means standard
    # errors of the quadrature oracle, and the former is much closer
    n = 24
    design = np.column_stack([np.arange(1, n + 1) / n, np.ones(n)])
    y = (np.random.default_rng(1001).random(n)
         < 1 / (1 + np.exp(-design @ [1.0, 0.0]))).astype(float)
    prior = mp.normal_prior(0.0, 1.0)
    ref, _ = mp.quad_posterior_expectation(
        mp.LogisticGLM(design), mp.Dataset(y, design), prior,
        spec=mp.QuadratureSpec(abs_tol=1e-9))
    err = {"zero-variance": [], "draws": []}
    z = {"zero-variance": [], "draws": []}
    for seed in range(30):
        chain = mp.polya_gamma_gibbs(design, y, prior,
                                     ChainConfig(length=2000, burnin=500,
                                                 seed=seed))
        draws_mean = chain.samples.mean(axis=0)
        for key, mean, se in (
                ("zero-variance", chain.posterior_mean, chain.mc_se),
                ("draws", draws_mean, chain.diagnostics["draws_mc_se"])):
            err[key].append(mean - ref)
            z[key].append((mean - ref) / se)
    for key in z:
        zs = np.array(z[key])
        assert np.all(np.abs(zs.mean(axis=0)) <= 0.7), (key, zs.mean(axis=0))
        sd = zs.std(axis=0, ddof=1)
        assert np.all((0.6 <= sd) & (sd <= 1.5)), (key, sd)
    rms = {key: np.sqrt(np.mean(np.square(e), axis=0))
           for key, e in err.items()}
    assert np.all(rms["zero-variance"] <= 0.02 * rms["draws"]), rms


def test_pg_gibbs_reports_zero_variance_mean_and_draws_ess():
    design = logistic_design(32)
    y = logistic_scenario_data(1, 32, np.random.default_rng(8))
    chain = mp.polya_gamma_gibbs(design, y, mp.normal_prior(0, 1),
                                 ChainConfig(length=400, burnin=100, seed=9))
    se, ess = batch_means_se(chain.samples)
    assert np.array_equal(chain.ess, ess)
    assert np.array_equal(chain.diagnostics["draws_mc_se"], se)
    assert chain.diagnostics["estimator"] == "zero-variance"
    assert np.all(chain.mc_se < chain.diagnostics["draws_mc_se"])
    # the control variates move the estimate off the draws' mean
    assert not np.allclose(chain.posterior_mean, chain.samples.mean(axis=0),
                           rtol=0, atol=1e-12)


def test_zero_variance_is_exact_for_a_gaussian():
    # for pi = N(mu, Sigma) the score is -Sigma^-1 (beta - mu), so the least
    # squares coefficient is -Sigma and every corrected draw is mu
    rng = np.random.default_rng(17)
    mu = np.array([0.7, -1.2, 3.0])
    a = rng.normal(size=(3, 3))
    cov = a @ a.T + np.eye(3)
    draws = rng.multivariate_normal(mu, cov, size=500)
    scores = -np.linalg.solve(cov, (draws - mu).T).T
    out = mcmc._finalize(draws, 500, 0, {}, scores)
    assert out.diagnostics["estimator"] == "zero-variance"
    np.testing.assert_allclose(out.posterior_mean, mu, rtol=0, atol=1e-12)
    assert np.array_equal(out.diagnostics["draws_mc_se"],
                          batch_means_se(draws)[0])


def _gamma_draws(rng, shapes, rates, m):
    """m iid draws of independent Gammas and their exact scores."""
    draws = rng.gamma(shapes, 1.0 / rates, size=(m, len(shapes)))
    return draws, (shapes - 1.0) / draws - rates


def _cross_fitted(draws, cv):
    """The draws corrected by the columns cv, each half by the other's fit."""
    corrected, m = draws.copy(), draws.shape[0]
    h = m // 2
    for fit, use in ((slice(h), slice(h, m)), (slice(h, m), slice(h))):
        c = np.linalg.lstsq(cv[fit] - cv[fit].mean(axis=0),
                            draws[fit] - draws[fit].mean(axis=0),
                            rcond=None)[0]
        corrected[use] -= cv[use] @ c
    return corrected


def _second_degree(draws, scores):
    """The score columns and theta_j s_k + theta_k s_j + 2 [j = k], j <= k."""
    j, k = np.triu_indices(draws.shape[1])
    quad = draws[:, j] * scores[:, k] + draws[:, k] * scores[:, j]
    quad[:, j == k] += 2.0
    return np.hstack((scores, quad))


def test_quadratic_zero_variance_is_exact_for_gammas():
    # for Gamma(a, b) the score is (a - 1) / theta - b, so the degree-2
    # variate theta s + 1 = a - b theta is linear in theta and every
    # corrected draw is a / b; the score alone is not enough.  600 draws
    # reach degree 3, whose extra columns leave the fit exact
    rng = np.random.default_rng(23)
    for shapes, rates in (([3.5], [2.0]), ([3.5, 2.5], [2.0, 0.7])):
        shapes, rates = np.array(shapes), np.array(rates)
        draws, scores = _gamma_draws(rng, shapes, rates, 600)
        out = mcmc._finalize(draws, 600, 0, {}, scores)
        assert out.diagnostics["zv_degree"] == 3
        np.testing.assert_allclose(out.posterior_mean, shapes / rates,
                                   rtol=0, atol=1e-12)
        first = _cross_fitted(draws, scores).mean(axis=0)
        assert np.all(np.abs(first - shapes / rates) > 1e-6), first


def test_cubic_zero_variance_is_exact_for_inverse_gammas():
    # for InvGamma(a, b) the score is -(a + 1) / theta + b / theta^2, so the
    # degree-3 variate 3 theta^2 s + 6 theta = 3 b - 3 (a - 1) theta is
    # linear in theta and every corrected draw is b / (a - 1); the degree-2
    # columns are not enough.  d = 3 needs 190 draws for degree 3
    rng = np.random.default_rng(31)
    for shapes, scales in (([4.5], [3.0]), ([4.5, 3.5, 6.0], [3.0, 1.0, 2.5])):
        shapes, scales = np.array(shapes), np.array(scales)
        draws = scales / rng.gamma(shapes, 1.0, size=(600, len(shapes)))
        scores = -(shapes + 1.0) / draws + scales / draws**2
        out = mcmc._finalize(draws, 600, 0, {}, scores)
        assert out.diagnostics["zv_degree"] == 3
        mean = scales / (shapes - 1.0)
        np.testing.assert_allclose(out.posterior_mean, mean, rtol=0, atol=1e-12)
        second = _cross_fitted(draws, _second_degree(draws, scores))
        assert np.all(np.abs(second.mean(axis=0) - mean) > 1e-6), second


def test_zero_variance_degree_follows_the_draw_count():
    # degree k needs at most m / 10 columns: degree 3 takes 30, 90 and 190
    # kept draws at d = 1, 2 and 3, one fewer gives degree 2, and at d = 2
    # degree 2 takes 50 and fewer give the score columns alone, bit for bit
    rng = np.random.default_rng(29)
    for d, m in ((1, 30), (2, 90), (3, 190)):
        draws, scores = _gamma_draws(rng, np.full(d, 3.5), np.full(d, 2.0), m)
        assert mcmc._finalize(draws, m, 0, {}, scores).diagnostics[
            "zv_degree"] == 3
        assert mcmc._finalize(draws[1:], m - 1, 0, {}, scores[1:]).diagnostics[
            "zv_degree"] == 2
    shapes, rates = np.array([3.5, 2.5]), np.array([2.0, 0.7])
    draws, scores = _gamma_draws(rng, shapes, rates, 50)
    assert mcmc._finalize(draws, 50, 0, {}, scores).diagnostics[
        "zv_degree"] == 2
    draws, scores = draws[:49], scores[:49]
    out = mcmc._finalize(draws, 49, 0, {}, scores)
    assert out.diagnostics["zv_degree"] == 1
    corrected = _cross_fitted(draws, scores)
    assert np.array_equal(out.posterior_mean, corrected.mean(axis=0))
    assert np.array_equal(out.mc_se, batch_means_se(corrected)[0])
    # d > 10 stays at degree 1 whatever the chain length, and a half of at
    # most d draws cannot fit the d score columns, so 22 draws report the
    # draws' mean and se
    wide = rng.normal(size=(2000, 11))
    assert mcmc._finalize(wide, 2000, 0, {}, -wide).diagnostics[
        "zv_degree"] == 1
    assert mcmc._finalize(wide[:24], 24, 0, {}, -wide[:24]).diagnostics[
        "zv_degree"] == 1
    out = mcmc._finalize(wide[:22], 22, 0, {}, -wide[:22])
    assert out.diagnostics["estimator"] == "draws"
    assert np.array_equal(out.posterior_mean, wide[:22].mean(axis=0))
    assert np.array_equal(out.mc_se, batch_means_se(wide[:22])[0])


def test_pg_gibbs_se_on_a_symmetric_posterior():
    # X'(y - 1/2) = 0 here, so the posterior is symmetric about 0 and every
    # conditional mean E[beta | omega] is 0: an average of them reported an
    # mc_se of 1e-150, batch_means_se's floor, whatever the chain
    design = np.column_stack([np.arange(1, 5) / 4, np.ones(4)])
    y = np.array([1.0, 0.0, 0.0, 1.0])
    for seed in range(3):
        chain = mp.polya_gamma_gibbs(design, y, mp.normal_prior(0, 1),
                                     ChainConfig(length=2000, burnin=500,
                                                 seed=seed))
        assert np.all(chain.mc_se > 1e-10), chain.mc_se
        assert np.all(np.abs(chain.posterior_mean) < 4 * chain.mc_se), \
            (chain.posterior_mean, chain.mc_se)


def test_draw_samplers_report_the_draws_mean():
    cfg = ChainConfig(length=300, seed=4)
    for chain in (mp.komaki_gibbs(np.array([4.0]), 2, np.array([3.0]), 2.0,
                                  cfg),
                  mcmc.rwmh_target(lambda t: -0.5 * t @ t, np.zeros(2), cfg)):
        se, ess = batch_means_se(chain.samples)
        assert chain.diagnostics["estimator"] == "draws"
        assert np.array_equal(chain.posterior_mean,
                              chain.samples.mean(axis=0))
        assert np.array_equal(chain.mc_se, se)
        assert np.array_equal(chain.diagnostics["draws_mc_se"], se)
        assert np.array_equal(chain.ess, ess)


def test_pg_gibbs_determinism_and_prior_requirement():
    design = np.array([[1.0], [0.5], [-0.3]])
    y = np.array([1.0, 0.0, 1.0])
    cfg = ChainConfig(length=200, burnin=50, seed=12)
    c1 = mp.polya_gamma_gibbs(design, y, mp.normal_prior(0, 2), cfg)
    c2 = mp.polya_gamma_gibbs(design, y, mp.normal_prior(0, 2), cfg)
    assert np.array_equal(c1.samples, c2.samples)
    with pytest.raises(InvalidHyperparameter):
        mp.polya_gamma_gibbs(design, y, mp.uniform_prior(), cfg)


@pytest.mark.parametrize("scenario", [1, 2])
@pytest.mark.parametrize("n", [16, 512])
def test_pg_gibbs_draws_do_not_depend_on_the_design_layout(monkeypatch,
                                                           scenario, n):
    # Dataset keeps its copy column-major; the sweep works on one row-major
    # copy per chain, so its sums run in the order they always have and a
    # seed gives the same draws from any layout of the caller's design
    swept = []
    outer = mcmc.row_outer
    monkeypatch.setattr(mcmc, "row_outer", lambda x: (
        swept.append(x.flags.c_contiguous) or outer(x)))
    x = logistic_design(n)
    y = logistic_scenario_data(scenario, n, np.random.default_rng(5))
    wide = np.zeros((n, 4))
    wide[:, ::2] = x
    draws = [mp.polya_gamma_gibbs(design, y, mp.normal_prior(0, 1),
                                  ChainConfig(length=60, burnin=20,
                                              seed=41)).samples
             for design in (np.ascontiguousarray(x), np.asfortranarray(x),
                            wide[:, ::2])]
    assert swept == [True] * 3
    assert all(np.array_equal(draws[0], d) for d in draws[1:])


def test_pg_gibbs_draws_once_per_sweep(monkeypatch):
    # the benchmark times mcmc.polya_gamma_1 as one PG draw per sweep
    sizes = []
    draw = mcmc.polya_gamma_1
    monkeypatch.setattr(mcmc, "polya_gamma_1",
                        lambda rng, z: sizes.append(np.size(z)) or draw(rng, z))
    design = np.array([[1.0, 0.2], [0.5, 1.0], [-0.3, 1.0]])
    mp.polya_gamma_gibbs(design, np.array([1.0, 0.0, 1.0]),
                         mp.normal_prior(0, 2),
                         ChainConfig(length=40, burnin=10, seed=17))
    assert sizes == [3] * 50


def test_pg_gibbs_validates_data_before_drawing(monkeypatch):
    def no_sweep(rng, z):
        raise AssertionError("a Gibbs sweep started")

    monkeypatch.setattr(mcmc, "polya_gamma_1", no_sweep)
    cfg = ChainConfig(length=20, seed=16)
    prior = mp.normal_prior(0, 2)
    with pytest.raises(ValueError, match="rows do not match"):
        mp.polya_gamma_gibbs(np.ones((8, 2)), np.ones(5), prior, cfg)
    with pytest.raises(ValueError, match="at least one observation"):
        mp.polya_gamma_gibbs(np.ones((0, 2)), np.ones(0), prior, cfg)
    with pytest.raises(NonFiniteInput):
        mp.polya_gamma_gibbs(np.array([[1.0], [np.nan]]), np.ones(2),
                             prior, cfg)


def refuse_sweep(rng, z):
    raise AssertionError("a Gibbs sweep started")


def test_pg_gibbs_rejects_multicolumn_response(monkeypatch):
    monkeypatch.setattr(mcmc, "polya_gamma_1", refuse_sweep)
    with pytest.raises(ValueError, match="single column"):
        mp.polya_gamma_gibbs(np.ones((4, 2)), np.ones((4, 2)),
                             mp.normal_prior(0, 2), ChainConfig(length=20, seed=16))


def test_pg_gibbs_rejects_non_binary_response(monkeypatch):
    monkeypatch.setattr(mcmc, "polya_gamma_1", refuse_sweep)
    with pytest.raises(ValueError, match="0 or 1"):
        mp.polya_gamma_gibbs(np.ones((3, 1)), np.array([1.0, 0.0, 2.0]),
                             mp.normal_prior(0, 2), ChainConfig(length=20, seed=16))


def test_pg_gibbs_indefinite_precision_raises(monkeypatch):
    # negative PG weights make X' Omega X + P0 indefinite: dpotrf's info flag
    monkeypatch.setattr(mcmc, "polya_gamma_1",
                        lambda rng, z: np.full(np.shape(z), -10.0))
    design = np.array([[1.0], [0.5], [-0.3]])
    y = np.array([1.0, 0.0, 1.0])
    with pytest.raises(SingularPrecision):
        mp.polya_gamma_gibbs(design, y, mp.normal_prior(0, 2),
                             ChainConfig(length=20, seed=16))


def test_pg_gibbs_rejects_priors_without_finite_precision(monkeypatch):
    def no_sweep(rng, z):
        raise AssertionError("a Gibbs sweep started")

    monkeypatch.setattr(mcmc, "polya_gamma_1", no_sweep)
    design = np.array([[1.0], [0.5], [-0.3]])
    y = np.array([1.0, 0.0, 1.0])
    cfg = ChainConfig(length=200, burnin=50, seed=12)
    model = mp.LogisticGLM(design)
    upturned = mp.PriorSpec("upturned", lambda th: float(th @ th),
                            lambda th: 2.0 * th, proper=True,
                            log_hess=lambda th: 2.0 * np.eye(th.shape[0]))
    bad = [mp.gamma_prior(2, 1),      # infinite precision at 0
           mp.invgamma_prior(2, 1),   # non-finite precision at 0
           upturned,                  # negative definite precision
           mp.eflat_map_partner(mp.normal_prior(0, 1), model)]  # improper
    for prior in bad:
        with pytest.raises(InvalidHyperparameter):
            mp.polya_gamma_gibbs(design, y, prior, cfg)


def test_komaki_gibbs_exact_d1():
    # d=1 posterior is Gamma(S + beta - alpha, n) with mean (S+beta-alpha)/n
    chain = mp.komaki_gibbs(np.array([4.0]), 2, np.array([3.0]), 2.0,
                            ChainConfig(length=50_000, burnin=1000, seed=13))
    assert abs(chain.posterior_mean[0] - 2.5) < 3 * chain.mc_se[0]


def test_komaki_draws_are_exact_d1():
    # d=1: the draws are Gamma(S + beta - alpha, rate n) = Gamma(5, rate 2)
    chain = mp.komaki_gibbs(np.array([4.0]), 2, np.array([3.0]), 2.0,
                            ChainConfig(length=4000, seed=31))
    assert chain.diagnostics["sampler"] == "komaki-exact"
    assert chain.acceptance_rate == 1.0
    assert stats.kstest(chain.samples[:, 0],
                        stats.gamma(5.0, scale=0.5).cdf).pvalue > 1e-3


def test_komaki_draws_are_exact_d2():
    # a = beta + S = (5, 8): sum(lam) ~ Gamma(sum a - alpha, rate n) =
    # Gamma(8, rate 3) and lam_1 / sum(lam) ~ Beta(5, 8)
    chain = mp.komaki_gibbs(np.array([2.0, 5.0]), 3, np.array([3.0, 3.0]),
                            5.0, ChainConfig(length=4000, seed=32))
    total = chain.samples.sum(axis=1)
    assert stats.kstest(total, stats.gamma(8.0, scale=1 / 3).cdf).pvalue > 1e-3
    assert stats.kstest(chain.samples[:, 0] / total,
                        stats.beta(5.0, 8.0).cdf).pvalue > 1e-3


def test_komaki_gibbs_validation_and_determinism():
    cfg = ChainConfig(length=100, burnin=10, seed=14)
    with pytest.raises(InvalidHyperparameter):
        mp.komaki_gibbs(np.array([1.0]), 2, np.array([-1.0]), 2.0, cfg)
    with pytest.raises(InvalidHyperparameter):
        mp.komaki_gibbs(np.array([1.0]), 0, np.array([3.0]), 2.0, cfg)
    with pytest.raises(InvalidHyperparameter):
        mp.komaki_gibbs(np.array([-1.0]), 2, np.array([3.0]), 2.0, cfg)
    # sum(beta + S) = 4 <= alpha = 4: the posterior is improper at 0
    with pytest.raises(InvalidHyperparameter):
        mp.komaki_gibbs(np.array([1.0, 0.0]), 2, np.array([2.0, 1.0]), 4.0, cfg)
    c1 = mp.komaki_gibbs(np.array([1.0, 5.0]), 2, np.array([3.0, 3.0]), 5.0, cfg)
    c2 = mp.komaki_gibbs(np.array([1.0, 5.0]), 2, np.array([3.0, 3.0]), 5.0, cfg)
    assert np.array_equal(c1.samples, c2.samples)
    assert c1.samples.shape == (100, 2)
