import warnings

import numpy as np
import pytest
from scipy import integrate, stats

import matchprior as mp
from matchprior import mcmc
from matchprior.errors import (InvalidHyperparameter, MatchPriorError,
                               NonFiniteInput, SingularPrecision,
                               ZeroAcceptance)
from matchprior.mcmc import ChainConfig, batch_means_se, polya_gamma_1


def test_chain_config_validation():
    with pytest.raises(ValueError):
        ChainConfig(length=0)
    with pytest.raises(ValueError):
        ChainConfig(length=10, burnin=-1)
    with pytest.raises(ValueError):
        ChainConfig(length=10, thinning=0)
    with pytest.raises(ValueError):
        ChainConfig(length=10, step_scale=0.0)


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


@pytest.mark.parametrize("z", [0.0, 0.5, 1.5, 3.1249, 3.1251, 8.0])
def test_polya_gamma_matches_gamma_sum_in_distribution(z):
    # z = 3.1249 and 3.1251 sit either side of the switch |z|/2 = 1/0.64
    rng = np.random.default_rng(int(z * 1e4) + 17)
    draws = polya_gamma_1(rng, np.full(200_000, z))
    ref = _pg_gamma_sum(rng, z, 200_000)
    assert stats.ks_2samp(draws, ref).pvalue > 1e-3


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


class _NoDraws:
    """A generator stand-in that fails on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator ({name})")


def test_polya_gamma_rejects_nonfinite_z_before_drawing():
    # the alternating series never decides a NaN slot, so without the check
    # the sampler would loop forever; _NoDraws turns that into a failure
    for bad in ([0.5, np.nan], [np.inf], [-np.inf, 1.0]):
        with pytest.raises(NonFiniteInput):
            polya_gamma_1(_NoDraws(), np.array(bad))
    assert issubclass(NonFiniteInput, MatchPriorError)


def test_batch_means_se_iid_scale():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40_000, 1))
    se, ess = batch_means_se(x)
    assert se[0] == pytest.approx(1.0 / np.sqrt(40_000), rel=0.25)
    assert 0.5 * 40_000 < ess[0] <= 40_000


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


def test_rwmh_cauchy_proposal_and_thinning():
    rng = np.random.default_rng(5)
    y = rng.poisson(2.0, size=20).astype(float)
    data = mp.Dataset(y)
    chain = mp.rwmh(mp.PoissonRate(), data, mp.gamma_prior(1.0, 1.0),
                    ChainConfig(length=20_000, burnin=1000, seed=6,
                                thinning=4),
                    proposal="cauchy")
    assert chain.samples.shape == (5000, 1)
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


def test_pg_gibbs_determinism_and_prior_requirement():
    design = np.array([[1.0], [0.5], [-0.3]])
    y = np.array([1.0, 0.0, 1.0])
    cfg = ChainConfig(length=200, burnin=50, seed=12)
    c1 = mp.polya_gamma_gibbs(design, y, mp.normal_prior(0, 2), cfg)
    c2 = mp.polya_gamma_gibbs(design, y, mp.normal_prior(0, 2), cfg)
    assert np.array_equal(c1.samples, c2.samples)
    with pytest.raises(InvalidHyperparameter):
        mp.polya_gamma_gibbs(design, y, mp.uniform_prior(), cfg)


def test_pg_gibbs_thinning_keeps_every_third_sweep():
    design = np.array([[1.0, 0.2], [0.5, 1.0], [-0.3, 1.0], [0.8, -0.4]])
    y = np.array([1.0, 0.0, 1.0, 1.0])
    prior = mp.normal_prior(0, 2)
    full = mp.polya_gamma_gibbs(design, y, prior,
                                ChainConfig(length=200, burnin=10, seed=15))
    thin = mp.polya_gamma_gibbs(design, y, prior,
                                ChainConfig(length=200, burnin=10, seed=15,
                                            thinning=3))
    assert thin.samples.shape == (67, 2)
    assert np.array_equal(thin.samples, full.samples[::3])


def test_pg_gibbs_draws_once_per_sweep(monkeypatch):
    # the benchmark times mcmc.polya_gamma_1 as one PG draw per sweep
    sizes = []
    draw = mcmc.polya_gamma_1
    monkeypatch.setattr(mcmc, "polya_gamma_1",
                        lambda rng, z: sizes.append(np.size(z)) or draw(rng, z))
    design = np.array([[1.0, 0.2], [0.5, 1.0], [-0.3, 1.0]])
    mp.polya_gamma_gibbs(design, np.array([1.0, 0.0, 1.0]),
                         mp.normal_prior(0, 2),
                         ChainConfig(length=40, burnin=10, seed=17,
                                     thinning=3))
    assert sizes == [3] * 50


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


def test_komaki_gibbs_validation_and_determinism():
    cfg = ChainConfig(length=100, burnin=10, seed=14)
    with pytest.raises(InvalidHyperparameter):
        mp.komaki_gibbs(np.array([1.0]), 2, np.array([-1.0]), 2.0, cfg)
    with pytest.raises(InvalidHyperparameter):
        mp.komaki_gibbs(np.array([1.0]), 0, np.array([3.0]), 2.0, cfg)
    with pytest.raises(InvalidHyperparameter):
        mp.komaki_gibbs(np.array([-1.0]), 2, np.array([3.0]), 2.0, cfg)
    c1 = mp.komaki_gibbs(np.array([1.0, 5.0]), 2, np.array([3.0, 3.0]), 5.0, cfg)
    c2 = mp.komaki_gibbs(np.array([1.0, 5.0]), 2, np.array([3.0, 3.0]), 5.0, cfg)
    assert np.array_equal(c1.samples, c2.samples)
    assert c1.samples.shape == (100, 2)
