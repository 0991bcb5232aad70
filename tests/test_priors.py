import numpy as np
import pytest

import matchprior as mp
from matchprior.errors import (FamilyMismatch, InvalidHyperparameter,
                               SupportMismatch)
from matchprior.geometry import GeometryReport, jeffreys_log_grad
from matchprior.priors import alpha_pair_target_grad, parse_prior


def _fd_grad(prior, theta, h=1e-6):
    d = theta.shape[0]
    out = np.zeros(d)
    for a in range(d):
        up, dn = theta.copy(), theta.copy()
        up[a] += h
        dn[a] -= h
        out[a] = (prior.log_density(up) - prior.log_density(dn)) / (2 * h)
    return out


def test_catalog_gradients_match_fd():
    rng = np.random.default_rng(0)
    priors = [mp.normal_prior(0.5, 2.0), mp.gamma_prior(2.0, 1.5),
              mp.invgamma_prior(3.0, 0.7),
              mp.komaki_prior(np.array([3.0, 2.0, 4.0]), 5.0)]
    for prior in priors:
        for _ in range(20):
            d = 3 if prior.label.startswith("komaki") else 1
            theta = 0.3 + 2.0 * rng.random(d)
            g = prior.log_grad(theta)
            assert np.allclose(g, _fd_grad(prior, theta), rtol=1e-5,
                               atol=1e-6), prior.label
            if prior.log_hess is not None:
                h = prior.log_hess(theta)
                fd = np.column_stack([
                    (prior.log_grad(theta + e) - prior.log_grad(theta - e))
                    / (2e-6)
                    for e in np.eye(d) * 1e-6]).T
                assert np.allclose(h, fd, rtol=1e-4, atol=1e-5), prior.label


def test_hyperparameter_validation():
    with pytest.raises(InvalidHyperparameter):
        mp.normal_prior(0.0, -1.0)
    with pytest.raises(InvalidHyperparameter):
        mp.gamma_prior(0.0, 1.0)
    with pytest.raises(InvalidHyperparameter):
        mp.invgamma_prior(1.0, -2.0)
    with pytest.raises(InvalidHyperparameter):
        mp.komaki_prior([3.0, -1.0], 2.0)
    with pytest.raises(InvalidHyperparameter):
        mp.komaki_prior([3.0], 0.0)
    with pytest.raises(InvalidHyperparameter):
        mp.komaki_prior([3.0], 2.0, floor=-1e-3)


def test_support_and_contains():
    g = mp.gamma_prior(2.0, 1.0)
    assert g.contains(np.array([0.5]))
    assert not g.contains(np.array([-0.5]))
    assert not g.contains(np.array([0.0]))
    k = mp.komaki_prior(np.full(2, 3.0), 5.0, floor=1e-3)
    # the floor is an optimizer bound, not a support restriction
    assert k.contains(np.array([1e-3, 1.0]))
    assert np.allclose(k.opt_lower, 1e-3)


def test_eflat_partner_gradient():
    model = mp.GaussianKnownMeanPrecision()
    pm = mp.gamma_prior(2.0, 1.0)
    partner = mp.eflat_map_partner(pm, model)
    th = np.array([1.4])
    assert partner.label.endswith("/jeffreys")
    assert np.allclose(partner.log_grad(th),
                       pm.log_grad(th) - jeffreys_log_grad(model, th))
    with pytest.raises(FamilyMismatch):
        mp.eflat_map_partner(pm, mp.PoissonRate())


def test_mflat_partners_are_inverses():
    model = mp.PoissonSequence(2)
    pm = mp.gamma_prior(2.0, 1.0)
    down = mp.mflat_map_partner(pm, model)
    back = mp.mflat_pm_partner(down, model)
    th = np.array([0.9, 2.1])
    assert np.allclose(back.log_grad(th), pm.log_grad(th), atol=1e-10)
    with pytest.raises(FamilyMismatch):
        mp.mflat_map_partner(pm, mp.GaussianKnownMeanPrecision())
    with pytest.raises(FamilyMismatch):
        mp.mflat_pm_partner(pm, mp.GaussianKnownMeanPrecision())


def test_mflat_partner_poisson_is_coordinate_multiplication():
    # Jeffreys^2 for a Poisson rate is 1/lambda, so dividing by it multiplies
    # the density by lambda
    model = mp.PoissonRate()
    pm = mp.gamma_prior(2.0, 3.0)
    partner = mp.mflat_map_partner(pm, model)
    mult = mp.coords_multiplied(pm)
    th = np.array([1.7])
    assert np.allclose(partner.log_grad(th), mult.log_grad(th), atol=1e-10)


def test_matching_residual_zero_for_constructed_pairs():
    rng = np.random.default_rng(1)
    model = mp.PoissonSequence(3)
    pm = mp.gamma_prior(2.0, 1.0)
    pair = mp.MatchingPair(pm, mp.mflat_map_partner(pm, model), "m-flat")
    for _ in range(10):
        th = 0.3 + 3.0 * rng.random(3)
        assert np.max(np.abs(mp.matching_residual(pair, model, th))) < 1e-8


def test_matching_residual_support_mismatch():
    model = mp.PoissonRate()
    pm = mp.gamma_prior(2.0, 1.0)
    pair = mp.MatchingPair(pm, mp.mflat_map_partner(pm, model), "m-flat")
    with pytest.raises(SupportMismatch):
        mp.matching_residual(pair, model, np.array([-1.0]))


def test_moment_matching_uniform_map_reduces_residual():
    # with a uniform MAP prior the condition reduces to the posterior-mean
    # prior alone; for a Poisson rate the solution is pm proportional to
    # 1/lambda (Jeffreys times exp of the e-connection integral)
    model = mp.PoissonRate()
    pm = mp.PriorSpec("inv", lambda th: float(-np.log(th[0])),
                      lambda th: np.array([-1.0 / th[0]]), False,
                      support=[(0.0, np.inf)])
    pair = mp.MatchingPair(pm, mp.uniform_prior(), "moment-matching")
    for lam in (0.4, 1.0, 3.7):
        assert abs(mp.matching_residual(pair, model, np.array([lam]))[0]) < 1e-10


def test_matching_pair_1d_quadrature_reproduces_eflat():
    model = mp.GaussianKnownMeanPrecision()
    pm = mp.gamma_prior(2.0, 1.0)
    pair = mp.matching_pair_1d(pm, model, theta0=1.0)
    direct = mp.eflat_map_partner(pm, model)
    for t in (0.5, 1.0, 2.5):
        th = np.array([t])
        assert np.allclose(pair.map.log_grad(th), direct.log_grad(th),
                           atol=1e-8)
        assert abs(mp.matching_residual(pair, model, th)[0]) < 1e-8
    with pytest.raises(FamilyMismatch):
        mp.matching_pair_1d(pm, mp.PoissonSequence(2), 1.0)


def test_alpha_pair_target_grad_flat_cases():
    model = mp.PoissonRate()
    th = np.array([1.5])
    rep = mp.geometry_at(model, th)
    # alpha = -1 (m-flat): target is Jeffreys + T_a/2 = grad log pi_J^2 here
    target = alpha_pair_target_grad(rep, -1.0)
    assert target[0] == pytest.approx(
        jeffreys_log_grad(model, th)[0] - 0.5 * rep.T_contracted[0])
    # alpha = 1 (e-flat): target equals the Jeffreys gradient
    lam = 1.5
    rep_e = GeometryReport(
        g=np.array([[1 / lam]]), g_inv=np.array([[lam]]),
        gamma_e=np.zeros((1, 1, 1)),
        gamma_m=np.array([[[1 / lam**2]]]), T=np.array([[[1 / lam**2]]]),
        T_contracted=np.array([1 / lam]), at=th)
    assert alpha_pair_target_grad(rep_e, 1.0)[0] == pytest.approx(
        0.5 / lam)


def test_parse_prior_grammar():
    model = mp.PoissonSequence(2)
    assert parse_prior("uniform").label == "uniform"
    assert parse_prior("normal(0,2)").log_hess(np.zeros(2))[0, 0] == -0.5
    assert parse_prior("gamma(2,3)", model).label == "gamma(2,3)"
    assert parse_prior("jeffreys", model).label == "jeffreys"
    k = parse_prior("komaki(3,5,0.001)", model)
    assert np.allclose(k.opt_lower, 1e-3)
    assert parse_prior("gamma(2,3)/jeffreys2", model).label.endswith("/jeffreys2")
    gm = mp.GaussianKnownMeanPrecision()
    assert parse_prior("gamma(2,3)/jeffreys", gm).label.endswith("/jeffreys")
    assert parse_prior("gamma(2,3)*coords", model).label.endswith("*coords")
    with pytest.raises(ValueError):
        parse_prior("nonsense(1)")
    with pytest.raises(ValueError):
        parse_prior("jeffreys")  # needs a model
    with pytest.raises(ValueError):
        parse_prior("komaki(3,5)")  # needs a model for the dimension


def _fd_hess(prior, theta, h=1e-6):
    d = theta.shape[0]
    out = np.zeros((d, d))
    for a in range(d):
        up, dn = theta.copy(), theta.copy()
        up[a] += h
        dn[a] -= h
        out[a] = (prior.log_grad(up) - prior.log_grad(dn)) / (2 * h)
    return 0.5 * (out + out.T)


def test_jeffreys_power_partner_aliases_and_closed_form_hessian():
    design = np.column_stack([np.linspace(-1, 1, 30), np.ones(30)])
    cases = [(mp.GaussianKnownMeanPrecision(), mp.gamma_prior(2.0, 1.0), -1,
              mp.eflat_map_partner, np.array([1.4])),
             (mp.LogisticGLM(design), mp.normal_prior(0.0, 1.0), -1,
              mp.eflat_map_partner, np.array([0.3, -0.7])),
             (mp.PoissonSequence(2), mp.gamma_prior(2.0, 1.0), -2,
              mp.mflat_map_partner, np.array([0.9, 2.1])),
             (mp.PoissonSequence(2), mp.gamma_prior(2.0, 1.0), 2,
              mp.mflat_pm_partner, np.array([0.9, 2.1]))]
    for model, prior, power, alias, th in cases:
        partner = mp.jeffreys_power_partner(prior, model, power)
        via_alias = alias(prior, model)
        assert via_alias.label == partner.label
        assert np.array_equal(via_alias.log_grad(th), partner.log_grad(th))
        assert np.array_equal(via_alias.log_hess(th), partner.log_hess(th))
        assert np.allclose(partner.log_grad(th), prior.log_grad(th)
                           + power * jeffreys_log_grad(model, th))
        fd = _fd_hess(partner, th)
        assert np.allclose(partner.log_hess(th), fd, rtol=1e-6, atol=1e-6), \
            partner.label
    # a prior without a closed-form Hessian gives a partner without one
    flat = mp.eflat_map_partner(mp.coords_multiplied(mp.gamma_prior(2.0, 1.0)),
                                mp.GaussianKnownMeanPrecision())
    assert flat.log_hess is None
    with pytest.raises(ValueError):
        mp.jeffreys_power_partner(mp.gamma_prior(2.0, 1.0), mp.PoissonRate(), 3)
    with pytest.raises(FamilyMismatch):
        mp.jeffreys_power_partner(mp.gamma_prior(2.0, 1.0), mp.PoissonRate(), 1)
