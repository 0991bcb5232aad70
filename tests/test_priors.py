import dataclasses

import numpy as np
import pytest

import matchprior as mp
from matchprior.errors import (FamilyMismatch, InvalidHyperparameter,
                               SupportMismatch)
from matchprior.estimators import LogPosterior
from matchprior.geometry import (_invert_metric, central_difference,
                                 fisher_matrix_grad, jeffreys_log_grad,
                                 jeffreys_log_hess)
from matchprior.priors import _target_form, parse_prior


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
    # NaN passes a "<= 0" check and gives NaN log densities
    for make in (lambda: mp.normal_prior(0.0, np.nan),
                 lambda: mp.normal_prior(np.nan, 1.0),
                 lambda: mp.normal_prior(np.inf, 1.0),
                 lambda: mp.normal_prior(0.0, np.inf),
                 lambda: mp.gamma_prior(np.nan, 1.0),
                 lambda: mp.gamma_prior(2.0, np.inf),
                 lambda: mp.invgamma_prior(2.0, np.nan),
                 lambda: mp.komaki_prior([3.0, np.nan], 2.0),
                 lambda: mp.komaki_prior([3.0], np.nan),
                 lambda: mp.komaki_prior([3.0], 2.0, floor=np.nan)):
        with pytest.raises(InvalidHyperparameter):
            make()


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
    with pytest.raises(FamilyMismatch):
        mp.eflat_map_partner(mp.normal_prior(), mp.MultivariateCauchyLocation(1))


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
    # the density by lambda; for a Gaussian precision theta Jeffreys is
    # 1/theta, so the e-flat partner multiplies it by theta
    pm = mp.gamma_prior(2.0, 3.0)
    cases = [(mp.mflat_map_partner(pm, mp.PoissonRate()), np.array([1.7])),
             (mp.mflat_map_partner(pm, mp.PoissonSequence(3)),
              np.array([0.4, 1.7, 3.2])),
             (mp.eflat_map_partner(pm, mp.GaussianKnownMeanPrecision()),
              np.array([1.7]))]
    for partner, th in cases:
        assert np.allclose(partner.log_grad(th), pm.log_grad(th) + 1.0 / th,
                           atol=1e-10)
        assert np.allclose(partner.log_density(th) - partner.log_density(2 * th),
                           pm.log_density(th) - pm.log_density(2 * th)
                           - th.size * np.log(2.0), atol=1e-10)


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
        # log densities agree up to one constant, fixed here at theta0 = 1
        gap = (pair.map.log_density(th) - pair.map.log_density(np.ones(1))
               - direct.log_density(th) + direct.log_density(np.ones(1)))
        assert abs(gap) < 1e-9
    with pytest.raises(FamilyMismatch):
        mp.matching_pair_1d(pm, mp.PoissonSequence(2), 1.0)


def test_target_form_is_alpha_affine_contraction():
    # Gamma^e = -((1 - alpha)/2) T and d log pi_J = (alpha/2) T_a, so
    # omega = ((3 alpha - 1)/4) T_a in alpha-affine coordinates
    design = np.column_stack([np.linspace(-1.0, 2.0, 7), np.ones(7)])
    cases = [(mp.PoissonRate(), [np.array([0.3]), np.array([1.5])]),
             (mp.GaussianKnownMeanPrecision(), [np.array([0.7]),
                                                np.array([4.0])]),
             (mp.LogisticGLM(design), [np.zeros(2), np.array([0.8, -1.3])])]
    for model, points in cases:
        for th in points:
            rep = mp.geometry_at(model, th)
            expect = 0.25 * (3.0 * model.alpha - 1.0) * rep.T_contracted
            got = _target_form(model, th)
            assert np.all(np.abs(got - expect) <= 1e-14 * np.abs(expect)), \
                (model.name, th, got, expect)


def test_target_form_evaluates_the_model_once(monkeypatch):
    model = mp.LogisticGLM(np.column_stack([np.linspace(-2.0, 2.0, 9),
                                            np.ones(9)]))
    calls = {"fisher": 0, "skewness": 0}
    for name in calls:
        method = getattr(model, name)

        def counted(theta, name=name, method=method):
            calls[name] += 1
            return method(theta)

        monkeypatch.setattr(model, name, counted)
    _target_form(model, np.array([0.4, -0.2]))
    assert calls == {"fisher": 1, "skewness": 1}


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
    # "*coords" is gone: on this model it is the m-flat partner /jeffreys2
    times_coords = parse_prior("gamma(2,3)/jeffreys2", model)
    th = np.array([0.9, 2.1])
    assert np.allclose(times_coords.log_grad(th),
                       mp.gamma_prior(2, 3).log_grad(th) + 1.0 / th, atol=1e-12)
    assert parse_prior("invgamma(2,3)").label == "invgamma(2,3)"
    with pytest.raises(ValueError):
        parse_prior("gamma(2,3)*coords", model)
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
    # the Jeffreys prior itself (Firth's penalty) has a closed-form Hessian
    for model, th in ((mp.LogisticGLM(design), np.array([0.3, -0.7])),
                      (mp.PoissonSequence(2), np.array([0.9, 2.1]))):
        firth = mp.jeffreys_prior(model)
        assert np.array_equal(firth.log_hess(th), jeffreys_log_hess(model, th))
        assert np.allclose(firth.log_hess(th), _fd_hess(firth, th), rtol=1e-6,
                           atol=1e-6)
    # a prior without a closed-form Hessian gives a partner without one
    flat = mp.eflat_map_partner(
        dataclasses.replace(mp.gamma_prior(2.0, 1.0), log_hess=None),
        mp.GaussianKnownMeanPrecision())
    assert flat.log_hess is None
    with pytest.raises(ValueError):
        mp.jeffreys_power_partner(mp.gamma_prior(2.0, 1.0), mp.PoissonRate(), 3)
    with pytest.raises(FamilyMismatch):
        mp.jeffreys_power_partner(mp.gamma_prior(2.0, 1.0), mp.PoissonRate(), 1)


# ---------------------------------------------------------------------------
# the Jeffreys prior's one-point memo


def _fresh_jeffreys(model, theta):
    """log pi_J, its gradient and Hessian, each from its own g, g^{-1} and
    dg, as the free functions formed them before the per-point record."""
    g = model.fisher(theta)
    value = 0.5 * np.linalg.slogdet(g)[1]

    def grad(th):
        return 0.5 * np.einsum("bc,abc->a", _invert_metric(model.fisher(th)),
                               fisher_matrix_grad(model, th))

    d2g = model.fisher_hess(theta)
    if d2g is None:
        out = central_difference(grad, theta, 1e-6, model.in_support)
        hess = 0.5 * (out + out.T)
    else:
        g_inv = _invert_metric(model.fisher(theta))
        a = g_inv @ fisher_matrix_grad(model, theta)
        hess = 0.5 * (np.tensordot(d2g, g_inv, axes=([2, 3], [0, 1]))
                      - np.einsum("aij,bji->ab", a, a))
        hess = 0.5 * (hess + hess.T)
    return value, grad(theta), hess


class _NoFisherHess(mp.PoissonSequence):
    def fisher_hess(self, theta):
        return None


_X = np.column_stack([np.linspace(-1.5, 1.5, 11), np.ones(11)])
_MEMO_CASES = {
    "logistic": (lambda: mp.LogisticGLM(_X), lambda r: r.normal(size=2)),
    "poisson-seq-3": (lambda: mp.PoissonSequence(3),
                      lambda r: r.uniform(0.3, 4.0, 3)),
    "gaussian-precision": (mp.GaussianKnownMeanPrecision,
                           lambda r: r.uniform(0.3, 4.0, 1)),
    "no-fisher-hess": (lambda: _NoFisherHess(2),
                       lambda r: r.uniform(0.3, 4.0, 2)),
}


@pytest.mark.parametrize("case", sorted(_MEMO_CASES))
def test_jeffreys_prior_memo_matches_fresh_evaluation(case):
    make, draw = _MEMO_CASES[case]
    rng = np.random.default_rng(31)
    prior = mp.jeffreys_prior(make())
    p0, p1, p2 = (draw(rng) for _ in range(3))
    orders = [("log_density", "log_grad", "log_hess"),
              ("log_hess", "log_density", "log_grad"),
              ("log_grad", "log_hess", "log_density")]
    buf = p2.copy()
    # repeats, alternations, then one array the caller changes in place
    steps = [p0, p0, p1, p0, p1, p1, p2, buf, (0, 1.25), buf, (-1, 0.5), buf,
             (slice(None), p0), buf]
    for i, step in enumerate(steps):
        if isinstance(step, tuple):
            where, value = step
            if isinstance(where, slice):
                buf[where] = value
            else:
                buf[where] *= value
            continue
        want = dict(zip(("log_density", "log_grad", "log_hess"),
                        _fresh_jeffreys(make(), step.copy())))
        for name in orders[i % 3]:
            got = getattr(prior, name)(step)
            assert np.array_equal(got, want[name]), (case, i, name)


def test_eflat_partner_map_forms_the_fisher_metric_once_per_point(monkeypatch):
    n = 64
    design = np.column_stack([np.arange(1, n + 1) / n, np.ones(n)])
    model = mp.LogisticGLM(design)
    data = model.sample(np.array([1.0, -0.3]), n, np.random.default_rng(4))
    fisher_at, asked = [], set()
    fisher = mp.LogisticGLM.fisher
    monkeypatch.setattr(mp.LogisticGLM, "fisher", lambda self, th: (
        fisher_at.append(th.tobytes()) or fisher(self, th)))
    for name in ("value", "grad", "hess"):
        method = getattr(LogPosterior, name)
        monkeypatch.setattr(LogPosterior, name,
                            lambda self, th, method=method: (
                                asked.add(th.tobytes()) or method(self, th)))
    res = mp.map_estimate(model, data,
                          mp.eflat_map_partner(mp.normal_prior(0, 1), model))
    assert res.diagnostics["converged"] and res.diagnostics["iterations"] >= 3
    assert len(fisher_at) == len(set(fisher_at)) == len(asked)
