import copy

import numpy as np
import pytest

import matchprior as mp
from matchprior.errors import SingularFisher, StepTooLarge
from matchprior.geometry import (COND_LIMIT, _invert_metric, alpha_connection,
                                 alpha_parallel_log_grad, central_difference,
                                 equiaffinity_residual, fisher_matrix_grad,
                                 geometry_at, jeffreys_log_density,
                                 jeffreys_log_grad, jeffreys_log_hess)


def _analytic_points(seed=0):
    rng = np.random.default_rng(seed)
    yield mp.GaussianKnownMeanPrecision(), np.array([0.3 + 2 * rng.random()])
    yield mp.PoissonSequence(3), 0.4 + 2 * rng.random(3)
    design = np.column_stack([np.linspace(-1, 1, 12), np.ones(12)])
    yield mp.LogisticGLM(design), rng.normal(size=2)


def test_report_invariants():
    for model, theta in _analytic_points():
        rep = geometry_at(model, theta)
        assert np.allclose(rep.g @ rep.g_inv, np.eye(model.dim), atol=1e-10)
        assert np.allclose(rep.T, rep.gamma_m - rep.gamma_e, atol=1e-12)
        for perm in [(1, 0, 2), (2, 1, 0), (0, 2, 1)]:
            assert np.allclose(rep.T, rep.T.transpose(perm), atol=1e-12)
        # connection symmetry in the first two indices
        assert np.allclose(rep.gamma_e, rep.gamma_e.transpose(1, 0, 2),
                           atol=1e-12)
        assert np.allclose(rep.gamma_m, rep.gamma_m.transpose(1, 0, 2),
                           atol=1e-12)


def test_e_connection_vanishes_in_natural_coordinates():
    model = mp.GaussianKnownMeanPrecision()
    rep = geometry_at(model, np.array([1.1]))
    assert np.max(np.abs(rep.gamma_e)) == 0.0
    design = np.column_stack([np.linspace(-1, 1, 8), np.ones(8)])
    rep2 = geometry_at(mp.LogisticGLM(design), np.array([0.5, -0.2]))
    assert np.max(np.abs(rep2.gamma_e)) == 0.0


def test_m_connection_vanishes_in_mean_coordinates():
    rep = geometry_at(mp.PoissonSequence(2), np.array([0.7, 1.9]))
    assert np.max(np.abs(rep.gamma_m)) == 0.0
    assert np.allclose(rep.gamma_e, -rep.T)


def test_duality_identity_fd():
    rng = np.random.default_rng(1)
    for model, theta in _analytic_points(2):
        rep = geometry_at(model, theta)
        dg = np.zeros((model.dim,) * 3)
        h = 1e-6
        for a in range(model.dim):
            up, dn = theta.copy(), theta.copy()
            up[a] += h
            dn[a] -= h
            dg[a] = (model.fisher(up) - model.fisher(dn)) / (2 * h)
        for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
            lhs = dg
            rhs = (alpha_connection(rep, alpha)
                   + alpha_connection(rep, -alpha).transpose(0, 2, 1))
            assert np.max(np.abs(lhs - rhs)) < 1e-6, (model.name, alpha)
        _ = rng  # keep signature honest


def test_alpha_connection_affine_in_alpha():
    for model, theta in _analytic_points(3):
        rep = geometry_at(model, theta)
        for alpha in (-0.7, 0.2, 0.9):
            lam = 0.5 * (1 - alpha)
            interp = lam * alpha_connection(rep, -1.0) \
                + (1 - lam) * alpha_connection(rep, 1.0)
            assert np.allclose(alpha_connection(rep, alpha), interp, atol=1e-12)


def test_jeffreys_closed_forms():
    gp = mp.GaussianKnownMeanPrecision()
    th = np.array([1.7])
    assert jeffreys_log_grad(gp, th)[0] == pytest.approx(-1.0 / 1.7)
    pois = mp.PoissonRate()
    lam = np.array([2.3])
    assert jeffreys_log_grad(pois, lam)[0] == pytest.approx(-0.5 / 2.3)
    # log density: (1/2) log det g up to a constant
    assert (jeffreys_log_density(pois, np.array([1.0]))
            - jeffreys_log_density(pois, np.array([4.0]))) \
        == pytest.approx(0.5 * np.log(4.0))


def test_zero_parallel_prior_is_jeffreys():
    for model, theta in _analytic_points(4):
        rep = geometry_at(model, theta)
        assert np.allclose(alpha_parallel_log_grad(rep, 0.0),
                           jeffreys_log_grad(model, theta), atol=1e-8)


def test_mflat_prior_ratio_is_squared_jeffreys():
    model = mp.PoissonSequence(2)
    theta = np.array([0.8, 2.5])
    rep = geometry_at(model, theta)
    diff = alpha_parallel_log_grad(rep, 1.0) - alpha_parallel_log_grad(rep, -1.0)
    assert np.allclose(diff, 2.0 * jeffreys_log_grad(model, theta), atol=1e-8)


def test_fisher_matrix_grad_fd_fallback_matches_analytic():
    points = list(_analytic_points(3)) + [
        (mp.MultivariateCauchyLocation(2), np.array([0.4, -1.3]))]
    for model, theta in points:
        analytic = fisher_matrix_grad(model, theta)
        fd = central_difference(model.fisher, theta, 1e-5)
        assert np.max(np.abs(analytic - fd)) < 1e-6 * max(
            1.0, np.max(np.abs(analytic))), model.name
        # a model without an alpha takes the central-difference fallback
        no_alpha = copy.copy(model)
        no_alpha.alpha = None
        assert np.array_equal(fisher_matrix_grad(no_alpha, theta), fd)


def test_monte_carlo_geometry_matches_analytic():
    model = mp.PoissonRate()
    theta = np.array([2.0])
    rep_a = geometry_at(model, theta)
    rep_mc = geometry_at(model, theta, method="mc", seed=7, draws=200_000)
    assert rep_mc.method == "monte-carlo"
    assert np.allclose(rep_mc.gamma_m, rep_mc.gamma_e + rep_mc.T)
    for name, a, b in [("g", rep_a.g, rep_mc.g),
                       ("gamma_e", rep_a.gamma_e, rep_mc.gamma_e),
                       ("T", rep_a.T, rep_mc.T)]:
        se = np.maximum(rep_mc.mc_se[name], 1e-12)
        assert np.all(np.abs(a - b) < 4.0 * se), name


def test_monte_carlo_requires_seed_and_is_reproducible():
    model = mp.MultivariateCauchyLocation(2)
    theta = np.zeros(2)
    with pytest.raises(ValueError):
        geometry_at(model, theta, method="mc")
    with pytest.raises(ValueError, match="method"):
        geometry_at(mp.PoissonRate(), np.array([1.0]), method="analytc", seed=1)
    r1 = geometry_at(model, theta, method="mc", seed=11, draws=20_000)
    r2 = geometry_at(model, theta, method="mc", seed=11, draws=20_000)
    assert np.array_equal(r1.g, r2.g)
    assert np.array_equal(r1.T, r2.T)


def test_equiaffinity_residual_zero_for_flat_families():
    res = equiaffinity_residual(mp.PoissonSequence(2), np.array([1.0, 2.0]),
                                1e-5)
    assert np.max(np.abs(res)) < 1e-6
    with pytest.raises(StepTooLarge):
        equiaffinity_residual(mp.PoissonRate(), np.array([1.0]), 0.0)


def test_singular_fisher_raises():
    design = np.array([[1.0, 1.0], [2.0, 2.0]])  # rank-deficient
    model = mp.LogisticGLM(design)
    with pytest.raises(SingularFisher):
        geometry_at(model, np.zeros(2))
    # slogdet's sign is 0 for the exactly singular metric
    with pytest.raises(SingularFisher):
        jeffreys_log_density(model, np.zeros(2))


def test_invert_metric_spd_only():
    rng = np.random.default_rng(4)
    for d in range(1, 11):
        a = rng.normal(size=(d, d))
        g = a @ a.T + d * np.eye(d)
        ref = np.linalg.inv(g)
        err = np.linalg.norm(_invert_metric(g) - ref) / np.linalg.norm(ref)
        assert err < 1e-13, d
    for bad in (np.array([[1.0, 2.0], [2.0, 1.0]]),
                np.array([[np.nan, 0.0], [0.0, 1.0]]),
                np.diag([1.0, 10.0 * COND_LIMIT])):
        with pytest.raises(SingularFisher):
            _invert_metric(bad)


def test_report_to_dict_keys():
    rep = geometry_at(mp.PoissonRate(), np.array([1.5]))
    d = rep.to_dict()
    assert set(d) == {"g", "g_inv", "gamma_e", "gamma_m", "T", "T_a", "at",
                      "method", "seed"}


def test_jeffreys_log_hess_matches_fd_of_grad():
    rng = np.random.default_rng(21)
    design = rng.normal(size=(40, 3))
    points = list(_analytic_points(5)) + [(mp.LogisticGLM(design),
                                           0.3 * rng.normal(size=3))]
    for model, theta in points:
        assert model.fisher_hess(theta) is not None
        hess = jeffreys_log_hess(model, theta)
        fd = central_difference(lambda th: jeffreys_log_grad(model, th),
                                theta, 1e-5)
        assert np.allclose(hess, hess.T, atol=1e-14)
        assert np.allclose(hess, fd, rtol=1e-6, atol=1e-8), model.name


@pytest.mark.parametrize("theta", [(1.0, 30.0), (1.0, 36.0), (1.0, 38.0),
                                   (1.0, 45.0), (1.0, -45.0)])
def test_logistic_jeffreys_derivatives_hold_in_the_tails(theta):
    # from |eta| ~ 37 the tanh sigmoid rounds p to 0 or 1, so weights formed
    # from p (1 - p) vanish while the log density still moves
    n = 16
    model = mp.LogisticGLM(np.column_stack([np.arange(1, n + 1) / n,
                                            np.ones(n)]))
    theta = np.array(theta)

    def log_density(th):
        return jeffreys_log_density(model, th)

    grad = central_difference(log_density, theta, 1e-3)
    hess = central_difference(
        lambda th: central_difference(log_density, th, 1e-3), theta, 1e-3)
    assert np.abs(grad).max() > 0.4
    assert np.allclose(jeffreys_log_grad(model, theta), grad, rtol=0,
                       atol=1e-9)
    assert np.allclose(jeffreys_log_hess(model, theta), hess, rtol=0,
                       atol=1e-7)


def test_jeffreys_log_hess_fd_fallback_without_fisher_hess():
    class NoHess(mp.PoissonSequence):
        def fisher_hess(self, theta):
            return None

    theta = np.array([1.2, 0.6])
    analytic = jeffreys_log_hess(mp.PoissonSequence(2), theta)
    # log pi_J = -(1/2) sum log lambda, so the Hessian is diag(1/(2 lambda^2))
    assert np.allclose(analytic, np.diag(0.5 / theta**2), rtol=1e-12)
    assert np.allclose(jeffreys_log_hess(NoHess(2), theta), analytic,
                       rtol=1e-6)
