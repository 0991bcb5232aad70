import numpy as np
import pytest

import matchprior as mp
from matchprior.errors import NonFiniteLogDensity, StepTooLarge
from matchprior.models import Observation, check_point, sigmoid


def _fd_grad(model, data, theta, h=1e-5):
    d = model.dim
    out = np.zeros(d)
    for a in range(d):
        up, dn = theta.copy(), theta.copy()
        up[a] += h
        dn[a] -= h
        out[a] = (model.avg_loglik(data, up) - model.avg_loglik(data, dn)) / (2 * h)
    return out


def _fd_hess(model, data, theta, h=1e-5):
    d = model.dim
    out = np.zeros((d, d))
    for a in range(d):
        up, dn = theta.copy(), theta.copy()
        up[a] += h
        dn[a] -= h
        out[a] = (model.avg_grad(data, up) - model.avg_grad(data, dn)) / (2 * h)
    return 0.5 * (out + out.T)


def _cases(seed=0):
    rng = np.random.default_rng(seed)
    out = []
    m = mp.GaussianKnownMeanPrecision()
    out.append((m, m.sample(np.array([1.3]), 25, rng),
                lambda r: np.array([0.2 + 3.0 * r.random()])))
    m = mp.PoissonSequence(3)
    out.append((m, m.sample(np.array([0.5, 2.0, 4.0]), 25, rng),
                lambda r: 0.3 + 3.0 * r.random(3)))
    design = np.column_stack([np.linspace(-1, 1, 25), np.ones(25)])
    m = mp.LogisticGLM(design)
    out.append((m, m.sample(np.array([1.0, -0.3]), 25, rng),
                lambda r: r.normal(size=2)))
    m = mp.MultivariateCauchyLocation(2)
    out.append((m, m.sample(np.zeros(2), 25, rng),
                lambda r: r.normal(size=2)))
    return out


def test_grad_matches_fd():
    rng = np.random.default_rng(1)
    for model, data, draw in _cases():
        for _ in range(100):
            theta = np.atleast_1d(np.asarray(draw(rng), dtype=float))
            g = model.avg_grad(data, theta)
            fd = _fd_grad(model, data, theta)
            assert np.allclose(g, fd, rtol=1e-6, atol=1e-7), model.name


def test_hess_matches_fd_and_symmetry():
    rng = np.random.default_rng(2)
    for model, data, draw in _cases():
        for _ in range(20):
            theta = np.atleast_1d(np.asarray(draw(rng), dtype=float))
            h = model.avg_hess(data, theta)
            assert np.max(np.abs(h - h.T)) < 1e-10
            assert np.allclose(h, _fd_hess(model, data, theta),
                               rtol=1e-5, atol=1e-6), model.name


def test_third_matches_finite_diff():
    rng = np.random.default_rng(3)
    for model, data, draw in _cases():
        theta = np.atleast_1d(np.asarray(draw(rng), dtype=float))
        if model.name.startswith("poisson") or model.name.startswith("gaussian"):
            theta = np.maximum(theta, 0.5)
        t = mp.third_derivative_tensor(model, data, theta)
        fd = mp.finite_diff_third(model, data, theta, 1e-4)
        assert np.max(np.abs(t - fd)) < 1e-5, model.name
        for perm in [(1, 0, 2), (2, 1, 0), (0, 2, 1)]:
            assert np.allclose(t, t.transpose(perm), atol=1e-12)


def test_loglik_closed_values():
    pois = mp.PoissonRate()
    d0 = mp.Dataset(np.array([0.0]))
    assert mp.average_loglik(pois, d0, np.array([1.0])) == pytest.approx(-1.0)

    gauss = mp.GaussianKnownMeanPrecision()
    dg = mp.Dataset(np.array([0.0]))
    assert mp.average_loglik(gauss, dg, np.array([1.0])) == pytest.approx(
        -0.5 * np.log(2 * np.pi))

    design = np.array([[0.7, 1.0]])
    logi = mp.LogisticGLM(design)
    dl = mp.Dataset(np.array([1.0]), design)
    assert mp.average_loglik(logi, dl, np.zeros(2)) == pytest.approx(np.log(0.5))


def test_third_closed_values():
    pois = mp.PoissonRate()
    d = mp.Dataset(np.array([3.0]))
    t = mp.third_derivative_tensor(pois, d, np.array([2.0]))
    assert t[0, 0, 0] == pytest.approx(0.75)

    gauss = mp.GaussianKnownMeanPrecision()
    dg = mp.Dataset(np.array([1.0, -2.0]))
    th = np.array([0.7])
    # natural coordinates: third derivative is data-free
    assert gauss.avg_third(dg, th)[0, 0, 0] == pytest.approx(1.0 / 0.7**3)

    x = 1.4
    beta = np.array([0.6])
    logi = mp.LogisticGLM(np.array([[x]]))
    dl = mp.Dataset(np.array([1.0]), np.array([[x]]))
    p = sigmoid(x * 0.6)
    expect = -x**3 * p * (1 - p) * (1 - 2 * p)
    assert logi.avg_third(dl, beta)[0, 0, 0] == pytest.approx(expect, rel=1e-12)


def test_finite_diff_third_errors():
    pois = mp.PoissonRate()
    d = mp.Dataset(np.array([1.0]))
    with pytest.raises(StepTooLarge):
        mp.finite_diff_third(pois, d, np.array([2.0]), 0.0)
    with pytest.raises(StepTooLarge):
        mp.finite_diff_third(pois, d, np.array([0.001]), 0.01)


def test_natural_family_hessian_is_data_free_fisher():
    gauss = mp.GaussianKnownMeanPrecision()
    rng = np.random.default_rng(4)
    th = np.array([1.7])
    for _ in range(5):
        d = mp.Dataset(rng.normal(size=3))
        assert np.allclose(-gauss.avg_hess(d, th), gauss.fisher(th))


def test_logistic_fisher_is_weighted_design():
    design = np.column_stack([np.linspace(-1, 1, 9), np.ones(9)])
    logi = mp.LogisticGLM(design)
    beta = np.array([0.4, -0.2])
    p = sigmoid(design @ beta)
    w = p * (1 - p)
    expect = (design.T * w) @ design / 9
    assert np.allclose(logi.fisher(beta), expect)
    assert np.all(np.linalg.eigvalsh(logi.fisher(beta)) > 0)


def test_check_point_validation():
    pois = mp.PoissonRate()
    assert check_point(pois, [1.5])[0] == 1.5
    with pytest.raises(ValueError):
        check_point(pois, [1.0, 2.0])
    with pytest.raises(ValueError):
        check_point(pois, [-1.0])
    with pytest.raises(ValueError):
        check_point(pois, [np.nan])
    with pytest.raises(ValueError):
        check_point(pois, [0.0])  # boundary is outside the open support


def test_nonfinite_loglik_raises():
    pois = mp.PoissonRate()
    d = mp.Dataset(np.array([np.inf]))
    with pytest.raises(NonFiniteLogDensity):
        mp.average_loglik(pois, d, np.array([1.0]))


def test_dataset_shapes_and_observations():
    d = mp.Dataset(np.array([1.0, 2.0, 3.0]))
    assert d.responses.shape == (3, 1)
    assert d.n == 3
    obs = d.observation(1)
    assert obs.response[0] == 2.0 and obs.covariates is None

    d2 = mp.Dataset(np.array([0.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert d2.covariates.shape == (2, 2)
    with pytest.raises(ValueError):
        mp.Dataset(np.array([0.0, 1.0]), np.array([[1.0, 2.0]]))

    rebuilt = mp.Dataset.from_observations(
        [d2.observation(0), d2.observation(1)])
    assert np.allclose(rebuilt.responses, d2.responses)
    assert np.allclose(rebuilt.covariates, d2.covariates)


def test_cauchy_sample_and_median_init():
    model = mp.MultivariateCauchyLocation(3)
    rng = np.random.default_rng(5)
    data = model.sample(np.array([1.0, -2.0, 0.5]), 4000, rng)
    init = model.default_init(data)
    assert np.max(np.abs(init - np.array([1.0, -2.0, 0.5]))) < 0.2


def test_cauchy_closed_form_geometry_matches_monte_carlo():
    # g = (d+1)/(d+3) I and T = Gamma^e = 0 check the generic Monte Carlo path
    for d in (1, 3):
        model = mp.MultivariateCauchyLocation(d)
        theta = np.linspace(-1.0, 2.0, d)
        exact = mp.geometry_at(model, theta)
        assert np.array_equal(exact.g, (d + 1) / (d + 3) * np.eye(d))
        assert not exact.T.any() and not exact.gamma_e.any()
        assert not exact.gamma_m.any()
        rep = mp.geometry_at(model, theta, method="mc", seed=8, draws=100_000)
        for name, value in (("g", exact.g), ("gamma_e", 0.0), ("T", 0.0)):
            se = np.maximum(rep.mc_se[name], 1e-12)
            assert np.all(np.abs(getattr(rep, name) - value) < 4.0 * se), name
        prior = mp.normal_prior(0.0, 100.0)
        pair = mp.MatchingPair(prior, prior, "verified-by-residual")
        assert not mp.matching_residual(pair, model, theta).any()
    assert np.array_equal(mp.MultivariateCauchyLocation(10).fisher(np.ones(10)),
                          11 / 13 * np.eye(10))


def test_csv_loaders(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("y,x1,x2\n1,0.5,1\n0,0.7,1\n")
    d = mp.load_dataset_csv(p)
    assert d.responses.shape == (2, 1)
    assert d.covariates.shape == (2, 2)

    p2 = tmp_path / "v.csv"
    p2.write_text("y1,y2\n1,4\n2,5\n")
    d2 = mp.load_dataset_csv(p2)
    assert d2.responses.shape == (2, 2)
    assert d2.covariates is None

    p3 = tmp_path / "bad.csv"
    p3.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        mp.load_dataset_csv(p3)

    p4 = tmp_path / "bank.csv"
    p4.write_text("1.2,0.3,-0.5,0.1,0\n-0.2,1.3,0.5,2.1,1\n")
    d4 = mp.load_banknote_csv(p4)
    assert d4.covariates.shape == (2, 4)
    assert d4.responses.ravel().tolist() == [0.0, 1.0]
    p5 = tmp_path / "bank_bad.csv"
    p5.write_text("1,2,3\n")
    with pytest.raises(ValueError):
        mp.load_banknote_csv(p5)


def test_single_observation_interface_matches_vectorized():
    pois = mp.PoissonSequence(2)
    obs = Observation(np.array([2.0, 0.0]))
    th = np.array([1.5, 0.7])
    d = mp.Dataset(np.array([[2.0, 0.0]]))
    assert pois.log_density(obs, th) == pytest.approx(pois.avg_loglik(d, th))
    assert np.allclose(pois.grad_logp(obs, th), pois.avg_grad(d, th))
    assert np.allclose(pois.hess_logp(obs, th), pois.avg_hess(d, th))
    assert np.allclose(pois.third_logp(obs, th), pois.avg_third(d, th))


def test_gemm_cube_matches_einsum_definition():
    rng = np.random.default_rng(11)
    for n, d in ((1, 1), (40, 2), (300, 5)):
        x = rng.normal(size=(n, d))
        data = mp.Dataset((rng.random(n) < 0.5).astype(float), x)
        model = mp.LogisticGLM(x)
        theta = 0.5 * rng.normal(size=d)
        p = sigmoid(x @ theta)
        w = p * (1 - p) * (1 - 2 * p)
        ref = np.einsum("i,ia,ib,ic->abc", w, x, x, x) / n
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(model.fisher_grad(theta) - ref)) <= 1e-10 * scale
        assert np.max(np.abs(model.avg_third(data, theta) + ref)) <= 1e-10 * scale


def test_cauchy_kernels_d10_match_references():
    rng = np.random.default_rng(12)
    d = 10
    model = mp.MultivariateCauchyLocation(d)
    data = model.sample(np.zeros(d), 30, rng)
    theta = 0.3 * rng.normal(size=d)
    eye = np.eye(d)
    hess_ref = np.zeros((d, d))
    third_ref = np.zeros((d, d, d))
    for y in data.responses:
        # per-observation derivatives of -(d+1)/2 log(1 + |y - theta|^2)
        u = y - theta
        D = 1.0 + u @ u
        hess_ref += (-eye * D + 2.0 * np.outer(u, u)) / D**2
        sym = (np.einsum("ab,c->abc", eye, u) + np.einsum("ac,b->abc", eye, u)
               + np.einsum("bc,a->abc", eye, u))
        third_ref += (-2.0 * sym / D**2
                      + 8.0 * np.einsum("a,b,c->abc", u, u, u) / D**3)
    hess_ref *= (d + 1) / data.n
    third_ref *= (d + 1) / data.n
    hess = model.avg_hess(data, theta)
    third = model.avg_third(data, theta)
    assert np.max(np.abs(hess - hess_ref)) <= 1e-10 * np.max(np.abs(hess_ref))
    assert np.max(np.abs(third - third_ref)) <= 1e-10 * np.max(np.abs(third_ref))
    fd = mp.finite_diff_third(model, data, theta, 1e-4)
    assert np.max(np.abs(third - fd)) < 1e-6


def test_fisher_hess_matches_fd_of_fisher_grad():
    rng = np.random.default_rng(13)
    design = rng.normal(size=(50, 3))
    cases = [(mp.GaussianKnownMeanPrecision(), np.array([1.3])),
             (mp.PoissonSequence(3), np.array([0.5, 2.0, 4.0])),
             (mp.LogisticGLM(design), 0.4 * rng.normal(size=3))]
    for model, theta in cases:
        d = model.dim
        fd = np.zeros((d,) * 4)
        for b in range(d):
            h = 1e-5 * max(1.0, abs(theta[b]))
            up, dn = theta.copy(), theta.copy()
            up[b] += h
            dn[b] -= h
            fd[:, b] = (model.fisher_grad(up) - model.fisher_grad(dn)) / (2 * h)
        d2g = model.fisher_hess(theta)
        assert np.allclose(d2g, fd, rtol=1e-6, atol=1e-8), model.name
        assert np.allclose(d2g, d2g.transpose(1, 0, 2, 3), atol=1e-14)
        assert np.allclose(d2g, d2g.transpose(0, 1, 3, 2), atol=1e-14)
    assert mp.MultivariateCauchyLocation(2).fisher_hess(np.zeros(2)) is None


def _loop_in_support(theta, support):
    return all(lo < v < hi for v, (lo, hi) in zip(theta, support))


def test_vector_support_checks():
    pois = mp.PoissonSequence(3)
    logi = mp.LogisticGLM(np.ones((4, 2)))
    nan, inf = np.nan, np.inf
    for model, points in [
            (pois, [[1.0, 2.0, 3.0], [0.0, 1.0, 1.0], [1.0, 1.0, -1e-300],
                    [1.0, inf, 1.0], [nan, 1.0, 1.0], [5e-324, 1e308, 1.0]]),
            (logi, [[0.0, 0.0], [1e308, -1e308], [inf, 0.0], [0.0, -inf],
                    [nan, 0.0]])]:
        for th in points:
            th = np.array(th)
            assert model.in_support(th) is _loop_in_support(th, model.support)
    assert not pois.in_support(np.ones(2))  # wrong length
    # a prior support has one entry shared by all coordinates, or one each
    one = mp.gamma_prior(2.0, 1.0)
    each = mp.PriorSpec("box", lambda th: 0.0, lambda th: np.zeros(2), False,
                        support=[(0.0, 1.0), (-1.0, inf)])
    for th in ([0.5, 0.5], [1.0, 0.5], [0.5, -1.0], [0.5, inf], [nan, 0.5],
               [1e-300, 1e300]):
        th = np.array(th)
        assert each.contains(th) is _loop_in_support(th, each.support)
        assert one.contains(th) is _loop_in_support(th, one.support * 2)
    assert not each.contains(np.ones(3))
    assert one.contains(np.full(5, 0.1))
    assert not one.contains(np.array([0.1, 0.0, 0.1]))
