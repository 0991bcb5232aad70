import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from click.testing import CliRunner
from scipy.special import gammaln

import matchprior as mp
from matchprior.cli import main
from matchprior.errors import NonFiniteInput, StepTooLarge
from matchprior import models
from matchprior.models import check_point, sigmoid, softplus


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
    assert pois.avg_loglik(d0, np.array([1.0])) == pytest.approx(-1.0)

    gauss = mp.GaussianKnownMeanPrecision()
    dg = mp.Dataset(np.array([0.0]))
    assert gauss.avg_loglik(dg, np.array([1.0])) == pytest.approx(
        -0.5 * np.log(2 * np.pi))

    design = np.array([[0.7, 1.0]])
    logi = mp.LogisticGLM(design)
    dl = mp.Dataset(np.array([1.0]), design)
    assert logi.avg_loglik(dl, np.zeros(2)) == pytest.approx(np.log(0.5))
    # without covariates the stored design is used, if its rows match
    theta = np.array([0.4, -0.2])
    assert logi.avg_loglik(mp.Dataset(np.array([1.0])), theta) \
        == logi.avg_loglik(dl, theta)
    with pytest.raises(ValueError, match="must match the stored design"):
        logi.avg_loglik(mp.Dataset(np.array([1.0, 0.0])), theta)


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


def test_model_dimension_is_an_integer_of_at_least_one():
    for build, dim in ((mp.PoissonSequence, 0), (mp.PoissonSequence, 2.5),
                       (mp.PoissonSequence, True),
                       (mp.MultivariateCauchyLocation, 0),
                       (mp.MultivariateCauchyLocation, -1),
                       (mp.LogisticGLM, np.zeros((5, 0)))):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            build(dim)
    assert mp.PoissonSequence(np.int64(3)).dim == 3


def test_nonfinite_data_raises(tmp_path):
    y, x = np.array([0.0, 1.0]), np.ones((2, 2))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteInput, match="responses"):
            mp.Dataset(np.array([1.0, bad]), x)
        x_bad = x.copy()
        x_bad[1, 0] = bad
        with pytest.raises(NonFiniteInput, match="covariates"):
            mp.Dataset(y, x_bad)
    # from a CSV, the command line reports it as a library error
    runner = CliRunner()
    for value, args in (("inf", ["--method", "map", "--prior", "gamma(2,1)"]),
                        ("nan", ["--method", "mle"])):
        path = tmp_path / f"{value}.csv"
        path.write_text(f"y\n1\n{value}\n")
        res = runner.invoke(main, ["estimate", "--model", "poisson", *args,
                                   "--data", str(path)])
        assert res.exit_code == 1, res.output
        assert "Error: NonFiniteInput: " in res.output


def test_dataset_shapes():
    d = mp.Dataset(np.array([1.0, 2.0, 3.0]))
    assert d.responses.shape == (3, 1)
    assert d.n == 3

    d2 = mp.Dataset(np.array([0.0, 1.0]), np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert d2.covariates.shape == (2, 2)
    with pytest.raises(ValueError):
        mp.Dataset(np.array([0.0, 1.0]), np.array([[1.0, 2.0]]))


def test_gaussian_precision_rejects_a_second_response_column():
    # the model reads one column; a second must not be dropped in silence
    model = mp.GaussianKnownMeanPrecision()
    wide = mp.Dataset([[1.0, 100.0], [2.0, 300.0]])
    theta = np.array([0.5])
    match = "gaussian-precision takes 1 response column, got 2"
    for call in (lambda: model.avg_loglik(wide, theta),
                 lambda: model.avg_grad(wide, theta),
                 lambda: model.per_obs_score_hess(wide, theta),
                 lambda: model.default_init(wide),
                 lambda: mp.map_estimate(model, wide, mp.gamma_prior(2, 1))):
        with pytest.raises(ValueError, match=match):
            call()
    # the first column alone is still read as before
    res = mp.map_estimate(model, mp.Dataset([1.0, 2.0]), mp.gamma_prior(2, 1))
    assert res.point[0] == pytest.approx(4.0 / 7.0, rel=1e-10)


def test_dataset_arrays_are_read_only_views():
    y = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = np.ones((2, 3))
    data = mp.Dataset(y, x)
    for arr in (data.responses, data.covariates):
        with pytest.raises(ValueError):
            arr[0, 0] = 9.0
    with pytest.raises(AttributeError):
        data.responses = np.zeros((2, 2))
    y[0, 0] = 5.0
    x[0, 0] = 5.0
    assert y[0, 0] == 5.0 and x[0, 0] == 5.0


def test_caller_writes_after_construction_reach_no_model():
    # a later write to the caller's array once mixed a cached statistic
    # with the written entry, and the logistic memo's weights with a new design
    y = np.array([1.0, 2.0, 3.0])
    data = mp.Dataset(y)
    assert data.response_mean[0] == 2.0
    y[0] = 10.0
    assert data.responses[0, 0] == 1.0 and data.response_mean[0] == 2.0
    x = np.column_stack([np.linspace(-1.0, 1.0, 5), np.ones(5)])
    theta = np.array([0.3, -0.2])
    model = mp.LogisticGLM(x)
    first = model.fisher(theta)
    fresh = mp.LogisticGLM(x.copy())
    x[0, 0] = 5.0
    assert np.array_equal(model.fisher(theta), first)
    assert np.array_equal(fresh.fisher(theta), first)


def test_logistic_memo_two_designs_match_fresh_instances():
    # one model, two datasets with their own covariates and the stored
    # design, asked in turn at repeated, alternating and reused points
    rng = np.random.default_rng(17)
    design = np.column_stack([rng.normal(size=9), np.ones(9)])
    sets = [mp.Dataset(rng.integers(0, 2, size=9).astype(float),
                       np.column_stack([rng.normal(size=9), np.ones(9)]))
            for _ in range(2)]
    model = mp.LogisticGLM(design)
    p0, p1 = rng.normal(size=2), rng.normal(size=2)
    buf = p0.copy()
    avg = ("avg_loglik", "avg_grad", "avg_hess", "avg_third")
    geo = ("fisher", "skewness", "fisher_hess")
    for k, theta in enumerate([p0, p0, p1, p0, p1, buf, buf, buf]):
        if k == 6:
            buf[1] += 0.5
        for j, data in enumerate(sets * 2):
            for name in avg[j:] + geo + avg[:j]:
                fresh = mp.LogisticGLM(design)
                args = (theta,) if name in geo else (data, theta)
                assert np.array_equal(getattr(model, name)(*args),
                                      getattr(fresh, name)(*args)), (k, name)


def test_shared_memos_stay_exact_under_thread_switching():
    # eight threads share one logistic model and its Jeffreys prior, each
    # walking the points in its own order; a memo entry read under another
    # point's key would show as a wrong value
    rng = np.random.default_rng(5)
    design = np.column_stack([rng.normal(size=40), np.ones(40)])
    data = mp.Dataset(rng.integers(0, 2, size=40).astype(float), design)
    model = mp.LogisticGLM(design)
    prior = mp.jeffreys_prior(model)
    points = [rng.normal(size=2) for _ in range(5)]

    def evaluate(m, p, th):
        return (m.avg_grad(data, th), m.avg_hess(data, th), m.fisher(th),
                p.log_grad(th), p.log_hess(th))

    want = []
    for th in points:
        fresh = mp.LogisticGLM(design)
        want.append(evaluate(fresh, mp.jeffreys_prior(fresh), th))
    wrong = []

    def work(k):
        for r in range(150):
            i = (k * r + r) % len(points)
            got = evaluate(model, prior, points[i])
            if not all(np.array_equal(a, b) for a, b in zip(got, want[i])):
                wrong.append((k, r))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_logistic_design_is_read_like_dataset_arrays():
    x = np.column_stack([np.linspace(-1.0, 1.0, 5), np.ones(5)])
    model = mp.LogisticGLM(x)
    with pytest.raises(ValueError):
        model.design[0, 0] = 9.0
    x[0, 0] = 5.0  # the caller's array stays writable
    bad = x.copy()
    bad[2, 0] = np.nan
    with pytest.raises(NonFiniteInput):
        mp.LogisticGLM(bad)


def _layouts(arr):
    """arr row-major, column-major and as a non-contiguous view."""
    wide = np.zeros((arr.shape[0], 2 * arr.shape[1]))
    wide[:, ::2] = arr
    return (np.ascontiguousarray(arr), np.asfortranarray(arr), wide[:, ::2])


def test_evaluators_agree_across_caller_layouts():
    # every 2-D array is copied column-major, whatever layout the caller hands
    rng = np.random.default_rng(23)
    n = 40
    x = np.column_stack([rng.normal(size=n), np.ones(n)])
    y_bin = (rng.random(n) < 0.5).astype(float)[:, None]
    cases = [(lambda _: mp.GaussianKnownMeanPrecision(), rng.normal(size=(n, 1)),
              None, np.array([1.3])),
             (lambda _: mp.PoissonSequence(3), rng.poisson(2.0, (n, 3)) + 0.0,
              None, np.array([0.5, 2.0, 4.0])),
             (lambda _: mp.MultivariateCauchyLocation(3),
              rng.standard_cauchy((n, 3)), None, np.array([0.1, -0.2, 0.3])),
             (mp.LogisticGLM, y_bin, x, np.array([0.8, -0.3]))]
    avg = ("avg_loglik", "avg_grad", "avg_hess", "avg_third")
    for make, y, cov, theta in cases:
        outs = []
        for k, ys in enumerate(_layouts(y)):
            xs = None if cov is None else _layouts(cov)[k]
            model = make(xs)
            data = mp.Dataset(ys, xs)
            assert data.responses.flags.f_contiguous
            outs.append([np.asarray(getattr(model, m)(data, theta)) for m in avg]
                        + [model.fisher(theta), model.skewness(theta)])
        for got in outs[1:]:
            for a, b in zip(outs[0], got):
                scale = max(np.max(np.abs(a)), 1e-300)
                assert np.max(np.abs(a - b)) <= 1e-13 * scale, model.name


def test_logistic_canonical_identities_hold_exactly_on_the_design():
    # the canonical link: observed information = Fisher metric and
    # -l''' = skewness, both read from one record of the design
    rng = np.random.default_rng(31)
    n = 64
    x = np.column_stack([rng.normal(size=n), np.ones(n)])
    y = (rng.random(n) < 0.5).astype(float)
    model = mp.LogisticGLM(x)
    for cov in (x, x.copy(), None):
        data = mp.Dataset(y, cov)
        for theta in (np.array([0.4, -1.1]), np.array([45.0, -2.0])):
            assert np.array_equal(model.avg_hess(data, theta),
                                  -model.fisher(theta))
            assert np.array_equal(model.avg_third(data, theta),
                                  -model.skewness(theta))
    assert model.design.flags.f_contiguous and model.design.T.flags.c_contiguous


def test_logistic_model_is_freed_when_its_last_reference_goes():
    # records share the design's outer product without pointing back to the
    # model: a cycle would hold the design, its outer product and the last
    # record until the cycle collector ran
    n = 200
    design = np.column_stack([np.arange(1, n + 1) / n, np.ones(n)])
    model = mp.LogisticGLM(design)
    data = model.sample(np.array([1.0, -0.3]), n, np.random.default_rng(3))
    res = mp.map_estimate(model, data,
                          mp.eflat_map_partner(mp.normal_prior(0, 1), model))
    mp.calibrate_pm_from_map(model, data, res.point)
    model.avg_third(mp.Dataset(data.responses, -design), res.point)
    ref = weakref.ref(model)
    gc.disable()
    try:
        del model
        assert ref() is None
    finally:
        gc.enable()


def test_cauchy_log_constant_is_formed_at_construction(monkeypatch):
    model = mp.MultivariateCauchyLocation(3)
    assert model._log_const == gammaln(2.0) - gammaln(0.5) - 3 * np.log(np.pi)
    data = model.sample(np.zeros(3), 20, np.random.default_rng(2))
    want = model.avg_loglik(data, np.zeros(3))

    def no_gammaln(*args):
        raise AssertionError("gammaln called per evaluation")
    monkeypatch.setattr(models, "gammaln", no_gammaln)
    assert model.avg_loglik(data, np.zeros(3)) == want


def test_softplus_matches_logaddexp():
    eta = np.concatenate([np.linspace(-800.0, 800.0, 16001),
                          [0.0, 40.0, -40.0, -0.0]])
    out = softplus(eta)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, np.logaddexp(0.0, eta), rtol=1e-15, atol=0)


def _shrinkage_counts(d, n, seed):
    lam = np.full(d, 2.0)
    lam[::2] = 0.001
    counts = np.random.default_rng(seed).poisson(lam * n).astype(float)
    return np.tile(counts / n, (n, 1))


def _count_datasets():
    rng = np.random.default_rng(21)
    return [rng.poisson(3.0, size=(40, 1)).astype(float),
            rng.poisson(3.0, size=(40, 100)).astype(float),
            _shrinkage_counts(1, 10, 22), _shrinkage_counts(100, 10, 23)]


def test_cached_statistics_match_per_element_formulas():
    rng = np.random.default_rng(24)
    gauss = mp.GaussianKnownMeanPrecision()
    for y in _count_datasets():
        d = y.shape[1]
        model, data = mp.PoissonSequence(d), mp.Dataset(y)
        lam = 0.5 + 3.0 * rng.random(d)
        ll = np.mean(np.sum(y * np.log(lam) - lam - gammaln(y + 1.0), axis=1))
        close = dict(rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(model.avg_loglik(data, lam), ll, **close)
        np.testing.assert_allclose(model.avg_grad(data, lam),
                                   np.mean(y / lam - 1.0, axis=0), **close)
        np.testing.assert_allclose(np.diag(model.avg_hess(data, lam)),
                                   np.mean(-y / lam**2, axis=0), **close)
        t3 = model.avg_third(data, lam)
        idx = np.arange(d)
        np.testing.assert_allclose(t3[idx, idx, idx],
                                   np.mean(2.0 * y / lam**3, axis=0), **close)
        t3[idx, idx, idx] = 0.0
        assert not np.any(t3)
        np.testing.assert_allclose(model.default_init(data),
                                   np.maximum(np.mean(y, axis=0), 0.1), **close)
        if d == 1:
            th = lam
            np.testing.assert_allclose(
                gauss.avg_loglik(data, th),
                np.mean(0.5 * np.log(th) - 0.5 * th * y**2
                        - 0.5 * np.log(2 * np.pi)), **close)
            np.testing.assert_allclose(gauss.avg_grad(data, th),
                                       np.mean(0.5 / th - 0.5 * y**2, axis=0),
                                       **close)


def test_log_factorial_is_computed_once_per_dataset(monkeypatch):
    calls = []
    monkeypatch.setattr(models, "gammaln",
                        lambda v: calls.append(1) or gammaln(v))
    for y in _count_datasets():
        model, data = mp.PoissonSequence(y.shape[1]), mp.Dataset(y)
        calls.clear()
        first = model.avg_loglik(data, np.full(y.shape[1], 1.5))
        for lam in (0.5, 1.5, 4.0):
            model.avg_loglik(data, np.full(y.shape[1], lam))
        assert len(calls) == 1
        assert model.avg_loglik(data, np.full(y.shape[1], 1.5)) == first
        model.avg_loglik(mp.Dataset(y), np.full(y.shape[1], 1.5))
        assert len(calls) == 2


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


@pytest.mark.parametrize("case", range(4), ids=["gaussian-precision",
                                                 "poisson-seq-3", "logistic-2",
                                                 "cauchy-2"])
def test_per_obs_score_hess_rows_are_one_row_averages(case):
    model, data, draw = _cases()[case]
    theta = np.atleast_1d(draw(np.random.default_rng(6)))
    score, hess = model.per_obs_score_hess(data, theta)
    assert score.shape == (data.n, model.dim)
    assert hess.shape == (data.n, model.dim, model.dim)
    close = dict(rtol=1e-13, atol=1e-13)
    for t in range(data.n):
        cov = None if data.covariates is None else data.covariates[t:t + 1]
        row = mp.Dataset(data.responses[t:t + 1], cov)
        np.testing.assert_allclose(score[t], model.avg_grad(row, theta), **close)
        np.testing.assert_allclose(hess[t], model.avg_hess(row, theta), **close)
    np.testing.assert_allclose(score.mean(axis=0), model.avg_grad(data, theta), **close)
    np.testing.assert_allclose(hess.mean(axis=0), model.avg_hess(data, theta), **close)


def test_monte_carlo_geometry_needs_per_obs_score_hess():
    class NoScores(mp.ModelSpec):
        dim, name = 1, "no-scores"
        support = [(-np.inf, np.inf)]

        def sample(self, theta, n, rng):
            return mp.Dataset(rng.normal(theta[0], 1.0, size=n))

    with pytest.raises(NotImplementedError, match="NoScores"):
        mp.geometry_at(NoScores(), np.array([0.0]), method="mc", seed=1)


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
        assert np.max(np.abs(model.skewness(theta) - ref)) <= 1e-10 * scale
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
            fd[:, b] = (mp.fisher_matrix_grad(model, up)
                        - mp.fisher_matrix_grad(model, dn)) / (2 * h)
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
