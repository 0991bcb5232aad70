import dataclasses

import numpy as np
import pytest

from scipy.linalg.lapack import dpotrf, dpotrs

import matchprior as mp
from matchprior import estimators
from matchprior.errors import (BoundaryPoint, BoundaryStuck,
                               IndefiniteHessian, NonFiniteLogDensity,
                               NotConverged, SingularFisher, SupportMismatch)
from matchprior.estimators import (LogPosterior, Statistic,
                                   _newton_direction, coordinate_statistic)
from matchprior.experiments import _shrinkage_inputs, shrinkage_rates
from matchprior.priors import parse_prior


def test_mle_poisson_is_sample_mean():
    data = mp.Dataset(np.array([1.0, 4.0, 2.0, 0.0, 3.0]))
    res = mp.mle(mp.PoissonRate(), data)
    assert res.method == "MLE"
    assert res.point[0] == pytest.approx(2.0, abs=1e-9)
    assert res.diagnostics["converged"]


def test_mle_gaussian_precision_closed_form():
    rng = np.random.default_rng(0)
    y = rng.normal(scale=0.5, size=40)
    res = mp.mle(mp.GaussianKnownMeanPrecision(), mp.Dataset(y))
    assert res.point[0] == pytest.approx(1.0 / np.mean(y**2), rel=1e-8)


def test_mle_logistic_matches_gradient_zero():
    n = 30
    design = np.column_stack([np.linspace(-1, 1, n), np.ones(n)])
    model = mp.LogisticGLM(design)
    rng = np.random.default_rng(1)
    data = model.sample(np.array([1.0, 0.2]), n, rng)
    res = mp.mle(model, data)
    assert np.max(np.abs(model.avg_grad(data, res.point))) < 1e-8


def test_map_gamma_posterior_mode():
    data = mp.Dataset(np.array([2.0, 3.0, 1.0]))
    a, b = 2.5, 1.5
    res = mp.map_estimate(mp.PoissonRate(), data, mp.gamma_prior(a, b))
    assert res.point[0] == pytest.approx((a - 1 + 6.0) / (b + 3), abs=1e-10)
    assert res.diagnostics["prior"] == "gamma(2.5,1.5)"


def test_map_evaluates_each_point_once(monkeypatch):
    # from a far start the line search backtracks; f at an accepted trial is
    # carried into the next iteration, so no point is evaluated twice
    y = np.random.default_rng(512).poisson(3.0, size=512).astype(float)
    points = []
    value = LogPosterior.value
    monkeypatch.setattr(LogPosterior, "value",
                        lambda self, th: points.append(th.copy())
                        or value(self, th))
    res = mp.map_estimate(mp.PoissonRate(), mp.Dataset(y),
                          mp.gamma_prior(2.0, 1.0), init=np.array([100.0]))
    assert res.point[0] == pytest.approx((1.0 + y.sum()) / 513.0, rel=1e-12)
    assert res.diagnostics["iterations"] == 4
    assert points[0][0] == 100.0
    # 1 evaluation at the start plus 9 line-search trials
    assert len(points) == 10
    assert len({p[0] for p in points}) == len(points)


@pytest.mark.parametrize("seed, cycle", [(311, 105), (4, 693)])
def test_map_does_not_stop_short_on_a_flat_posterior(seed, cycle):
    # on these data sets the scaled gradient fell below tol while the point
    # was still 1.1e-10 and 1.5e-10 from the maximum; the Newton step through
    # the last factor keeps the ascent going
    y = np.random.default_rng(np.random.SeedSequence([seed, cycle, 3])).normal(
        scale=0.5**0.5, size=16)
    model = mp.GaussianKnownMeanPrecision()
    res = mp.map_estimate(model, mp.Dataset(y),
                          mp.eflat_map_partner(mp.gamma_prior(2.0, 1.0), model),
                          tol=1e-11)
    exact = mp.conjugate_pm("gaussianprecision-gamma", (2.0, 1.0), y)
    assert res.diagnostics["converged"]
    assert abs(res.point[0] - exact) < 1e-12


def test_newton_direction_ridge_schedule():
    g = np.array([1.0, 1.0])
    pd = np.array([[2.0, 0.5], [0.5, 1.0]])
    s, ridged, _ = _newton_direction(pd, g)
    assert not ridged
    np.testing.assert_allclose(s, np.linalg.solve(pd, g), rtol=1e-14)
    # indefinite: the ridge starts at 1e-10 * max(max|H|, 1) and doubles
    # until the shifted matrix factors; 1e-10 * 2**24 is the first above 1e-3
    indef = np.diag([1.0, -1e-3])
    s, ridged, _ = _newton_direction(indef, g)
    assert ridged
    np.testing.assert_allclose(
        s, np.linalg.solve(indef + 1e-10 * 2.0**24 * np.eye(2), g), rtol=1e-14)


def _linear_ladder(neg_hess, grad):
    """The ridge ladder climbed one rung at a time: the reference that
    _newton_direction's gallop and bisection must reproduce bit for bit."""
    d = grad.shape[0]
    scale = max(np.max(np.abs(neg_hess)), 1.0)
    ridge = 0.0
    for _ in range(40):
        chol, info = dpotrf(neg_hess + ridge * np.eye(d), lower=1)
        if info == 0:
            s = dpotrs(chol, grad, lower=1)[0]
            if np.dot(s, grad) > 0:
                return s, ridge > 0, chol
        ridge = max(2.0 * ridge, 1e-10 * scale)
    raise IndefiniteHessian("no rung")


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_direction(neg_hess, grad):
    try:
        want = _linear_ladder(neg_hess, grad)
    except IndefiniteHessian:
        with pytest.raises(IndefiniteHessian):
            _newton_direction(neg_hess, grad)
        return
    s, ridged, chol = _newton_direction(neg_hess, grad)
    assert ridged == want[1]
    assert _same_bits(s, want[0]) and _same_bits(chol, want[2])


def _shrinkage_map(seed, n=1):
    counts = np.random.default_rng(seed).poisson(
        shrinkage_rates(100) * n).astype(float)
    _, _, model, data, prior = _shrinkage_inputs(counts, n)
    return mp.map_estimate(model, data, prior)


def test_ridge_search_matches_the_linear_ladder(monkeypatch):
    rng = np.random.default_rng(20)
    for d in (1, 2, 10, 100):
        for _ in range(40 if d < 100 else 12):
            # an eigenvalue of size 10^-9 to 10^3 and either sign puts the
            # first working rung anywhere from 0 up the ladder
            q = np.linalg.qr(rng.normal(size=(d, d)))[0]
            lam = rng.uniform(0.1, 10.0, d) * rng.choice([-1.0, 1.0], d)
            lam[0] = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9, 3)
            _assert_same_direction((q * lam) @ q.T, rng.normal(size=d))
    # the Hessians an n = 1 shrinkage MAP factors, ridged or not
    seen = []
    direction = estimators._newton_direction
    monkeypatch.setattr(estimators, "_newton_direction",
                        lambda h, g: seen.append((h, g)) or direction(h, g))
    for seed in (1, 2, 3):
        _shrinkage_map(seed)
    assert len(seen) > 20
    for h, g in seen:
        _assert_same_direction(h, g)
    # a zero gradient has no ascent direction; no ridge mends a NaN
    h = np.diag([2.0, -1.0])
    with pytest.raises(IndefiniteHessian):
        _newton_direction(h, np.zeros(2))
    with pytest.raises(IndefiniteHessian):
        _newton_direction(np.full((2, 2), np.nan), np.ones(2))


def test_ridge_search_factor_count(monkeypatch):
    # gallop and bisection: 32.1 dpotrf calls per n = 1 shrinkage MAP over
    # seeds 1-60 (17.5 of them failures); a climb one rung at a time made
    # 68.1 (58.0 failures)
    calls = []
    monkeypatch.setattr(estimators, "dpotrf",
                        lambda *a, **k: calls.append(1) or dpotrf(*a, **k))
    for seed in range(1, 61):
        assert _shrinkage_map(seed).diagnostics["converged"]
    assert len(calls) <= 36 * 60


def test_map_respects_lower_bound():
    # a zero-count coordinate lands on the floor while the other stays interior
    data = mp.Dataset(np.tile([0.0, 2.0], (5, 1)))
    prior = mp.komaki_prior(np.full(2, 1.0), 2.0, floor=1e-3)
    res = mp.map_estimate(mp.PoissonSequence(2), data, prior)
    assert res.point[0] == pytest.approx(1e-3, abs=1e-12)
    assert res.point[1] > 1.0
    assert res.diagnostics["bound_active"]


def test_map_boundary_stuck():
    data = mp.Dataset(np.zeros((5, 1)))
    prior = mp.gamma_prior(1.0, 1.0)  # flat at 0, likelihood pushes down
    with pytest.raises(BoundaryStuck):
        mp.map_estimate(mp.PoissonRate(), data, prior,
                        lower=np.array([0.5]),
                        init=np.array([0.5]))


def test_not_converged_carries_partial_result():
    data = mp.Dataset(np.array([1.0, 4.0, 2.0]))
    with pytest.raises(NotConverged) as exc:
        mp.mle(mp.PoissonRate(), data, init=np.array([50.0]), max_iter=1)
    assert exc.value.result is not None
    assert not exc.value.result.diagnostics["converged"]
    assert exc.value.result.method == "MLE"
    with pytest.raises(NotConverged) as exc:
        mp.map_estimate(mp.PoissonRate(), data, mp.gamma_prior(2.0, 1.0),
                        init=np.array([50.0]), max_iter=1)
    assert exc.value.result.method == "MAP"
    assert exc.value.result.diagnostics["prior"] == "gamma(2,1)"
    assert not exc.value.result.diagnostics["converged"]


def test_tol_must_be_finite_and_positive():
    data = mp.Dataset(np.array([1.0, 4.0, 2.0]))
    for tol in (np.nan, -1.0, 0.0, np.inf):
        with pytest.raises(ValueError, match="tol"):
            mp.mle(mp.PoissonRate(), data, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            mp.map_estimate(mp.PoissonRate(), data, mp.gamma_prior(2.0, 1.0),
                            tol=tol)


def test_negative_poisson_counts_raise_before_any_value(monkeypatch):
    # a count in (-1, 0) has a finite log-factorial term, so only an explicit
    # check stops it; a column sum can hide a negative entry
    values = []
    value = LogPosterior.value
    monkeypatch.setattr(LogPosterior, "value",
                        lambda self, th: values.append(value(self, th))
                        or values[-1])
    for family, hyper, y in (("poisson-gamma", (2, 1), [3, -1]),
                             ("poisson-gamma", (2, 1), [3, -0.5]),
                             ("poisson-komaki", (3, 5), [[3, -1], [-1, 3]])):
        with pytest.raises(mp.InvalidHyperparameter, match="nonnegative"):
            mp.conjugate_pm(family, hyper, np.array(y, dtype=float))
    for y in ([2.5, -1.0], [2.0, -0.5]):
        data = mp.Dataset(np.array(y))
        with pytest.raises(ValueError, match="nonnegative"):
            mp.map_estimate(mp.PoissonRate(), data, mp.gamma_prior(2, 1))
        with pytest.raises(ValueError, match="nonnegative"):
            mp.mle(mp.PoissonRate(), data)
        with pytest.raises(ValueError, match="nonnegative"):
            mp.quad_posterior_expectation(mp.PoissonRate(), data,
                                          mp.gamma_prior(2, 1))
    assert values == []


def test_map_start_outside_the_posterior_raises_at_once(monkeypatch):
    values = []
    value = LogPosterior.value
    monkeypatch.setattr(LogPosterior, "value",
                        lambda self, th: values.append(value(self, th))
                        or values[-1])
    model, gamma = mp.PoissonRate(), mp.gamma_prior(2, 1)
    # a 2-vector default start for a 1-D model, as mle rejects it
    two = mp.Dataset(np.ones((3, 2)))
    for fit in (lambda: mp.mle(model, two),
                lambda: mp.map_estimate(model, two, gamma)):
        with pytest.raises(ValueError, match="expected parameter of length 1"):
            fit()
    data = mp.Dataset(np.array([2.0, 2.0, 2.0]))
    for init in ([np.nan], [1.0, 2.0], [-1.0]):
        with pytest.raises(ValueError):
            mp.map_estimate(model, data, gamma, init=init)
    assert values == []
    # the start y-bar = 2 lies outside the prior's support (5, 10)
    box = mp.PriorSpec("box", lambda th: 0.0, lambda th: np.zeros(1),
                       proper=False, support=[(5.0, 10.0)])
    with pytest.raises(NonFiniteLogDensity):
        mp.map_estimate(model, data, box)
    assert values == [-np.inf]


def test_calibrate_poisson_closed_form():
    # correction for a Poisson rate is ybar / (n * lambda_hat)
    y = np.array([2.0, 1.0, 3.0, 2.0])
    data = mp.Dataset(y)
    lam_hat = np.array([1.6])
    res = mp.calibrate_pm_from_map(mp.PoissonRate(), data, lam_hat)
    assert res.method == "CALIBRATED"
    assert res.diagnostics["information"] == "fisher"
    assert res.point[0] == pytest.approx(1.6 + 2.0 / (4 * 1.6), rel=1e-12)


def test_calibrate_information_choices():
    y = np.array([2.0, 1.0, 3.0])
    data = mp.Dataset(y)
    th = np.array([2.0])
    fisher = mp.calibrate_pm_from_map(mp.PoissonRate(), data, th,
                                      information="fisher")
    observed = mp.calibrate_pm_from_map(mp.PoissonRate(), data, th,
                                        information="observed")
    # at lambda = ybar the observed information equals Fisher information
    assert fisher.point[0] == pytest.approx(observed.point[0], rel=1e-12)
    with pytest.raises(ValueError):
        mp.calibrate_pm_from_map(mp.PoissonRate(), data, th, information="bad")
    # Cauchy has a closed-form Fisher metric, so the default uses it
    model = mp.MultivariateCauchyLocation(2)
    rng = np.random.default_rng(2)
    dc = model.sample(np.zeros(2), 10, rng)
    default = mp.calibrate_pm_from_map(model, dc, np.zeros(2))
    assert default.diagnostics["information"] == "fisher"
    with pytest.raises(ValueError):
        mp.calibrate_pm_from_map(model, dc, np.zeros(2), information="auto")


def test_calibrate_boundary_point_rejected():
    data = mp.Dataset(np.array([2.0, 1.0]))
    with pytest.raises(BoundaryPoint):
        mp.calibrate_pm_from_map(mp.PoissonRate(), data, np.array([1e-3]),
                                 lower=np.array([1e-3]))



def test_calibrate_takes_a_map_result_and_its_bound():
    # the MAP under komaki's floor 0.001 ends on the floor; given the bare
    # point and no lower, calibration cannot know the bound and answers
    model = mp.PoissonSequence(3)
    data = mp.Dataset(np.array([[0.0, 3.0, 0.0], [0.0, 2.0, 1.0]]))
    pinned = mp.map_estimate(model, data,
                             parse_prior("komaki(0.5,1,0.001)", model))
    assert pinned.diagnostics["bound_active"] and pinned.point[0] == 1e-3
    with pytest.raises(BoundaryPoint):
        mp.calibrate_pm_from_map(model, data, pinned)
    # an interior MAP calibrates the same from its result as from its point
    res = mp.map_estimate(model, data, mp.gamma_prior(2, 1))
    assert not res.diagnostics["bound_active"]
    assert np.array_equal(mp.calibrate_pm_from_map(model, data, res).point,
                          mp.calibrate_pm_from_map(model, data,
                                                   res.point).point)

def test_calibrate_singular_information():
    # observed information vanishes for a zero-count Poisson at any rate
    data = mp.Dataset(np.array([0.0, 0.0]))
    with pytest.raises(SingularFisher):
        mp.calibrate_pm_from_map(mp.PoissonRate(), data, np.array([1.0]),
                                 information="observed")


def test_calibrate_prior_gap_adds_the_first_order_gap_term():
    y = np.array([2.0, 1.0, 3.0])
    data = mp.Dataset(y)
    pm = mp.gamma_prior(2.0, 1.0)
    mq = mp.gamma_prior(3.0, 1.0)
    res = mp.calibrate_pm_from_map(mp.PoissonRate(), data, np.array([2.0]),
                                   prior_gap=(pm, mq))
    assert res.diagnostics["prior_gap"] == "gamma(2,1)|gamma(3,1)"
    assert "experimental" not in res.diagnostics
    base = mp.calibrate_pm_from_map(mp.PoissonRate(), data, np.array([2.0]))
    gap = 2.0 * (pm.log_grad(np.array([2.0]))
                 - mq.log_grad(np.array([2.0])))[0] / 3
    assert res.point[0] == pytest.approx(base.point[0] + gap, rel=1e-12)


def test_laplace_poisson_second_order():
    a, b, n = 1.0, 1.0, 100
    y = np.ones(n)  # S = 100
    data = mp.Dataset(y)
    model = mp.PoissonRate()
    mle_pt = mp.mle(model, data).point
    val = mp.laplace_posterior_expectation(model, data, mp.gamma_prior(a, b),
                                           None, mle_pt)
    exact = (a + 100) / (b + n)
    assert abs(val[0] - exact) < 5e-4


def test_laplace_gaussian_precision_second_order():
    rng = np.random.default_rng(3)
    a, b, n = 2.0, 1.0, 100
    y = rng.normal(size=n)
    data = mp.Dataset(y)
    model = mp.GaussianKnownMeanPrecision()
    mle_pt = mp.mle(model, data).point
    val = mp.laplace_posterior_expectation(model, data, mp.gamma_prior(a, b),
                                           None, mle_pt)
    exact = (a + n / 2) / (b + 0.5 * np.sum(y**2))
    assert abs(val[0] - exact) < 5e-4


def test_laplace_accepts_custom_statistic():
    y = np.full(50, 2.0)
    data = mp.Dataset(y)
    model = mp.PoissonRate()
    mle_pt = mp.mle(model, data).point
    sq = Statistic(lambda th: float(th[0] ** 2),
                   lambda th: np.array([2 * th[0]]),
                   lambda th: np.array([[2.0]]))
    vals = mp.laplace_posterior_expectation(model, data,
                                            mp.gamma_prior(1.0, 1.0),
                                            [sq, coordinate_statistic(0, 1)],
                                            mle_pt)
    # exact posterior is Gamma(101, 51): E[lam^2] = 101*102/51^2
    assert abs(vals[0] - 101 * 102 / 51**2) < 2e-3
    assert abs(vals[1] - 101 / 51) < 1e-3
    # one Statistic, not in a sequence
    one = mp.laplace_posterior_expectation(model, data, mp.gamma_prior(1.0, 1.0),
                                           sq, mle_pt)
    assert one.shape == (1,) and one[0] == vals[0]


def _expansion_cells():
    rng = np.random.default_rng(11)
    x = mp.experiments.logistic_design(64)
    y = (rng.random(64) < 1.0 / (1.0 + np.exp(-x[:, 0]))).astype(float)
    cauchy = mp.MultivariateCauchyLocation(2)
    return [
        (mp.LogisticGLM(x), mp.Dataset(y, x), mp.normal_prior(0.0, 1.0)),
        (mp.PoissonRate(), mp.Dataset(rng.poisson(3.0, size=40).astype(float)),
         mp.gamma_prior(2.0, 1.0)),
        (cauchy, cauchy.sample(np.zeros(2), 40, rng), mp.normal_prior(0.0, 100.0)),
        (mp.GaussianKnownMeanPrecision(),
         mp.Dataset(rng.normal(scale=0.7, size=40)), mp.gamma_prior(2.0, 1.0)),
    ]


@pytest.mark.parametrize("cell", range(4))
def test_laplace_mean_is_observed_calibration_with_prior_gap(cell):
    # the Laplace posterior mean at the MLE is the observed-information
    # calibration of that point with the gap of the prior over a flat one
    model, data, prior = _expansion_cells()[cell]
    theta = mp.mle(model, data).point
    lap = mp.laplace_posterior_expectation(model, data, prior, None, theta)
    cal = mp.calibrate_pm_from_map(model, data, theta, information="observed",
                                   prior_gap=(prior, mp.uniform_prior()))
    np.testing.assert_allclose(lap, cal.point, rtol=1e-15, atol=0)


def test_laplace_rejects_a_nonfinite_third_derivative():
    # lambda^3 underflows at 1e-110, so the Poisson third derivative is -inf
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteLogDensity):
        mp.laplace_posterior_expectation(mp.PoissonRate(),
                                         mp.Dataset(np.array([1.0, 2.0])),
                                         mp.gamma_prior(2, 1), None, [1e-110])


def test_nonfinite_third_derivative_is_the_library_error():
    # no errstate here: the divide-by-zero warning of 1 / lambda^3 = 1 / 0
    # is an error under the test configuration, and must not come first
    data = mp.Dataset(np.array([1.0, 2.0]))
    with pytest.raises(NonFiniteLogDensity):
        mp.laplace_posterior_expectation(mp.PoissonRate(), data,
                                         mp.gamma_prior(2, 1), None, [1e-110])
    with pytest.raises(NonFiniteLogDensity):
        mp.calibrate_pm_from_map(mp.PoissonRate(), data, [1e-110],
                                 information="observed")


def test_laplace_rejects_statistics_without_derivatives():
    data = mp.Dataset(np.array([1.0, 2.0, 4.0]))
    for f in (lambda t: float(t[0] ** 2), [lambda t: float(t[0] ** 2)]):
        with pytest.raises(ValueError, match="grad and hess"):
            mp.laplace_posterior_expectation(mp.PoissonRate(), data,
                                             mp.gamma_prior(2, 1), f, [2.0])


def test_statistic_matching_residual_square_statistic():
    model = mp.PoissonRate()
    pm = mp.gamma_prior(2.0, 1.0)
    mq = mp.mflat_map_partner(pm, model)
    sq = Statistic(lambda th: float(th[0] ** 2),
                   lambda th: np.array([2 * th[0]]),
                   lambda th: np.array([[2.0]]))
    th = np.array([1.3])
    # a pair built for the identity statistic misses the square: residual is -1
    r = mp.statistic_matching_residual(model, pm, mq, sq, th)
    assert r[0, 0] == pytest.approx(-1.0, abs=1e-10)
    # boosting the pm prior by lambda^(1/2) repairs the square statistic
    pm_sq = mp.PriorSpec(
        "boosted", lambda t: pm.log_density(t) + 0.5 * float(np.log(t[0])),
        lambda t: pm.log_grad(t) + 0.5 / np.atleast_1d(t), False,
        support=[(0.0, np.inf)])
    r2 = mp.statistic_matching_residual(model, pm_sq, mq, sq, th)
    assert abs(r2[0, 0]) < 1e-10


def test_identity_statistics_shapes():
    stats = mp.identity_statistics(3)
    th = np.array([1.0, 2.0, 3.0])
    assert [s.value(th) for s in stats] == [1.0, 2.0, 3.0]
    assert np.allclose(stats[1].grad(th), [0, 1, 0])
    assert np.allclose(stats[2].hess(th), np.zeros((3, 3)))


def test_statistic_matching_residual_builds_on_matching_residual():
    model = mp.PoissonSequence(2)
    pm = mp.gamma_prior(2.0, 1.0)
    mq = mp.gamma_prior(3.0, 0.5)
    th = np.array([0.7, 1.9])
    delta = mp.matching_residual(mp.MatchingPair(pm, mq, "test"), model, th)
    for i, stat in enumerate(mp.identity_statistics(2)):
        r = mp.statistic_matching_residual(model, pm, mq, stat, th)
        assert np.array_equal(r[i], delta)
    # a point inside the model support but outside a prior box
    box = mp.PriorSpec("box", lambda t: 0.0, lambda t: np.zeros(1), True,
                       support=[(0.0, 1.0)])
    with pytest.raises(SupportMismatch):
        mp.statistic_matching_residual(mp.PoissonRate(), box, pm,
                                       coordinate_statistic(0, 1),
                                       np.array([2.0]))


def _central(fn, theta, h=1e-6):
    """Central differences of fn along each coordinate, stacked by row."""
    rows = []
    for a in range(theta.shape[0]):
        step = np.zeros_like(theta)
        step[a] = h
        rows.append((np.asarray(fn(theta + step)) - np.asarray(fn(theta - step)))
                    / (2 * h))
    return np.array(rows)


def _logistic_case():
    design = np.column_stack([np.linspace(-1, 1, 40), np.ones(40)])
    model = mp.LogisticGLM(design)
    data = model.sample(np.array([0.8, -0.3]), 40, np.random.default_rng(4))
    return model, data


def test_log_posterior_value_is_loglik_sum_plus_log_prior():
    model, data = _logistic_case()
    cases = [(mp.PoissonRate(), mp.Dataset(np.array([1.0, 4.0, 2.0])),
              mp.gamma_prior(2.0, 1.0), np.array([1.7])),
             (model, data, mp.normal_prior(0.0, 2.0), np.array([0.4, 0.1]))]
    for model, data, prior, th in cases:
        post = mp.LogPosterior(model, data, prior)
        assert post.contains(th)
        assert post.value(th) == (data.n * model.avg_loglik(data, th)
                                  + prior.log_density(th))


def test_log_posterior_is_minus_inf_outside_the_supports():
    data = mp.Dataset(np.array([1.0, 4.0, 2.0]))
    post = mp.LogPosterior(mp.PoissonRate(), data, mp.gamma_prior(2.0, 1.0))
    for th in ([-1.0], [0.0], [np.nan]):
        assert not post.contains(np.array(th))
        assert post.value(np.array(th)) == -np.inf
    seq = mp.LogPosterior(mp.PoissonSequence(2), mp.Dataset(np.ones((3, 2))),
                          mp.komaki_prior(np.full(2, 3.0), 5.0))
    assert np.isfinite(seq.value(np.array([1.0, 2.0])))
    assert seq.value(np.array([1.0, -2.0])) == -np.inf
    # inside the model support, outside the prior box
    model, data = _logistic_case()
    boxed = mp.LogPosterior(model, data, mp.gamma_prior(2.0, 1.0))
    assert model.in_support(np.array([-0.5, 1.0]))
    assert not boxed.contains(np.array([-0.5, 1.0]))
    assert boxed.value(np.array([-0.5, 1.0])) == -np.inf
    assert np.isfinite(boxed.value(np.array([0.5, 1.0])))


def test_log_posterior_derivatives_match_central_differences():
    model, data = _logistic_case()
    ridge = mp.normal_prior(0.0, 1.0)
    cases = [(mp.PoissonRate(), mp.Dataset(np.array([1.0, 4.0, 2.0])),
              mp.gamma_prior(2.0, 1.0), np.array([1.7])),
             (model, data, mp.eflat_map_partner(ridge, model),
              np.array([0.4, -0.2]))]
    for model, data, prior, th in cases:
        post = mp.LogPosterior(model, data, prior)
        assert np.allclose(post.grad(th), _central(post.value, th),
                           rtol=1e-6, atol=1e-6)
        fd = _central(post.grad, th)
        assert np.allclose(post.hess(th), 0.5 * (fd + fd.T), rtol=1e-6,
                           atol=1e-6)


def test_log_posterior_hess_fallback_without_closed_form_prior_hess():
    model, data = _logistic_case()
    pois = mp.PoissonSequence(2)
    # gamma * prod(lambda), the m-flat partner, with its log_hess taken away
    times_coords = dataclasses.replace(
        mp.mflat_map_partner(mp.gamma_prior(2.0, 1.0), pois), log_hess=None)
    cases = [(model, data,
              dataclasses.replace(mp.jeffreys_prior(model), log_hess=None),
              np.array([0.4, -0.2])),
             (pois, mp.Dataset(np.array([[1.0, 3.0], [2.0, 0.0]])),
              times_coords, np.array([0.9, 2.1])),
             (mp.PoissonRate(), mp.Dataset(np.array([1.0, 4.0, 2.0])),
              mp.matching_pair_1d(mp.gamma_prior(2.0, 1.0), mp.PoissonRate(),
                                  1.0).map, np.array([1.7]))]
    for model, data, prior, th in cases:
        assert prior.log_hess is None
        post = mp.LogPosterior(model, data, prior)
        prior_part = post.hess(th) - data.n * model.avg_hess(data, th)
        fd = _central(prior.log_grad, th)
        assert np.allclose(prior_part, 0.5 * (fd + fd.T), rtol=1e-6,
                           atol=1e-6)
