import numpy as np
import pytest

import matchprior as mp
from matchprior import oracle
from matchprior.errors import (IndefiniteHessian, InvalidHyperparameter,
                               TailNotDecaying, ToleranceNotMet)
from matchprior.estimators import LogPosterior
from matchprior.oracle import QuadratureSpec, conjugate_pm


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=2)


def test_conjugate_pm_closed_values():
    assert conjugate_pm("poisson-gamma", (1.0, 1.0), np.array([0.0])) == 0.5
    d = mp.Dataset(np.array([3.0, 4.0]))
    assert conjugate_pm("poisson-gamma", (2.0, 3.0), d) == pytest.approx(9 / 5)
    y = np.array([np.sqrt(2.0), -np.sqrt(2.0)])
    assert conjugate_pm("gaussianprecision-gamma", (2.0, 1.0), y) \
        == pytest.approx(1.0)
    with pytest.raises(InvalidHyperparameter):
        conjugate_pm("poisson-gamma", (0.0, 1.0), np.array([1.0]))
    with pytest.raises(ValueError):
        conjugate_pm("beta-binomial", (1.0, 1.0), np.array([1.0]))


def test_quadrature_poisson_gamma_exact():
    y = np.array([1.0, 3.0, 2.0, 1.0])  # S = 7, n = 4
    data = mp.Dataset(y)
    v, err = mp.quad_posterior_expectation(mp.PoissonRate(), data,
                                           mp.gamma_prior(2.0, 3.0))
    assert abs(v[0] - 9 / 7) < 1e-8
    assert err[0] < 1e-6


def test_quadrature_gaussian_precision_exact():
    rng = np.random.default_rng(0)
    y = rng.normal(size=12)
    data = mp.Dataset(y)
    a, b = 2.5, 1.2
    v, _ = mp.quad_posterior_expectation(mp.GaussianKnownMeanPrecision(), data,
                                         mp.gamma_prior(a, b))
    exact = (a + 6.0) / (b + 0.5 * np.sum(y**2))
    assert abs(v[0] - exact) < 1e-8


def test_quadrature_cauchy_symmetry():
    model = mp.MultivariateCauchyLocation(1)
    data = mp.Dataset(np.array([-1.0, 1.0]))
    v, err = mp.quad_posterior_expectation(model, data, mp.uniform_prior())
    assert abs(v[0]) < 1e-8


def test_quadrature_conjugate_agreement_random_grid():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a, b = 0.5 + 3 * rng.random(2)
        y = rng.poisson(2.0, size=6).astype(float)
        data = mp.Dataset(y)
        v, _ = mp.quad_posterior_expectation(mp.PoissonRate(), data,
                                             mp.gamma_prior(a, b))
        assert abs(v[0] - conjugate_pm("poisson-gamma", (a, b), data)) < 1e-8


def test_quadrature_custom_statistic_and_d2():
    y = np.array([2.0, 1.0])
    data = mp.Dataset(y)
    # E[lam^2] under Gamma(a + S, b + n)
    a, b = 2.0, 1.0
    v, _ = mp.quad_posterior_expectation(
        mp.PoissonRate(), data, mp.gamma_prior(a, b),
        f=lambda th: float(th[0] ** 2))
    shape, rate = a + 3.0, b + 2.0
    assert abs(v[0] - shape * (shape + 1) / rate**2) < 1e-8

    d2 = mp.Dataset(np.array([[2.0, 0.0], [1.0, 1.0]]))
    v2, _ = mp.quad_posterior_expectation(
        mp.PoissonSequence(2), d2, mp.gamma_prior(a, b),
        spec=QuadratureSpec(abs_tol=1e-9))
    expect = np.array([(a + 3.0) / (b + 2.0), (a + 1.0) / (b + 2.0)])
    assert np.max(np.abs(v2 - expect)) < 1e-7


def test_quadrature_rejects_high_dimension_and_bad_tails():
    with pytest.raises(ValueError):
        mp.quad_posterior_expectation(mp.PoissonSequence(4),
                                      mp.Dataset(np.ones((2, 4))),
                                      mp.gamma_prior(1.0, 1.0))
    growing = mp.PriorSpec("explode", lambda th: float(th[0] ** 2),
                           lambda th: 2.0 * np.atleast_1d(th), False)
    model = mp.MultivariateCauchyLocation(1)
    data = mp.Dataset(np.array([0.0, 0.5]))
    with pytest.raises(TailNotDecaying):
        mp.quad_posterior_expectation(model, data, growing)


def test_quadrature_tolerance_not_met_on_divergent_mass():
    # a flat prior on a single Cauchy observation has heavy polynomial tails;
    # the first moment integral is borderline and the center weight check
    # still guards NaN cases.  Use a prior putting the center off support.
    bad = mp.PriorSpec("offsupport", lambda th: -np.inf,
                       lambda th: np.zeros(1), False)
    data = mp.Dataset(np.array([1.0, 2.0]))
    with pytest.raises(ToleranceNotMet):
        mp.quad_posterior_expectation(mp.PoissonRate(), data, bad)


def test_log_substitution_matches_truncated_direct():
    y = np.array([2.0, 4.0, 3.0])
    data = mp.Dataset(y)
    a, b = 2.0, 1.0
    v, _ = mp.quad_posterior_expectation(mp.PoissonRate(), data,
                                         mp.gamma_prior(a, b))
    # direct integration on a wide truncated box, no substitution
    from scipy.integrate import quad as squad
    model = mp.PoissonRate()

    def w(lam):
        th = np.array([lam])
        return np.exp(data.n * model.avg_loglik(data, th)
                      + mp.gamma_prior(a, b).log_density(th))

    z, _ = squad(w, 1e-8, 60.0, epsabs=1e-14, limit=200)
    num, _ = squad(lambda lam: lam * w(lam), 1e-8, 60.0, epsabs=1e-14,
                   limit=200)
    assert abs(v[0] - num / z) < 2e-10


# ---------------------------------------------------------------------------
# the Laplace-centred trapezoid fast path against closed forms and QUADPACK


def quadpack_reference(model, data, prior, f=None, spec=None):
    """The nested QUADPACK rule alone, behind the same checks."""
    spec = spec or QuadratureSpec()
    log_weight, u0, ref, fns = oracle._prepare(model, data, prior, f)
    return oracle._quadpack(log_weight, u0, ref, fns, spec)


def refuse_quadpack(*args, **kwargs):
    raise AssertionError("the fast path fell back to QUADPACK")


@pytest.fixture
def no_quadpack(monkeypatch):
    monkeypatch.setattr(oracle, "quad", refuse_quadpack)


@pytest.mark.parametrize("family, model", [
    ("poisson-gamma", mp.PoissonRate()),
    ("gaussianprecision-gamma", mp.GaussianKnownMeanPrecision()),
])
@pytest.mark.parametrize("n", [1, 2, 16, 512])
def test_fast_path_matches_conjugate_pm(family, model, n, no_quadpack):
    rng = np.random.default_rng(n)
    if family == "poisson-gamma":
        samples = [rng.poisson(3.0, size=n).astype(float), np.zeros(n),
                   np.r_[np.zeros(n - 1), 9.0]]   # skewed: one large count
    else:
        samples = [rng.normal(scale=0.7, size=n), np.full(n, 3.0)]
    for y in samples:
        for a, b in ((2.0, 1.0), (0.7, 2.5)):
            v, err = mp.quad_posterior_expectation(model, mp.Dataset(y),
                                                   mp.gamma_prior(a, b))
            exact = conjugate_pm(family, (a, b), y)
            assert abs(v[0] - exact) < 1e-10, (y, a, b)
            assert err[0] < 1e-10


def test_fast_path_komaki_d1_closed_form(no_quadpack):
    # lam^(S + beta - alpha - 1) e^(-n lam) is Gamma(S + beta - alpha, n)
    counts, n, beta, alpha = np.array([4.0]), 2, np.array([3.0]), 2.0
    v, _ = mp.quad_posterior_expectation(
        mp.PoissonSequence(1), mp.Dataset(np.tile(counts / n, (n, 1))),
        mp.komaki_prior(beta, alpha))
    assert abs(v[0] - (counts[0] + beta[0] - alpha) / n) < 1e-10


def test_fast_path_d2_within_quadpack_bounds(monkeypatch):
    n = 24
    design = np.column_stack([np.arange(1, n + 1) / n, np.ones(n)])
    y = (np.random.default_rng(1001).random(n)
         < 1 / (1 + np.exp(-design @ [1.0, 0.0]))).astype(float)
    counts = np.array([2.0, 5.0])
    cases = [(mp.LogisticGLM(design), mp.Dataset(y, design),
              mp.normal_prior(0.0, 1.0)),
             (mp.PoissonSequence(2), mp.Dataset(np.tile(counts / 3, (3, 1))),
              mp.komaki_prior(np.array([3.0, 3.0]), 5.0))]
    spec = QuadratureSpec(abs_tol=1e-6)   # keeps the d=2 reference to seconds
    for args in cases:
        ref, ref_err = quadpack_reference(*args, spec=spec)
        with monkeypatch.context() as m:
            m.setattr(oracle, "quad", refuse_quadpack)
            v, err = mp.quad_posterior_expectation(*args, spec=spec)
        assert np.all(np.abs(v - ref) <= ref_err + err)
        assert np.all(err < 1e-6)


def test_heavy_tail_falls_back_to_quadpack(monkeypatch):
    # a flat prior on two Cauchy points: the density is 1 / (theta^4 + 4),
    # flat at its mode and polynomial in the tails
    args = (mp.MultivariateCauchyLocation(1), mp.Dataset(np.array([-1.0, 1.0])),
            mp.uniform_prior())
    ref, ref_err = quadpack_reference(*args)
    calls = []
    quad = oracle.quad
    monkeypatch.setattr(oracle, "quad",
                        lambda *a, **k: calls.append(1) or quad(*a, **k))
    v, err = mp.quad_posterior_expectation(*args)
    assert calls
    assert abs(v[0] - ref[0]) <= 1e-12
    assert err[0] == ref_err[0]


def test_fast_path_evaluation_count(monkeypatch):
    y = np.random.default_rng(16).poisson(3.0, size=16).astype(float)
    calls = []
    value = LogPosterior.value
    monkeypatch.setattr(LogPosterior, "value",
                        lambda self, th: calls.append(1) or value(self, th))
    v, _ = mp.quad_posterior_expectation(mp.PoissonRate(), mp.Dataset(y),
                                         mp.gamma_prior(2.0, 1.0))
    assert abs(v[0] - conjugate_pm("poisson-gamma", (2.0, 1.0), y)) < 1e-10
    assert len(calls) <= 150


def test_centre_falls_back_to_default_init_on_library_errors():
    # with y = [0] the likelihood e^(-lam) has no interior maximum; the
    # posterior under gamma(2, 1) is gamma(2, 2), whose mean is 1
    model, data = mp.PoissonRate(), mp.Dataset(np.array([0.0]))
    with pytest.raises(IndefiniteHessian):
        mp.mle(model, data)
    prior = mp.gamma_prior(2.0, 1.0)
    for rule in (mp.quad_posterior_expectation, quadpack_reference):
        v, _ = rule(model, data, prior)
        assert abs(v[0] - 1.0) < 1e-8
