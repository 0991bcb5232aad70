import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import matchprior as mp
from matchprior import oracle
from matchprior.errors import (IndefiniteHessian, InvalidHyperparameter,
                               TailNotDecaying, ToleranceNotMet)
from matchprior.estimators import LogPosterior, Statistic
from matchprior.experiments import (derived_seed, logistic_design,
                                    logistic_scenario_data)
from matchprior.oracle import QuadratureSpec, conjugate_pm


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)
    # NaN passes a "<= 0" check, and inf gives a NaN error bound
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tol=bad)


def test_conjugate_pm_closed_values():
    assert conjugate_pm("poisson-gamma", (1.0, 1.0), np.array([0.0])) == 0.5
    d = mp.Dataset(np.array([3.0, 4.0]))
    assert conjugate_pm("poisson-gamma", (2.0, 3.0), d) == pytest.approx(9 / 5)
    y = np.array([np.sqrt(2.0), -np.sqrt(2.0)])
    assert conjugate_pm("gaussianprecision-gamma", (2.0, 1.0), y) \
        == pytest.approx(1.0)
    with pytest.raises(InvalidHyperparameter):
        conjugate_pm("poisson-gamma", (0.0, 1.0), np.array([1.0]))
    for family in ("poisson-gamma", "gaussianprecision-gamma"):
        for hyper in ((np.nan, 1.0), (2.0, np.nan), (np.inf, 1.0)):
            with pytest.raises(InvalidHyperparameter):
                conjugate_pm(family, hyper, np.array([1.0]))
    with pytest.raises(ValueError):
        conjugate_pm("beta-binomial", (1.0, 1.0), np.array([1.0]))
    # komaki: a = beta + S = (5, 8), A = 13, mean (A - alpha) / n * a / A
    rows = np.tile(np.array([2.0, 5.0]) / 3, (3, 1))
    assert np.allclose(conjugate_pm("poisson-komaki", (3.0, 5.0), rows),
                       [40 / 39, 64 / 39], rtol=1e-15, atol=0)
    assert np.array_equal(
        conjugate_pm("poisson-komaki", (3.0, 5.0), mp.Dataset(rows)),
        conjugate_pm("poisson-komaki", (np.array([3.0, 3.0]), 5.0), rows))
    for hyper, counts in [((0.0, 5.0), rows), ((3.0, 0.0), rows),
                          ((3.0, 5.0), np.empty((0, 2))),
                          ((3.0, 5.0), np.array([[1.0, -2.0]])),
                          ((1.0, 9.0), rows),           # A = 9 <= alpha
                          ((np.nan, 5.0), rows), ((3.0, np.nan), rows)]:
        with pytest.raises(InvalidHyperparameter):
            conjugate_pm("poisson-komaki", hyper, counts)
    # a plain array is checked as a Dataset would check it
    for family, hyper, y in (("poisson-gamma", (2, 1), [np.nan, 1.0]),
                             ("gaussianprecision-gamma", (2, 1), [np.inf, 1.0]),
                             ("poisson-komaki", (3, 5), [[np.nan, 1.0]])):
        with pytest.raises(mp.NonFiniteInput):
            conjugate_pm(family, hyper, np.array(y))


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
    # a Statistic alone, and a sequence mixing a Statistic and a callable
    sq = Statistic(lambda th: float(th[0] ** 2), lambda th: 2.0 * th,
                   lambda th: np.array([[2.0]]))
    one, _ = mp.quad_posterior_expectation(mp.PoissonRate(), data,
                                           mp.gamma_prior(a, b), f=sq)
    mixed, _ = mp.quad_posterior_expectation(
        mp.PoissonRate(), data, mp.gamma_prior(a, b),
        f=[mp.coordinate_statistic(0, 1), lambda th: float(th[0] ** 2)])
    assert one[0] == v[0] and mixed[1] == v[0]
    assert abs(mixed[0] - shape / rate) < 1e-8

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
    log_weight, u0, ref, fns, _ = oracle._prepare(model, data, prior, f)
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


@pytest.mark.parametrize("counts, n, alpha, abs_tol", [
    ((4.0,), 2, 2.0, 1e-10), ((2.0, 5.0), 3, 5.0, 1e-8)], ids=["d1", "d2"])
def test_fast_path_komaki_closed_form(counts, n, alpha, abs_tol, no_quadpack):
    # at d = 1, lam^(S + beta - alpha - 1) e^(-n lam) is
    # Gamma(S + beta - alpha, n); in general conjugate_pm has the mean
    counts = np.array(counts)
    beta = np.full(counts.shape, 3.0)
    data = mp.Dataset(np.tile(counts / n, (n, 1)))
    v, err = mp.quad_posterior_expectation(
        mp.PoissonSequence(counts.size), data, mp.komaki_prior(beta, alpha),
        spec=QuadratureSpec(abs_tol=abs_tol))
    exact = conjugate_pm("poisson-komaki", (beta, alpha), data)
    if counts.size == 1:
        assert exact[0] == (counts[0] + beta[0] - alpha) / n
    assert np.all(np.abs(v - exact) < 1e-10) and np.all(err < 1e-10)


def test_fast_path_d3_poisson_sequence_closed_form(no_quadpack):
    # three independent Gamma(2 + S_j, 11) posteriors; z ~ (2 pi)^(3/2) moves
    # by more than abs_tol between the last two levels while the means agree
    # to below it, so the normaliser test must be relative
    y = np.tile([2.3, 2.6, 2.8], (10, 1))
    v, err = mp.quad_posterior_expectation(
        mp.PoissonSequence(3), mp.Dataset(y), mp.gamma_prior(2, 1),
        spec=QuadratureSpec(abs_tol=1e-6))
    exact = (2.0 + y.sum(axis=0)) / 11.0
    assert np.all(np.abs(v - exact) <= err) and np.all(err < 1e-5)



def test_d3_grid_failure_is_tolerance_not_met(no_quadpack):
    # at the default abs_tol the grid needs more than its node budget here,
    # and nested QUADPACK at d = 3 ran for minutes: the oracle says so fast
    y = np.tile([2.3, 2.6, 2.8], (10, 1))
    start = time.perf_counter()
    with pytest.raises(ToleranceNotMet, match="dimension 3: .*budget 50000"):
        mp.quad_posterior_expectation(mp.PoissonSequence(3), mp.Dataset(y),
                                      mp.gamma_prior(2, 1))
    assert time.perf_counter() - start < 10.0


def test_d3_failed_mode_search_is_tolerance_not_met(monkeypatch, no_quadpack):
    def fail(*args, **kwargs):
        raise IndefiniteHessian("no mode")

    monkeypatch.setattr(oracle, "_maximize", fail)
    y = np.tile([2.3, 2.6, 2.8], (10, 1))
    with pytest.raises(ToleranceNotMet, match="dimension 3: the mode search"):
        mp.quad_posterior_expectation(mp.PoissonSequence(3), mp.Dataset(y),
                                      mp.gamma_prior(2, 1))

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


# the two QUADPACK users, run in a fresh interpreter and here: the heavy-tail
# fallback above and a matching_pair_1d partner's log density
_COLD_CASES = """
import matchprior as mp
import numpy as np
v, err = mp.quad_posterior_expectation(
    mp.MultivariateCauchyLocation(1), mp.Dataset(np.array([-1.0, 1.0])),
    mp.uniform_prior())
pair = mp.matching_pair_1d(mp.gamma_prior(2.0, 1.0), mp.PoissonRate(), 1.0)
values = [float(v[0]), float(err[0]), float(pair.map.log_density(np.array([2.5])))]
"""


def test_quadpack_loads_on_first_use_in_a_fresh_interpreter():
    # pytest's own process has scipy.integrate loaded (test_mcmc imports it)
    script = f"""
import json, sys
lazy = ("scipy.integrate", "scipy.optimize", "scipy.sparse")
def loaded():
    return [m for m in lazy if m in sys.modules]
import matchprior
at_import = loaded()
{_COLD_CASES}
print(json.dumps([at_import, loaded(), values]))
"""
    src = str(Path(mp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    at_import, after, cold = json.loads(out.stdout.splitlines()[-1])
    assert at_import == []
    assert "scipy.integrate" in after
    here = {}
    exec(_COLD_CASES, here)
    assert cold == here["values"]


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


@pytest.mark.parametrize("n", [16, 64, 512])
def test_logistic_jeffreys_posteriors(n):
    # the tail probes reach |eta| > 37, where a weight p (1 - p) rounded to
    # 0 and made the Fisher matrix singular
    design = logistic_design(n)
    model = mp.LogisticGLM(design)
    y = logistic_scenario_data(
        1, n, np.random.default_rng(derived_seed(707, 1, n, 0)))
    data = mp.Dataset(y, design)
    for prior in (mp.jeffreys_prior(model),
                  mp.eflat_map_partner(mp.normal_prior(0.0, 1.0), model)):
        v, err = mp.quad_posterior_expectation(model, data, prior)
        assert np.all(np.isfinite(v))
        assert np.all(err < 1e-11), (prior.label, err)


def test_centre_falls_back_to_default_init_on_library_errors(monkeypatch):
    # with y = [0] the likelihood e^(-lam) has no interior maximum; the
    # posterior under gamma(2, 1) is gamma(2, 2), whose mean is 1
    model, data = mp.PoissonRate(), mp.Dataset(np.array([0.0]))
    with pytest.raises(IndefiniteHessian):
        mp.mle(model, data)
    prior = mp.gamma_prior(2.0, 1.0)
    for rule in (mp.quad_posterior_expectation, quadpack_reference):
        v, _ = rule(model, data, prior)
        assert abs(v[0] - 1.0) < 1e-8
    # the oracle searches the posterior mode once and runs no MLE
    calls = []
    value = LogPosterior.value
    with monkeypatch.context() as m:
        m.setattr(LogPosterior, "value",
                  lambda self, th: calls.append(1) or value(self, th))
        m.setattr(oracle, "quad", refuse_quadpack)
        mp.quad_posterior_expectation(model, data, prior)
    assert len(calls) <= 200

    def fail(*args, **kwargs):
        raise IndefiniteHessian("no mode")

    # when the mode search itself fails, QUADPACK answers about default_init
    monkeypatch.setattr(oracle, "_maximize", fail)
    quadpack = []
    quad = oracle.quad
    monkeypatch.setattr(oracle, "quad",
                        lambda *a, **k: quadpack.append(1) or quad(*a, **k))
    v, _ = mp.quad_posterior_expectation(model, data, prior)
    assert quadpack
    assert abs(v[0] - 1.0) < 1e-8
