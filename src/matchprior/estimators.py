"""Point estimation: MLE, MAP, one-step calibration, and Laplace expansions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import (BoundaryPoint, BoundaryStuck, IndefiniteHessian,
                     NonFiniteLogDensity, NotConverged)
from .geometry import _invert_metric
from .models import (Dataset, ModelSpec, central_difference, check_point,
                     third_derivative_tensor)
from .priors import MatchingPair, PriorSpec, matching_residual, uniform_prior

_ARMIJO_C = 1e-4
_BOUND_EPS = 1e-12


@dataclass
class EstimateResult:
    """A point estimate with its method tag and run diagnostics."""

    point: np.ndarray
    method: str  # MLE | MAP | PM-MCMC | PM-QUAD | CALIBRATED | LAPLACE
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Statistic:
    """A scalar smooth statistic of the parameter with explicit derivatives."""

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


def coordinate_statistic(i: int, dim: int) -> Statistic:
    e = np.zeros(dim)
    e[i] = 1.0
    return Statistic(lambda th: float(th[i]),
                     lambda th: e.copy(),
                     lambda th: np.zeros((dim, dim)))


def identity_statistics(dim: int) -> list[Statistic]:
    return [coordinate_statistic(i, dim) for i in range(dim)]


# ---------------------------------------------------------------------------
# the log posterior density


@dataclass(frozen=True)
class LogPosterior:
    """The log posterior n * avg log-likelihood + log prior, whose mode is the
    MAP and whose mean the posterior mean.  Model methods are looked up on
    every call, so a method rebound on the model class is the one used."""

    model: ModelSpec
    data: Dataset
    prior: PriorSpec

    def contains(self, theta) -> bool:
        return self.model.in_support(theta) and self.prior.contains(theta)

    def value(self, theta) -> float:
        """The log density; -inf outside the model or the prior support."""
        if not self.contains(theta):
            return -np.inf
        return (self.data.n * self.model.avg_loglik(self.data, theta)
                + self.prior.log_density(theta))

    def grad(self, theta) -> np.ndarray:
        return (self.data.n * self.model.avg_grad(self.data, theta)
                + self.prior.log_grad(theta))

    def hess(self, theta) -> np.ndarray:
        """The Hessian; central differences of the prior's log_grad stand in
        for a prior without a closed-form log_hess."""
        model_hess = self.data.n * self.model.avg_hess(self.data, theta)
        if self.prior.log_hess is not None:
            return model_hess + self.prior.log_hess(theta)
        prior_hess = central_difference(self.prior.log_grad, theta, 1e-6)
        return model_hess + 0.5 * (prior_hess + prior_hess.T)


# ---------------------------------------------------------------------------
# projected Newton ascent above an optional lower bound


_RIDGE_RUNGS = 40


def _newton_direction(neg_hess, grad):
    """Solve (neg_hess + r I) s = grad at the first rung of the ridge ladder
    r = 0, r0, 2 r0, 4 r0, ... (r0 = 1e-10 max(max|neg_hess|, 1), 40 rungs)
    that factors and gives an ascent direction; returns s, whether r > 0,
    and the Cholesky factor that solved it.

    A ridge that makes the matrix positive definite makes every larger one
    so too, so galloping up the rungs (1, 2, 4, ...) and then bisecting
    finds the rung a climb one at a time would, in O(log) factorizations.
    """
    # neg_hess + r I entry by entry: r * 0 adds +0.0 off the diagonal
    shifted = np.add(neg_hess, 0.0, order="F")
    diag = np.diagonal(neg_hess)
    r0 = 1e-10 * max(np.max(np.abs(neg_hess)), 1.0)

    def attempt(rung):
        a = shifted.copy(order="F")
        if rung:
            np.fill_diagonal(a, diag + r0 * 2.0 ** (rung - 1))
        chol, info = dpotrf(a, lower=1, overwrite_a=1)
        if info == 0:
            s = dpotrs(chol, grad, lower=1)[0]
            if np.dot(s, grad) > 0:
                return s, rung > 0, chol
        return None

    # gallop to a working rung, then bisect down to the rung above the
    # highest failure; a non-finite r0 comes from a non-finite neg_hess,
    # which no ridge mends
    failed, rung = -1, 0
    while (found := attempt(rung)) is None:
        if rung == _RIDGE_RUNGS - 1 or not np.isfinite(r0):
            raise IndefiniteHessian("could not regularize the Hessian into an "
                                    "ascent direction")
        failed, rung = rung, min(max(2 * rung, 1), _RIDGE_RUNGS - 1)
    while rung - failed > 1:
        mid = (failed + rung) // 2
        trial = attempt(mid)
        if trial is None:
            failed = mid
        else:
            rung, found = mid, trial
    return found


def _maximize(post: LogPosterior, init, tol, max_iter, lower=None):
    """Projected Newton ascent of post.value above lower (a scalar, a per-
    coordinate array or None).  NonFiniteLogDensity at a start of no finite
    value; IndefiniteHessian when the (ridged) Newton line search fails."""
    if not 0 < tol < np.inf:
        raise ValueError("tol must be a finite positive number")
    theta = np.asarray(init, dtype=float).copy()
    d = theta.shape[0]
    lower = np.broadcast_to(-np.inf if lower is None else lower, d).astype(float)
    theta = np.maximum(theta, lower)
    used_ridge = False
    # nan_to_num keeps the margin finite, so an infinite bound stays infinite
    lo_thr = lower + _BOUND_EPS * np.maximum(1.0, np.abs(np.nan_to_num(lower)))
    # one value per point: an accepted trial's f1 becomes the next f0
    f0 = post.value(theta)
    if not np.isfinite(f0):
        raise NonFiniteLogDensity(f"log posterior is {f0} at the start {theta}")
    # free coordinates and Cholesky factor of the last Newton direction
    last = None
    for it in range(1, max_iter + 1):
        g = post.grad(theta)
        pinned = (theta <= lo_thr) & (g < 0)
        free = ~pinned
        if not np.any(free):
            raise BoundaryStuck(
                "all coordinates pinned to the lower bound with outward gradient")
        gnorm = np.linalg.norm(g[free])
        size = max(1.0, np.linalg.norm(theta))
        idx = np.where(free)[0]
        # a small gradient on a flat posterior can sit far from the maximum,
        # so the Newton step through the last factor must be small too; with
        # no factor for these free coordinates the gradient decides alone
        if gnorm < tol * size and (
                last is None or not np.array_equal(last[0], idx)
                or np.linalg.norm(dpotrs(last[1], g[idx], lower=1)[0])
                < tol * size):
            return theta, {"iterations": it - 1, "final_grad_norm": gnorm,
                           "converged": True, "bound_active": bool(np.any(pinned)),
                           "ridge_used": used_ridge}
        h = post.hess(theta)
        if idx.size < d:  # the free block: two takes cost half of one np.ix_
            h = h[idx][:, idx]
        step_free, ridged, chol = _newton_direction(-h, g[idx])
        last = (idx, chol)
        used_ridge = used_ridge or ridged
        step = np.zeros(d)
        step[idx] = step_free
        # in the quadratic endgame the predicted gain falls below the float
        # resolution of f0; line search cannot verify it, so trust Newton
        if np.dot(g, step) <= 1e-12 * max(1.0, abs(f0)):
            trial = np.maximum(theta + step, lower)
            f1 = post.value(trial)
            if np.isfinite(f1):
                theta, f0 = trial, f1
                continue
        for k in range(60):
            trial = np.maximum(theta + 0.5**k * step, lower)
            f1 = post.value(trial)
            if np.isfinite(f1) and f1 >= f0 + _ARMIJO_C * np.dot(g, trial - theta):
                break
        else:
            raise IndefiniteHessian("line search found no ascent along the "
                                    "Newton direction")
        theta, f0 = trial, f1
    raise NotConverged(f"no convergence in {max_iter} iterations",
                       result=EstimateResult(theta, "MLE",
                                             {"iterations": max_iter,
                                              "converged": False}))


# ---------------------------------------------------------------------------
# public estimators


def mle(model: ModelSpec, data: Dataset, init=None, tol: float = 1e-8,
        max_iter: int = 500) -> EstimateResult:
    """Maximum-likelihood estimate by damped Newton ascent.

    The objective is the log-likelihood sum, so tol is scaled by n.
    """
    init = check_point(model, model.default_init(data) if init is None else init)
    theta, diag = _maximize(LogPosterior(model, data, uniform_prior()), init,
                            tol * data.n, max_iter)
    return EstimateResult(theta, "MLE", diag)


def map_estimate(model: ModelSpec, data: Dataset, prior: PriorSpec, init=None,
                 tol: float = 1e-8, lower=None,
                 max_iter: int = 500) -> EstimateResult:
    """MAP estimate: maximizes n * avg log-likelihood + log prior.

    lower, a scalar or per-coordinate array, bounds the projected Newton
    search from below; it defaults to the prior's opt_lower.
    """
    init = check_point(model, model.default_init(data) if init is None else init)
    if lower is None:
        lower = prior.opt_lower
    try:
        theta, diag = _maximize(LogPosterior(model, data, prior), init, tol,
                                max_iter, lower)
    except NotConverged as exc:
        exc.result.method = "MAP"
        exc.result.diagnostics["prior"] = prior.label
        raise
    diag["prior"] = prior.label
    return EstimateResult(theta, "MAP", diag)


def calibrate_pm_from_map(model: ModelSpec, data: Dataset, map_est,
                          information: str = "fisher", lower=None,
                          prior_gap=None) -> EstimateResult:
    """One-step posterior-mean calibration from a MAP estimate.

    Adds (1/2n) g^{ab} g^{cd} (1/n) sum_t d^3 log p(y_t) to the MAP point.
    Valid as stated when the posterior-mean and MAP priors coincide; the
    experimental prior_gap=(pm, map) option adds the general first-order gap
    term (1/n) g^{ab} d_b log(pm/map).  information picks g: "fisher" (the
    model's Fisher metric) or "observed" (minus the average Hessian).  A MAP
    within 1e-10 of lower (a scalar or per-coordinate array) is BoundaryPoint.
    """
    theta = check_point(model, np.asarray(map_est, dtype=float))
    if lower is not None and np.any(theta <= np.asarray(lower, float) + 1e-10):
        raise BoundaryPoint("MAP estimate pinned to a bound; calibration invalid")
    n = data.n
    if information == "fisher":
        g = model.fisher(theta)
    elif information == "observed":
        g = -model.avg_hess(data, theta)
    else:
        raise ValueError(f"unknown information choice {information!r}")
    g_inv = _invert_metric(g)
    t3 = third_derivative_tensor(model, data, theta)
    corr = 0.5 / n * np.einsum("ab,cd,bcd->a", g_inv, g_inv, t3)
    diag = {"information": information, "n": n}
    if prior_gap is not None:
        pm, mp = prior_gap
        corr = corr + g_inv @ (pm.log_grad(theta) - mp.log_grad(theta)) / n
        diag["prior_gap"] = f"{pm.label}|{mp.label}"
        diag["experimental"] = True
    return EstimateResult(theta + corr, "CALIBRATED", diag)


def laplace_posterior_expectation(model: ModelSpec, data: Dataset,
                                  prior: PriorSpec, f, theta_hat) -> np.ndarray:
    """Second-order Laplace approximation of posterior expectations.

    theta_hat must be the MLE.  f is a Statistic or a sequence of them; None
    selects the identity (posterior mean of each coordinate).
    """
    theta = check_point(model, np.asarray(theta_hat, dtype=float))
    n = data.n
    J_inv = _invert_metric(-model.avg_hess(data, theta))
    t3 = model.avg_third(data, theta)
    skew_vec = np.einsum("ab,cd,bcd->a", J_inv, J_inv, t3)
    pgrad = prior.log_grad(theta)
    stats: Sequence[Statistic]
    if f is None:
        stats = identity_statistics(model.dim)
    elif isinstance(f, Statistic):
        stats = [f]
    else:
        stats = list(f)
    out = np.empty(len(stats))
    for i, s in enumerate(stats):
        fg = s.grad(theta)
        fh = s.hess(theta)
        out[i] = (s.value(theta)
                  + 0.5 / n * (np.einsum("ab,ab->", J_inv, fh)
                               + 2.0 * fg @ J_inv @ pgrad)
                  + 0.5 / n * fg @ skew_vec)
    return out


def statistic_matching_residual(model: ModelSpec, prior_pm: PriorSpec,
                                prior_map: PriorSpec, f: Statistic, theta,
                                **geo_kwargs) -> np.ndarray:
    """Residual matrix of the general-statistic matching condition.

    R[a, b] = d_a f * (d_b log(pm/map) - d_b log pi_J - (1/2) g^{cd} G^e_{cdb})
              - (1/2) d_a d_b f.  Zero certifies that the posterior
    expectation of f matches f at the MAP estimate to first order.
    """
    theta = check_point(model, np.asarray(theta, dtype=float))
    pair = MatchingPair(prior_pm, prior_map, "verified-by-residual")
    delta = matching_residual(pair, model, theta, **geo_kwargs)
    return np.outer(f.grad(theta), delta) - 0.5 * f.hess(theta)
