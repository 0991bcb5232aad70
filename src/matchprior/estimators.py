"""Point estimation: MLE, MAP, one-step calibration, and Laplace expansions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (BoundaryPoint, BoundaryStuck, IndefiniteHessian,
                     NotConverged)
from .geometry import _invert_metric, geometry_at, jeffreys_log_grad
from .models import (Dataset, ModelSpec, central_difference, check_point,
                     third_derivative_tensor)
from .priors import PriorSpec

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
# Newton-type maximization with optional box bounds


def _prior_hess(prior: PriorSpec, theta, h=1e-6):
    if prior.log_hess is not None:
        return prior.log_hess(theta)
    out = central_difference(prior.log_grad, theta, h)
    return 0.5 * (out + out.T)


def _project(theta, lower, upper):
    return np.clip(theta, lower, upper)


def _newton_direction(neg_hess, grad):
    """Solve neg_hess @ s = grad with ridge escalation until PD."""
    d = grad.shape[0]
    scale = max(np.max(np.abs(neg_hess)), 1.0)
    ridge = 0.0
    for _ in range(40):
        try:
            chol = np.linalg.cholesky(neg_hess + ridge * np.eye(d))
            s = np.linalg.solve(chol.T, np.linalg.solve(chol, grad))
            if np.dot(s, grad) > 0:
                return s, ridge > 0
        except np.linalg.LinAlgError:
            pass
        ridge = max(2.0 * ridge, 1e-10 * scale)
    raise IndefiniteHessian("could not regularize the Hessian into an ascent direction")


def _maximize(value_fn, grad_fn, hess_fn, init, tol, max_iter, in_support,
              lower=None, upper=None):
    theta = np.asarray(init, dtype=float).copy()
    d = theta.shape[0]
    lower = np.full(d, -np.inf) if lower is None else np.asarray(lower, float)
    upper = np.full(d, np.inf) if upper is None else np.asarray(upper, float)
    theta = _project(theta, lower, upper)
    used_ridge = False
    lo_thr = np.full(d, -np.inf)
    fin = np.isfinite(lower)
    lo_thr[fin] = lower[fin] + _BOUND_EPS * np.maximum(1.0, np.abs(lower[fin]))
    hi_thr = np.full(d, np.inf)
    fin = np.isfinite(upper)
    hi_thr[fin] = upper[fin] - _BOUND_EPS * np.maximum(1.0, np.abs(upper[fin]))
    for it in range(1, max_iter + 1):
        g = grad_fn(theta)
        at_lo = theta <= lo_thr
        at_hi = theta >= hi_thr
        pinned = (at_lo & (g < 0)) | (at_hi & (g > 0))
        free = ~pinned
        if not np.any(free):
            raise BoundaryStuck(
                "all coordinates pinned to bounds with outward gradient")
        gnorm = np.linalg.norm(g[free])
        scaled = gnorm / max(1.0, np.linalg.norm(theta))
        if scaled < tol:
            return theta, {"iterations": it - 1, "final_grad_norm": gnorm,
                           "converged": True, "bound_active": bool(np.any(pinned)),
                           "ridge_used": used_ridge}
        h_full = hess_fn(theta)
        idx = np.where(free)[0]
        step_free, ridged = _newton_direction(-h_full[np.ix_(idx, idx)], g[idx])
        used_ridge = used_ridge or ridged
        step = np.zeros(d)
        step[idx] = step_free
        f0 = value_fn(theta)
        # in the quadratic endgame the predicted gain falls below the float
        # resolution of f0; line search cannot verify it, so trust Newton
        if np.dot(g, step) <= 1e-12 * max(1.0, abs(f0)):
            trial = _project(theta + step, lower, upper)
            if in_support(trial) and np.isfinite(value_fn(trial)):
                theta = trial
                continue
        t = 1.0
        ok = False
        for _ in range(60):
            trial = _project(theta + t * step, lower, upper)
            if in_support(trial):
                disp = trial - theta
                f1 = value_fn(trial)
                if np.isfinite(f1) and f1 >= f0 + _ARMIJO_C * np.dot(g, disp):
                    theta = trial
                    ok = True
                    break
            t *= 0.5
        if not ok:
            # Newton direction failed in line search; retry with plain gradient.
            t = 1.0 / max(1.0, np.linalg.norm(g))
            for _ in range(60):
                trial = _project(theta + t * g, lower, upper)
                if in_support(trial):
                    f1 = value_fn(trial)
                    if np.isfinite(f1) and f1 > f0:
                        theta = trial
                        ok = True
                        break
                t *= 0.5
            if not ok:
                raise IndefiniteHessian(
                    "neither Newton nor gradient ascent could make progress")
    raise NotConverged(f"no convergence in {max_iter} iterations",
                       result=EstimateResult(theta, "MLE",
                                             {"iterations": max_iter,
                                              "converged": False}))


# ---------------------------------------------------------------------------
# public estimators


def mle(model: ModelSpec, data: Dataset, init=None, tol: float = 1e-8,
        max_iter: int = 500) -> EstimateResult:
    """Maximum-likelihood estimate by damped Newton ascent."""
    if init is None:
        init = model.default_init(data)
    init = check_point(model, init)
    theta, diag = _maximize(
        lambda th: model.avg_loglik(data, th),
        lambda th: model.avg_grad(data, th),
        lambda th: model.avg_hess(data, th),
        init, tol, max_iter, model.in_support)
    return EstimateResult(theta, "MLE", diag)


def map_estimate(model: ModelSpec, data: Dataset, prior: PriorSpec, init=None,
                 tol: float = 1e-8, bounds=None,
                 max_iter: int = 500) -> EstimateResult:
    """MAP estimate: maximizes n * avg log-likelihood + log prior.

    bounds, if given, is a (lower, upper) pair of per-coordinate arrays (use
    None entries for unbounded sides); optimization is projected Newton.
    """
    n = data.n
    if init is None:
        init = model.default_init(data)
    init = np.asarray(init, dtype=float)
    lower = upper = None
    if bounds is None and prior.opt_lower is not None:
        bounds = (prior.opt_lower, None)
    if bounds is not None:
        lo, hi = bounds
        lower = None if lo is None else np.broadcast_to(
            np.asarray(lo, float), (model.dim,)).copy()
        upper = None if hi is None else np.broadcast_to(
            np.asarray(hi, float), (model.dim,)).copy()
        if lower is not None:
            init = np.maximum(init, lower)
        if upper is not None:
            init = np.minimum(init, upper)

    def inside(th):
        return model.in_support(th) and prior.contains(th)

    theta, diag = _maximize(
        lambda th: n * model.avg_loglik(data, th) + prior.log_density(th),
        lambda th: n * model.avg_grad(data, th) + prior.log_grad(th),
        lambda th: n * model.avg_hess(data, th) + _prior_hess(prior, th),
        init, tol, max_iter, inside, lower, upper)
    diag["prior"] = prior.label
    return EstimateResult(theta, "MAP", diag)


def calibrate_pm_from_map(model: ModelSpec, data: Dataset, map_est,
                          information: str = "fisher", bounds=None,
                          prior_gap=None) -> EstimateResult:
    """One-step posterior-mean calibration from a MAP estimate.

    Adds (1/2n) g^{ab} g^{cd} (1/n) sum_t d^3 log p(y_t) to the MAP point.
    Valid as stated when the posterior-mean and MAP priors coincide; the
    experimental prior_gap=(pm, map) option adds the general first-order gap
    term (1/n) g^{ab} d_b log(pm/map).  information picks g: "fisher" (the
    model's Fisher metric) or "observed" (minus the average Hessian).
    """
    theta = check_point(model, np.asarray(map_est, dtype=float))
    if bounds is not None:
        lo, hi = bounds
        if lo is not None and np.any(theta <= np.asarray(lo, float) + 1e-10):
            raise BoundaryPoint("MAP estimate pinned to a bound; calibration invalid")
        if hi is not None and np.any(theta >= np.asarray(hi, float) - 1e-10):
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
    rep = geometry_at(model, theta, **geo_kwargs)
    jeff = jeffreys_log_grad(model, theta)
    delta = (prior_pm.log_grad(theta) - prior_map.log_grad(theta) - jeff
             - 0.5 * np.einsum("cd,cdb->b", rep.g_inv, rep.gamma_e))
    return np.outer(f.grad(theta), delta) - 0.5 * f.hess(theta)
