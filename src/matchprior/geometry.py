"""Pointwise information-geometric quantities.

Computes the Fisher metric, e/m/alpha-connection coefficients, the skewness
tensor and its contraction, and the log-gradients of Jeffreys and
alpha-parallel priors at a parameter point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SingularFisher, StepTooLarge
from .models import ModelSpec, central_difference, check_point

COND_LIMIT = 1e12


@dataclass(frozen=True)
class GeometryReport:
    """Metric and connection coefficients evaluated at one point."""

    g: np.ndarray
    g_inv: np.ndarray
    gamma_e: np.ndarray
    gamma_m: np.ndarray
    T: np.ndarray
    T_contracted: np.ndarray
    at: np.ndarray
    method: str = "analytic"
    seed: int | None = None
    mc_se: dict = field(default_factory=dict)

    def to_dict(self):
        out = {
            "g": self.g.tolist(),
            "g_inv": self.g_inv.tolist(),
            "gamma_e": self.gamma_e.tolist(),
            "gamma_m": self.gamma_m.tolist(),
            "T": self.T.tolist(),
            "T_a": self.T_contracted.tolist(),
            "at": self.at.tolist(),
            "method": self.method,
            "seed": self.seed,
        }
        return out


def _invert_metric(g):
    """Inverse of a symmetric positive definite matrix from one eigh.

    Raises SingularFisher unless g is finite, its eigenvalues are positive
    and their ratio max/min is at most COND_LIMIT.
    """
    if not np.all(np.isfinite(g)):
        raise SingularFisher("information matrix has non-finite entries")
    w, v = np.linalg.eigh(g)
    if not (w[0] > 0 and w[-1] <= COND_LIMIT * w[0]):
        raise SingularFisher(f"information matrix eigenvalues span "
                             f"[{w[0]:.3g}, {w[-1]:.3g}]: not positive definite "
                             f"or condition number above {COND_LIMIT:.0e}")
    return (v / w) @ v.T


def geometry_at(model: ModelSpec, theta, method: str = "analytic",
                seed: int | None = None, draws: int = 200_000) -> GeometryReport:
    """Evaluate metric, connections, and skewness tensor at theta.

    "analytic" on a model with an alpha takes Gamma^e and Gamma^m from T, as
    Gamma^(alpha) = 0 in its alpha-affine coordinates.  "mc", or no alpha,
    estimates the defining expectations by seeded Monte Carlo.
    """
    if method not in ("analytic", "mc"):
        raise ValueError(f"method must be 'analytic' or 'mc', got {method!r}")
    theta = check_point(model, theta)
    if method == "analytic" and model.alpha is not None:
        g = model.fisher(theta)
        T = model.skewness(theta)
        gamma_e = -0.5 * (1.0 - model.alpha) * T
        gamma_m = 0.5 * (1.0 + model.alpha) * T
        g_inv = _invert_metric(g)
        T_a = np.einsum("abc,bc->a", T, g_inv)
        return GeometryReport(g, g_inv, gamma_e, gamma_m, T, T_a, theta, "analytic")

    if seed is None:
        raise ValueError("monte-carlo geometry requires an explicit seed")
    rng = np.random.default_rng(seed)
    data = model.sample(theta, draws, rng)
    score, hess = model.per_obs_score_hess(data, theta)
    g_samples = score[:, :, None] * score[:, None, :]
    g = np.mean(g_samples, axis=0)
    ge_samples = hess[:, :, :, None] * score[:, None, None, :]
    gamma_e = np.mean(ge_samples, axis=0)
    t_samples = (score[:, :, None, None] * score[:, None, :, None]
                 * score[:, None, None, :])
    T = np.mean(t_samples, axis=0)
    gamma_m = gamma_e + T
    mc_se = {
        "g": np.std(g_samples, axis=0) / np.sqrt(draws),
        "gamma_e": np.std(ge_samples, axis=0) / np.sqrt(draws),
        "T": np.std(t_samples, axis=0) / np.sqrt(draws),
    }
    g = 0.5 * (g + g.T)
    g_inv = _invert_metric(g)
    T_a = np.einsum("abc,bc->a", T, g_inv)
    return GeometryReport(g, g_inv, gamma_e, gamma_m, T, T_a, theta,
                          "monte-carlo", seed, mc_se)


def alpha_connection(report: GeometryReport, alpha: float) -> np.ndarray:
    """Gamma^(alpha) = Gamma^(m) - ((1+alpha)/2) T."""
    return report.gamma_m - 0.5 * (1.0 + alpha) * report.T


def fisher_matrix_grad(model: ModelSpec, theta) -> np.ndarray:
    """d g_bc / d theta_a: Gamma^e_abc + Gamma^m_acb = alpha T_abc for a model
    with an alpha, else central differences of fisher."""
    return _fisher_grad(model, check_point(model, theta))


def _fisher_grad(model, theta):
    if model.alpha is not None:
        return model.alpha * model.skewness(theta)
    return central_difference(model.fisher, theta, 1e-5, model.in_support)


class _Jeffreys:
    """log pi_J and its derivatives at one checked point.  g, g^{-1} and
    dg = d_a g_bc are each formed once, on first use, so every quantity
    raises what it would raise alone; fisher_hess is formed per log_hess."""

    def __init__(self, model: ModelSpec, theta):
        self.model = model
        # a copy: the caller may reuse its array for the next point
        self.theta = check_point(model, theta).copy()

    @cached_property
    def g(self):
        return self.model.fisher(self.theta)

    @cached_property
    def g_inv(self):
        return _invert_metric(self.g)

    @cached_property
    def dg(self):
        return _fisher_grad(self.model, self.theta)

    def log_density(self) -> float:
        sign, logdet = np.linalg.slogdet(self.g)
        if sign <= 0:
            raise SingularFisher("Fisher matrix not positive definite")
        return 0.5 * logdet

    def log_grad(self) -> np.ndarray:
        return 0.5 * np.einsum("bc,abc->a", self.g_inv, self.dg)

    def log_hess(self) -> np.ndarray:
        d2g = self.model.fisher_hess(self.theta)
        if d2g is None:
            out = central_difference(
                lambda th: _Jeffreys(self.model, th).log_grad(), self.theta,
                1e-6, self.model.in_support)
            return 0.5 * (out + out.T)
        g_inv = self.g_inv
        a = g_inv @ self.dg  # a[k] = g^{-1} d_k g
        hess = 0.5 * (np.tensordot(d2g, g_inv, axes=([2, 3], [0, 1]))
                      - np.einsum("aij,bji->ab", a, a))
        return 0.5 * (hess + hess.T)


class _JeffreysMemo:
    """The _Jeffreys record of the last point asked for, keyed on the point's
    shape and bytes, so the value, gradient and Hessian at one point share
    one g, g^{-1} and dg.  One (key, record) pair is swapped in whole, so
    threads sharing the memo never see a record under another point's key."""

    def __init__(self, model: ModelSpec):
        self.model = model
        self._last = None

    def __call__(self, theta) -> _Jeffreys:
        arr = np.asarray(theta, dtype=float)
        key = (arr.shape, arr.tobytes())
        last = self._last
        if last is not None and last[0] == key:
            return last[1]
        record = _Jeffreys(self.model, arr)
        self._last = (key, record)
        return record


def jeffreys_log_grad(model: ModelSpec, theta) -> np.ndarray:
    """Gradient of log pi_J: (1/2) tr(g^{-1} d_a g) per coordinate."""
    return _Jeffreys(model, theta).log_grad()


def jeffreys_log_hess(model: ModelSpec, theta) -> np.ndarray:
    """Hessian of log pi_J.

    (1/2)[g^{cd} d_a d_b g_cd - tr(g^{-1} d_a g g^{-1} d_b g)] in closed form
    when the model provides fisher_hess, else central differences of
    jeffreys_log_grad.
    """
    return _Jeffreys(model, theta).log_hess()


def jeffreys_log_density(model: ModelSpec, theta) -> float:
    """log pi_J = (1/2) log det g (up to an additive constant)."""
    return _Jeffreys(model, theta).log_density()


def alpha_parallel_log_grad(report: GeometryReport, alpha: float) -> np.ndarray:
    """Contracted alpha-connection Gamma^(alpha)_ab^b; alpha=0 gives Jeffreys."""
    gam = alpha_connection(report, alpha)
    return np.einsum("abe,be->a", gam, report.g_inv)


def equiaffinity_residual(model: ModelSpec, theta, h: float,
                          **geo_kwargs) -> np.ndarray:
    """Antisymmetric part of the finite-difference Jacobian of T_a.

    Near-zero output certifies statistical equi-affinity locally.  The step
    along coordinate a is relative, h * max(1, |theta_a|), so it equals h
    wherever |theta_a| <= 1.
    """
    theta = check_point(model, theta)
    if h <= 0:
        raise StepTooLarge(f"step h={h} must be positive")
    jac = central_difference(
        lambda th: geometry_at(model, th, **geo_kwargs).T_contracted, theta, h,
        model.in_support)
    return jac - jac.T
