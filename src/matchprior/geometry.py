"""Pointwise information-geometric quantities.

Computes the Fisher metric, e/m/alpha-connection coefficients, the skewness
tensor and its contraction, and the log-gradients of Jeffreys and
alpha-parallel priors at a parameter point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularFisher, StepTooLarge
from .models import ModelSpec, check_point

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
    cond = np.linalg.cond(g)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SingularFisher(f"Fisher matrix condition number {cond:.3g}")
    g_inv = np.linalg.inv(g)
    return 0.5 * (g_inv + g_inv.T)


def geometry_at(model: ModelSpec, theta, method: str = "analytic",
                seed: int | None = None, draws: int = 200_000) -> GeometryReport:
    """Evaluate metric, connections, and skewness tensor at theta.

    For registered flat families everything is analytic; otherwise the
    defining expectations are estimated by seeded Monte Carlo.
    """
    theta = check_point(model, theta)
    if method == "analytic" and model.skewness(theta) is not None:
        g = model.fisher(theta)
        T = model.skewness(theta)
        if model.family in ("exponential-family-natural", "glm-canonical"):
            gamma_e = np.zeros_like(T)
            gamma_m = T.copy()
        elif model.family == "exponential-family-mean":
            gamma_m = np.zeros_like(T)
            gamma_e = -T
        else:
            raise ValueError(f"no analytic connection rule for family {model.family}")
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


def central_difference(fn, theta, h: float, in_support=None) -> np.ndarray:
    """out[a] = (fn(theta + h_a e_a) - fn(theta - h_a e_a)) / (2 h_a).

    The step is relative, h_a = h * max(1, |theta_a|).  With in_support given,
    a probe outside it raises StepTooLarge.
    """
    out = []
    for a in range(theta.shape[0]):
        ha = h * max(1.0, abs(theta[a]))
        up = theta.copy()
        dn = theta.copy()
        up[a] += ha
        dn[a] -= ha
        if in_support is not None and not (in_support(up) and in_support(dn)):
            raise StepTooLarge(f"difference probe left support at coordinate {a}")
        out.append((fn(up) - fn(dn)) / (2.0 * ha))
    return np.array(out)


def fisher_matrix_grad(model: ModelSpec, theta, h: float = 1e-5) -> np.ndarray:
    """d g_bc / d theta_a, analytic when the model provides it, else central FD."""
    theta = check_point(model, theta)
    dg = model.fisher_grad(theta)
    if dg is not None:
        return dg
    return central_difference(model.fisher, theta, h, model.in_support)


def jeffreys_log_grad(model: ModelSpec, theta) -> np.ndarray:
    """Gradient of log pi_J: (1/2) tr(g^{-1} d_a g) per coordinate."""
    theta = check_point(model, theta)
    g_inv = _invert_metric(model.fisher(theta))
    dg = fisher_matrix_grad(model, theta)
    return 0.5 * np.einsum("bc,abc->a", g_inv, dg)


def jeffreys_log_hess(model: ModelSpec, theta) -> np.ndarray:
    """Hessian of log pi_J.

    (1/2)[g^{cd} d_a d_b g_cd - tr(g^{-1} d_a g g^{-1} d_b g)] in closed form
    when the model provides fisher_hess, else central differences of
    jeffreys_log_grad.
    """
    theta = check_point(model, theta)
    d2g = model.fisher_hess(theta)
    if d2g is None:
        out = central_difference(lambda th: jeffreys_log_grad(model, th), theta,
                                 1e-6, model.in_support)
        return 0.5 * (out + out.T)
    g_inv = _invert_metric(model.fisher(theta))
    a = g_inv @ fisher_matrix_grad(model, theta)  # a[k] = g^{-1} d_k g
    hess = 0.5 * (np.tensordot(d2g, g_inv, axes=([2, 3], [0, 1]))
                  - np.einsum("aij,bji->ab", a, a))
    return 0.5 * (hess + hess.T)


def jeffreys_log_density(model: ModelSpec, theta) -> float:
    """log pi_J = (1/2) log det g (up to an additive constant)."""
    theta = check_point(model, theta)
    sign, logdet = np.linalg.slogdet(model.fisher(theta))
    if sign <= 0:
        raise SingularFisher("Fisher matrix not positive definite")
    return 0.5 * logdet


def alpha_parallel_log_grad(report: GeometryReport, alpha: float) -> np.ndarray:
    """Contracted alpha-connection Gamma^(alpha)_ab^b; alpha=0 gives Jeffreys."""
    gam = alpha_connection(report, alpha)
    return np.einsum("abe,be->a", gam, report.g_inv)


def equiaffinity_residual(model: ModelSpec, theta, h: float,
                          **geo_kwargs) -> np.ndarray:
    """Antisymmetric part of the finite-difference Jacobian of T_a.

    Near-zero output certifies statistical equi-affinity locally.
    """
    theta = check_point(model, theta)
    if h <= 0:
        raise StepTooLarge(f"step h={h} must be positive")
    d = model.dim
    jac = np.zeros((d, d))
    for a in range(d):
        up = theta.copy()
        dn = theta.copy()
        up[a] += h
        dn[a] -= h
        if not (model.in_support(up) and model.in_support(dn)):
            raise StepTooLarge(f"equi-affinity probe left support at coordinate {a}")
        t_up = geometry_at(model, up, **geo_kwargs).T_contracted
        t_dn = geometry_at(model, dn, **geo_kwargs).T_contracted
        jac[a] = (t_up - t_dn) / (2.0 * h)
    return jac - jac.T
