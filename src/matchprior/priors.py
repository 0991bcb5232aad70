"""Prior catalog and matching-pair constructors.

All densities are stored un-normalized (the theory is invariant to constants;
several priors here are improper).  Matching partners are built by dividing a
posterior-mean prior by the Jeffreys prior (e-flat coordinates) or its square
(m-flat coordinates); a 1-D quadrature constructor covers the general
one-dimensional case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import FamilyMismatch, InvalidHyperparameter, SupportMismatch
from .geometry import (GeometryReport, geometry_at, jeffreys_log_density,
                       jeffreys_log_grad, jeffreys_log_hess)
from .models import ModelSpec, box_bounds, in_open_box


@dataclass(frozen=True)
class PriorSpec:
    """Possibly-improper prior defined up to a multiplicative constant."""

    label: str
    log_density: Callable[[np.ndarray], float]
    log_grad: Callable[[np.ndarray], np.ndarray]
    proper: bool
    support: list | None = None  # None: inherit the model support
    log_hess: Callable[[np.ndarray], np.ndarray] | None = None
    # advisory lower bound for optimizers (e.g. the shrinkage-prior floor)
    opt_lower: np.ndarray | None = None

    def __post_init__(self):
        if self.support is not None:
            object.__setattr__(self, "_bounds", box_bounds(self.support))

    def contains(self, theta) -> bool:
        if self.support is None:
            return True
        theta = np.atleast_1d(theta)
        if len(self.support) not in (1, theta.shape[0]):
            return False
        return in_open_box(theta, self._bounds)


@dataclass(frozen=True)
class MatchingPair:
    """A (posterior-mean prior, MAP prior) pair with its construction tag."""

    pm: PriorSpec
    map: PriorSpec
    construction: str  # e-flat | m-flat | alpha-affine(a) | verified-by-residual


# ---------------------------------------------------------------------------
# basic catalog


def uniform_prior(label="uniform") -> PriorSpec:
    return PriorSpec(label,
                     lambda th: 0.0,
                     lambda th: np.zeros(np.atleast_1d(th).shape[0]),
                     proper=False,
                     log_hess=lambda th: np.zeros((np.atleast_1d(th).shape[0],) * 2))


def normal_prior(mean=0.0, var=1.0, label=None) -> PriorSpec:
    if var <= 0:
        raise InvalidHyperparameter(f"variance {var} must be positive")
    mean = float(mean)
    var = float(var)
    label = label or f"normal({mean:g},{var:g})"

    def logd(th):
        th = np.atleast_1d(th)
        return float(-0.5 * np.sum((th - mean) ** 2) / var)

    def grad(th):
        th = np.atleast_1d(th)
        return -(th - mean) / var

    def hess(th):
        d = np.atleast_1d(th).shape[0]
        return -np.eye(d) / var

    return PriorSpec(label, logd, grad, proper=True, log_hess=hess)


def gamma_prior(a, b, label=None) -> PriorSpec:
    """Product of iid Gamma(a, rate=b) over the coordinates."""
    if a <= 0 or b <= 0:
        raise InvalidHyperparameter(f"gamma prior needs a,b > 0, got {a},{b}")
    label = label or f"gamma({a:g},{b:g})"

    def logd(th):
        th = np.atleast_1d(th)
        return float(np.sum((a - 1.0) * np.log(th) - b * th))

    def grad(th):
        th = np.atleast_1d(th)
        return (a - 1.0) / th - b

    def hess(th):
        th = np.atleast_1d(th)
        return np.diag(-(a - 1.0) / th**2)

    return PriorSpec(label, logd, grad, proper=True,
                     support=[(0.0, np.inf)], log_hess=hess)


def invgamma_prior(a, b, label=None) -> PriorSpec:
    if a <= 0 or b <= 0:
        raise InvalidHyperparameter(f"invgamma prior needs a,b > 0, got {a},{b}")
    label = label or f"invgamma({a:g},{b:g})"

    def logd(th):
        th = np.atleast_1d(th)
        return float(np.sum(-(a + 1.0) * np.log(th) - b / th))

    def grad(th):
        th = np.atleast_1d(th)
        return -(a + 1.0) / th + b / th**2

    def hess(th):
        th = np.atleast_1d(th)
        return np.diag((a + 1.0) / th**2 - 2.0 * b / th**3)

    return PriorSpec(label, logd, grad, proper=True,
                     support=[(0.0, np.inf)], log_hess=hess)


def jeffreys_prior(model: ModelSpec, label="jeffreys") -> PriorSpec:
    return PriorSpec(label,
                     lambda th: jeffreys_log_density(model, th),
                     lambda th: jeffreys_log_grad(model, th),
                     proper=False,
                     support=list(model.support))


def komaki_prior(beta_vec, alpha_exp, floor=0.0) -> PriorSpec:
    """Shrinkage prior prod lambda_i^(beta_i - 1) / (sum lambda)^alpha."""
    beta_vec = np.atleast_1d(np.asarray(beta_vec, dtype=float))
    if np.any(beta_vec <= 0):
        raise InvalidHyperparameter("komaki prior needs beta > 0 elementwise")
    if alpha_exp <= 0:
        raise InvalidHyperparameter("komaki prior needs alpha > 0")
    if floor < 0:
        raise InvalidHyperparameter("floor must be nonnegative")
    d = beta_vec.shape[0]
    label = f"komaki(beta={beta_vec[0]:g}...,alpha={alpha_exp:g})"

    def logd(th):
        th = np.atleast_1d(th)
        return float(np.sum((beta_vec - 1.0) * np.log(th))
                     - alpha_exp * np.log(np.sum(th)))

    def grad(th):
        th = np.atleast_1d(th)
        return (beta_vec - 1.0) / th - alpha_exp / np.sum(th)

    def hess(th):
        th = np.atleast_1d(th)
        s = np.sum(th)
        return np.diag(-(beta_vec - 1.0) / th**2) + alpha_exp / s**2

    # floor is an optimization bound, not a density support restriction:
    # points sitting exactly on the floor must remain evaluable
    return PriorSpec(label, logd, grad, proper=False,
                     support=[(0.0, np.inf)] * d, log_hess=hess,
                     opt_lower=np.full(d, floor) if floor > 0 else None)


# ---------------------------------------------------------------------------
# matching-pair constructors


# families whose coordinates are e-flat (power 1) or m-flat (power 2)
_FLAT_FAMILIES = {1: ("e-flat", ("exponential-family-natural", "glm-canonical")),
                  2: ("m-flat", ("exponential-family-mean",))}


def jeffreys_power_partner(prior: PriorSpec, model: ModelSpec,
                           power: int) -> PriorSpec:
    """prior * pi_J^power, the matching partner in flat coordinates.

    power -1 turns a PM prior into its MAP partner for e-flat coordinates and
    -2 for m-flat ones; +1 and +2 go back from a MAP prior to the PM prior.
    The partner has a closed-form log_hess whenever the prior has one.
    """
    if abs(power) not in _FLAT_FAMILIES:
        raise ValueError(f"Jeffreys power must be 1 or 2 in size, got {power}")
    flat, families = _FLAT_FAMILIES[abs(power)]
    if model.family not in families:
        raise FamilyMismatch(
            f"family {model.family} is not {flat} in these coordinates")
    k = float(power)
    name = "jeffreys" if abs(power) == 1 else "jeffreys2"
    log_hess = None
    if prior.log_hess is not None:
        def log_hess(th):
            return prior.log_hess(th) + k * jeffreys_log_hess(model, th)
    return PriorSpec(
        prior.label + ("/" if power < 0 else "*") + name,
        lambda th: prior.log_density(th) + k * jeffreys_log_density(model, th),
        lambda th: prior.log_grad(th) + k * jeffreys_log_grad(model, th),
        proper=False,
        support=prior.support if prior.support is not None else list(model.support),
        log_hess=log_hess)


def eflat_map_partner(pm: PriorSpec, model: ModelSpec) -> PriorSpec:
    """MAP partner for e-flat coordinates: divide pm by the Jeffreys prior."""
    return jeffreys_power_partner(pm, model, -1)


def mflat_map_partner(pm: PriorSpec, model: ModelSpec) -> PriorSpec:
    """MAP partner for m-flat coordinates: divide pm by the squared Jeffreys prior."""
    return jeffreys_power_partner(pm, model, -2)


def mflat_pm_partner(map_prior: PriorSpec, model: ModelSpec) -> PriorSpec:
    """Inverse direction of mflat_map_partner: the PM prior for a given MAP prior."""
    return jeffreys_power_partner(map_prior, model, 2)


def coords_multiplied(prior: PriorSpec, model: ModelSpec | None = None) -> PriorSpec:
    """Multiply a prior by the product of the coordinates (lambda * pi)."""
    return PriorSpec(
        prior.label + "*coords",
        lambda th: prior.log_density(th) + float(np.sum(np.log(np.atleast_1d(th)))),
        lambda th: prior.log_grad(th) + 1.0 / np.atleast_1d(th),
        proper=False,
        support=prior.support if prior.support is not None else [(0.0, np.inf)])


def matching_residual(pair: MatchingPair, model: ModelSpec, theta,
                      **geo_kwargs) -> np.ndarray:
    """Left side of the asymptotic matching condition; zero certifies the pair.

    residual_a = d_a log(pm/map) - (d_a log pi_J + (1/2) g^{cd} Gamma^e_{cda}).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if not (pair.pm.contains(theta) and pair.map.contains(theta)):
        raise SupportMismatch(f"{theta} outside a prior support of the pair")
    rep = geometry_at(model, theta, **geo_kwargs)
    jeff = jeffreys_log_grad(model, theta)
    econ = 0.5 * np.einsum("cd,cda->a", rep.g_inv, rep.gamma_e)
    return pair.pm.log_grad(theta) - pair.map.log_grad(theta) - jeff - econ


def alpha_pair_target_grad(report: GeometryReport, alpha: float) -> np.ndarray:
    """Target gradient of log(pm/map): d log pi_J - ((1-alpha)/4) T_a."""
    gamma0 = report.gamma_m - 0.5 * report.T
    jeff = np.einsum("abe,be->a", gamma0, report.g_inv)
    return jeff - 0.25 * (1.0 - alpha) * report.T_contracted


def matching_pair_1d(pm: PriorSpec, model: ModelSpec, theta0: float,
                     abs_tol: float = 1e-10) -> MatchingPair:
    """General 1-D construction by quadrature of the matching ODE.

    log(pm/map)(t) = log pi_J(t) + int_{theta0}^{t} (1/2) g^{11} Gamma^e_111.
    """
    if model.dim != 1:
        raise FamilyMismatch("quadrature construction only applies to 1-D models")

    def econ_integrand(t):
        rep = geometry_at(model, np.array([t]))
        return 0.5 * rep.g_inv[0, 0] * rep.gamma_e[0, 0, 0]

    def log_ratio(th):
        t = float(np.atleast_1d(th)[0])
        integral, _ = quad(econ_integrand, theta0, t, epsabs=abs_tol)
        return jeffreys_log_density(model, np.atleast_1d(th)) + integral

    def ratio_grad(th):
        t = float(np.atleast_1d(th)[0])
        return jeffreys_log_grad(model, np.atleast_1d(th)) \
            + np.array([econ_integrand(t)])

    partner = PriorSpec(
        pm.label + "/ode",
        lambda th: pm.log_density(th) - log_ratio(th),
        lambda th: pm.log_grad(th) - ratio_grad(th),
        proper=False,
        support=pm.support if pm.support is not None else list(model.support))
    return MatchingPair(pm, partner, "alpha-affine(1d-quadrature)")


# ---------------------------------------------------------------------------
# string catalog


def parse_prior(text: str, model: ModelSpec | None = None) -> PriorSpec:
    """Resolve a config-file prior name.

    Grammar: normal(mean,var) | gamma(a,b) | invgamma(a,b) | jeffreys |
    uniform | komaki(beta,alpha,floor) with derived forms <name>/jeffreys,
    <name>/jeffreys2 and <name>*coords.
    """
    text = text.strip()
    if text.endswith("/jeffreys2"):
        base = parse_prior(text[:-len("/jeffreys2")], model)
        return mflat_map_partner(base, _require_model(model, text))
    if text.endswith("/jeffreys"):
        base = parse_prior(text[:-len("/jeffreys")], model)
        return eflat_map_partner(base, _require_model(model, text))
    if text.endswith("*coords"):
        base = parse_prior(text[:-len("*coords")], model)
        return coords_multiplied(base, model)
    if text == "uniform":
        return uniform_prior()
    if text == "jeffreys":
        return jeffreys_prior(_require_model(model, text))
    name, args = _split_call(text)
    if name == "normal":
        return normal_prior(*args)
    if name == "gamma":
        return gamma_prior(*args)
    if name == "invgamma":
        return invgamma_prior(*args)
    if name == "komaki":
        if model is None:
            raise ValueError("komaki prior needs a model to fix its dimension")
        beta, alpha = args[0], args[1]
        floor = args[2] if len(args) > 2 else 0.0
        return komaki_prior(np.full(model.dim, beta), alpha, floor)
    raise ValueError(f"unknown prior expression {text!r}")


def _require_model(model, text):
    if model is None:
        raise ValueError(f"prior {text!r} needs a model context")
    return model


def _split_call(text):
    if "(" not in text or not text.endswith(")"):
        raise ValueError(f"malformed prior expression {text!r}")
    name, rest = text.split("(", 1)
    args = [float(v) for v in rest[:-1].split(",") if v.strip()]
    return name.strip(), args
