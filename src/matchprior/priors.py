"""Prior catalog and matching-pair constructors.

All densities are stored un-normalized (the theory is invariant to constants;
several priors here are improper).  Every matching partner is one product:
the posterior-mean prior times the Jeffreys prior to the power -1 (e-flat
coordinates) or -2 (m-flat coordinates), or in the general 1-D case divided
by exp of the integrated matching form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad

from .errors import FamilyMismatch, InvalidHyperparameter, SupportMismatch
# jeffreys_log_density and jeffreys_log_grad stay importable from here:
# bench/tracing.py rebinds them under these names
from .geometry import (_JeffreysMemo, alpha_parallel_log_grad, geometry_at,
                       jeffreys_log_density, jeffreys_log_grad)
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


def uniform_prior() -> PriorSpec:
    return PriorSpec("uniform",
                     lambda th: 0.0,
                     lambda th: np.zeros(np.atleast_1d(th).shape[0]),
                     proper=False,
                     log_hess=lambda th: np.zeros((np.atleast_1d(th).shape[0],) * 2))


def normal_prior(mean=0.0, var=1.0) -> PriorSpec:
    mean, var = float(mean), float(var)
    if not (np.isfinite(mean) and 0 < var < np.inf):
        raise InvalidHyperparameter(
            f"normal prior needs a finite mean and variance > 0, got {mean},{var}")
    label = f"normal({mean:g},{var:g})"

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


def gamma_prior(a, b) -> PriorSpec:
    """Product of iid Gamma(a, rate=b) over the coordinates."""
    if not (0 < a < np.inf and 0 < b < np.inf):
        raise InvalidHyperparameter(f"gamma prior needs finite a,b > 0, got {a},{b}")
    label = f"gamma({a:g},{b:g})"

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


def invgamma_prior(a, b) -> PriorSpec:
    if not (0 < a < np.inf and 0 < b < np.inf):
        raise InvalidHyperparameter(f"invgamma prior needs finite a,b > 0, got {a},{b}")
    label = f"invgamma({a:g},{b:g})"

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


def jeffreys_prior(model: ModelSpec) -> PriorSpec:
    """pi_J = sqrt(det g).  The prior keeps the geometry of the last point it
    was asked about, so its value, gradient and Hessian there (as a MAP
    search asks for them) form g, g^{-1} and dg once; the numbers are those
    of jeffreys_log_density, jeffreys_log_grad and jeffreys_log_hess."""
    at = _JeffreysMemo(model)
    return PriorSpec("jeffreys",
                     lambda th: at(th).log_density(),
                     lambda th: at(th).log_grad(),
                     proper=False,
                     support=list(model.support),
                     log_hess=lambda th: at(th).log_hess())


def komaki_prior(beta_vec, alpha_exp, floor=0.0) -> PriorSpec:
    """Shrinkage prior prod lambda_i^(beta_i - 1) / (sum lambda)^alpha."""
    beta_vec = np.atleast_1d(np.asarray(beta_vec, dtype=float))
    if not np.all((0 < beta_vec) & (beta_vec < np.inf)):
        raise InvalidHyperparameter("komaki prior needs finite beta > 0 elementwise")
    if not 0 < alpha_exp < np.inf:
        raise InvalidHyperparameter("komaki prior needs finite alpha > 0")
    if not 0 <= floor < np.inf:
        raise InvalidHyperparameter("floor must be finite and nonnegative")
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


def _komaki_shape(counts, n, beta_vec, alpha_exp) -> np.ndarray:
    """a = beta + S for count sums S over n periods under komaki_prior(beta,
    alpha), where sum(lam) ~ Gamma(sum a - alpha, rate n) and lam / sum(lam)
    ~ Dirichlet(a); InvalidHyperparameter unless that posterior is proper."""
    counts = np.atleast_1d(np.asarray(counts, dtype=float))
    beta_vec = np.broadcast_to(np.asarray(beta_vec, dtype=float), counts.shape)
    if not (np.all((0 < beta_vec) & (beta_vec < np.inf)) and 0 < alpha_exp < np.inf):
        raise InvalidHyperparameter("need finite beta > 0 elementwise and alpha > 0")
    if n < 1 or np.any(counts < 0):
        raise InvalidHyperparameter("need n >= 1 and nonnegative counts")
    shape = beta_vec + counts
    # mass near lam = 0: int r^{sum(beta + S) - alpha - 1} dr, r = sum(lam)
    if shape.sum() <= alpha_exp:
        raise InvalidHyperparameter(f"improper posterior: sum(beta + S) = "
                                    f"{shape.sum():g} <= alpha = {alpha_exp:g}")
    return shape


# ---------------------------------------------------------------------------
# matching-pair constructors


def _product(base: PriorSpec, other: PriorSpec, power: float,
             label: str) -> PriorSpec:
    """base * other^power, improper, on base's support (other's when base has
    none), with a closed-form log_hess exactly when both factors have one."""
    log_hess = None if base.log_hess is None or other.log_hess is None else (
        lambda th: base.log_hess(th) + power * other.log_hess(th))
    return PriorSpec(
        label,
        lambda th: base.log_density(th) + power * other.log_density(th),
        lambda th: base.log_grad(th) + power * other.log_grad(th),
        proper=False,
        support=base.support if base.support is not None else other.support,
        log_hess=log_hess)


def jeffreys_power_partner(prior: PriorSpec, model: ModelSpec,
                           power: int) -> PriorSpec:
    """prior * pi_J^power, the matching partner in flat coordinates.

    power -1 turns a PM prior into its MAP partner for e-flat coordinates and
    -2 for m-flat ones; +1 and +2 go back from a MAP prior to the PM prior.
    The partner has a closed-form log_hess whenever the prior has one.
    """
    if abs(power) not in (1, 2):
        raise ValueError(f"Jeffreys power must be 1 or 2 in size, got {power}")
    # exact where the coordinates are e-flat (alpha 1) or m-flat (alpha -1)
    alpha, name = (1.0, "jeffreys") if abs(power) == 1 else (-1.0, "jeffreys2")
    if model.alpha != alpha:
        raise FamilyMismatch(f"{model.name} has alpha = {model.alpha}, "
                             f"not {alpha:g}, in these coordinates")
    return _product(prior, jeffreys_prior(model), float(power),
                    prior.label + ("/" if power < 0 else "*") + name)


def eflat_map_partner(pm: PriorSpec, model: ModelSpec) -> PriorSpec:
    """MAP partner for e-flat coordinates: divide pm by the Jeffreys prior."""
    return jeffreys_power_partner(pm, model, -1)


def mflat_map_partner(pm: PriorSpec, model: ModelSpec) -> PriorSpec:
    """MAP partner for m-flat coordinates: divide pm by the squared Jeffreys prior."""
    return jeffreys_power_partner(pm, model, -2)


def mflat_pm_partner(map_prior: PriorSpec, model: ModelSpec) -> PriorSpec:
    """Inverse direction of mflat_map_partner: the PM prior for a given MAP prior."""
    return jeffreys_power_partner(map_prior, model, 2)


def matching_residual(pair: MatchingPair, model: ModelSpec, theta,
                      **geo_kwargs) -> np.ndarray:
    """Left side of the asymptotic matching condition; zero certifies the pair.

    residual_a = d_a log(pm/map) - (d_a log pi_J + (1/2) g^{cd} Gamma^e_{cda}).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if not (pair.pm.contains(theta) and pair.map.contains(theta)):
        raise SupportMismatch(f"{theta} outside a prior support of the pair")
    return (pair.pm.log_grad(theta) - pair.map.log_grad(theta)
            - _target_form(model, theta, **geo_kwargs))


def _target_form(model: ModelSpec, theta, **geo_kwargs) -> np.ndarray:
    """omega_a = d_a log pi_J + (1/2) g^{cd} Gamma^e_{cda}, the gradient of
    log(pm/map) that the matching condition asks for.  d_a log pi_J is the
    contracted metric (alpha = 0) connection, so one report gives both."""
    rep = geometry_at(model, theta, **geo_kwargs)
    return (alpha_parallel_log_grad(rep, 0.0)
            + 0.5 * np.einsum("cd,cda->a", rep.g_inv, rep.gamma_e))


def matching_pair_1d(pm: PriorSpec, model: ModelSpec, theta0: float) -> MatchingPair:
    """General 1-D construction by quadrature of the matching ODE.

    log(pm/map)(t) = int_{theta0}^{t} omega, the target form of
    matching_residual, so the partner's log density equals pm's at theta0.
    """
    if model.dim != 1:
        raise FamilyMismatch("quadrature construction only applies to 1-D models")

    def log_ratio(th):
        t = float(np.atleast_1d(th)[0])
        return quad(lambda s: _target_form(model, np.array([s]))[0], theta0, t,
                    epsabs=1e-10)[0]

    ode_factor = PriorSpec("ode", log_ratio,
                           lambda th: _target_form(model, np.atleast_1d(th)),
                           proper=False, support=list(model.support))
    partner = _product(pm, ode_factor, -1.0, pm.label + "/ode")
    return MatchingPair(pm, partner, "alpha-affine(1d-quadrature)")


# ---------------------------------------------------------------------------
# string catalog


def parse_prior(text: str, model: ModelSpec | None = None) -> PriorSpec:
    """Resolve a config-file prior name.

    Grammar: normal(mean,var) | gamma(a,b) | invgamma(a,b) | jeffreys |
    uniform | komaki(beta,alpha,floor) with the derived partner forms
    <name>/jeffreys (prior * pi_J^-1) and <name>/jeffreys2 (prior * pi_J^-2).
    """
    text = text.strip()
    for suffix, power in (("/jeffreys2", -2), ("/jeffreys", -1)):
        if text.endswith(suffix):
            base = parse_prior(text[:-len(suffix)], model)
            return jeffreys_power_partner(base, _require_model(model, text), power)
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
