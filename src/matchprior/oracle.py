"""Ground-truth posterior expectations for low-dimensional models.

Adaptive quadrature (Gauss-Kronrod via QUADPACK) over the posterior, plus
closed conjugate forms, used to validate samplers, Laplace expansions, and
calibration.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import InvalidHyperparameter, TailNotDecaying, ToleranceNotMet
from .estimators import LogPosterior, Statistic, mle
from .models import Dataset, ModelSpec
from .priors import PriorSpec

_PROBE_NEAR = 15.0
_PROBE_FAR = 40.0


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0:
            raise ValueError("abs_tol must be positive")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be at least 10")


def _coordinate_maps(model: ModelSpec):
    """Per-coordinate substitutions taking an unconstrained or boxed variable
    to the parameter coordinate; (0, inf) coordinates use theta = e^u."""
    maps = []
    for lo, hi in model.support:
        if lo == 0.0 and np.isinf(hi):
            maps.append(("exp", (-np.inf, np.inf)))
        elif np.isinf(lo) and np.isinf(hi):
            maps.append(("id", (-np.inf, np.inf)))
        else:
            maps.append(("id", (lo, hi)))
    return maps


def _to_theta(u, maps):
    th = np.empty(len(u))
    with np.errstate(over="ignore"):
        for i, (kind, _) in enumerate(maps):
            th[i] = np.exp(u[i]) if kind == "exp" else u[i]
    return th


def _log_jacobian(u, maps):
    return sum(u[i] for i, (kind, _) in enumerate(maps) if kind == "exp")


def quad_posterior_expectation(model: ModelSpec, data: Dataset,
                               prior: PriorSpec, f=None,
                               spec: QuadratureSpec | None = None):
    """Posterior expectations of statistics by deterministic quadrature.

    Returns (values, error_bounds).  f may be None (identity, one entry per
    coordinate), a callable theta -> float, a Statistic, or a sequence of
    either.  Dimension is limited to 3; higher dimensions integrate via
    iterated 1-D passes and would be impractically slow beyond that.
    """
    spec = spec or QuadratureSpec()
    d = model.dim
    if d > 3:
        raise ValueError("quadrature oracle supports dimension <= 3")
    maps = _coordinate_maps(model)

    try:
        center_theta = mle(model, data).point
    except Exception:
        center_theta = np.asarray(model.default_init(data), dtype=float)
    u0 = np.array([np.log(center_theta[i]) if maps[i][0] == "exp"
                   else center_theta[i] for i in range(d)])

    post = LogPosterior(model, data, prior)

    def log_weight(u):
        return post.value(_to_theta(u, maps)) + _log_jacobian(u, maps)

    ref = log_weight(u0)
    if not np.isfinite(ref):
        raise ToleranceNotMet("posterior density non-finite at the center point")

    def weight(u):
        lw = log_weight(u) - ref
        with np.errstate(over="ignore"):
            return np.exp(lw) if np.isfinite(lw) else 0.0

    for i in range(d):
        for sign in (-1.0, 1.0):
            lo, hi = maps[i][1]
            if sign < 0 and np.isfinite(lo):
                continue
            if sign > 0 and np.isfinite(hi):
                continue
            near = u0.copy()
            far = u0.copy()
            near[i] += sign * _PROBE_NEAR
            far[i] += sign * _PROBE_FAR
            wn, wf = weight(near), weight(far)
            if wf > max(wn, 1e-3):
                raise TailNotDecaying(
                    f"integrand not decaying along coordinate {i} "
                    f"(probe values {wn:.3g} -> {wf:.3g})")

    def integrate(fn):
        trouble = []

        def level(i, prefix):
            def inner(ui):
                u = prefix + [ui]
                if i + 1 == d:
                    return fn(np.asarray(u))
                return level(i + 1, u)

            lo, hi = maps[i][1]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if np.isinf(lo) and np.isinf(hi):
                    r1 = quad(inner, lo, u0[i], epsabs=spec.abs_tol,
                              epsrel=1e-10, limit=spec.max_subdivisions,
                              full_output=1)
                    r2 = quad(inner, u0[i], hi, epsabs=spec.abs_tol,
                              epsrel=1e-10, limit=spec.max_subdivisions,
                              full_output=1)
                    val, err = r1[0] + r2[0], r1[1] + r2[1]
                    if len(r1) > 3 or len(r2) > 3:
                        trouble.append(i)
                else:
                    r = quad(inner, lo, hi, epsabs=spec.abs_tol,
                             epsrel=1e-10, limit=spec.max_subdivisions,
                             full_output=1)
                    val, err = r[0], r[1]
                    if len(r) > 3:
                        trouble.append(i)
            if i == 0:
                return val, err
            return val

        val, err = level(0, [])
        # QUADPACK flags roundoff even when the achieved error is tiny; only
        # fail when the reported bound is genuinely loose
        if 0 in trouble and err > 100.0 * spec.abs_tol * max(1.0, abs(val)):
            raise ToleranceNotMet(
                f"outer quadrature error estimate {err:.3g} above tolerance")
        # inner passes are held to abs_tol each; fold that into the bound
        return val, err + (d - 1) * spec.abs_tol

    z, z_err = integrate(weight)
    if not np.isfinite(z) or z <= 0:
        raise ToleranceNotMet(f"normalizing integral came out as {z}")

    if f is None:
        fns = [(lambda th, j=j: float(th[j])) for j in range(d)]
    elif isinstance(f, Statistic):
        fns = [f.value]
    elif callable(f):
        fns = [f]
    else:
        fns = [s.value if isinstance(s, Statistic) else s for s in f]

    values = np.empty(len(fns))
    bounds = np.empty(len(fns))

    def weighted(u, fn):
        w = weight(u)
        return fn(_to_theta(u, maps)) * w if w > 0.0 else 0.0

    for j, fn in enumerate(fns):
        num, num_err = integrate(lambda u, fn=fn: weighted(u, fn))
        values[j] = num / z
        bounds[j] = (num_err + abs(values[j]) * z_err) / z
    return values, bounds


def conjugate_pm(family: str, hyper, data) -> float:
    """Closed-form posterior means for the two conjugate validation families.

    poisson-gamma: counts y with Gamma(a, b) prior on the rate gives
    (a + sum y) / (b + n).  gaussianprecision-gamma: zero-mean normal data
    with Gamma(a, b) prior on the precision gives (a + n/2) / (b + sum y^2 / 2).
    """
    a, b = float(hyper[0]), float(hyper[1])
    if a <= 0 or b <= 0:
        raise InvalidHyperparameter(f"gamma hyperparameters must be positive, "
                                    f"got a={a}, b={b}")
    if isinstance(data, Dataset):
        y = data.responses.ravel()
    else:
        y = np.asarray(data, dtype=float).ravel()
    n = y.shape[0]
    if family == "poisson-gamma":
        return (a + float(np.sum(y))) / (b + n)
    if family == "gaussianprecision-gamma":
        return (a + 0.5 * n) / (b + 0.5 * float(np.sum(y * y)))
    raise ValueError(f"unknown conjugate family {family!r}")
