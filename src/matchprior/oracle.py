"""Ground-truth posterior expectations for low-dimensional models.

A trapezoid grid about the posterior mode, with adaptive quadrature
(Gauss-Kronrod via QUADPACK) behind it, plus closed conjugate forms, used to
validate samplers, Laplace expansions, and calibration.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import quad

from .errors import (InvalidHyperparameter, MatchPriorError, NonFiniteInput,
                     TailNotDecaying, ToleranceNotMet)
# mle is unused here; it stays importable because bench/tracing.py rebinds it
from .estimators import LogPosterior, Statistic, _maximize, mle
from .models import Dataset, ModelSpec
from .priors import PriorSpec, _komaki_shape

_PROBE_NEAR = 15.0
_PROBE_FAR = 40.0
_EPSREL = 1e-10          # relative tolerance of both rules
_MAX_SUBDIVISIONS = 200  # QUADPACK's interval limit per integral
_CENTRE_TOL = 1e-6       # scaled gradient norm at which the mode search stops
# the trapezoid grid; its lengths are in Laplace standard deviations
_GRID_LEVELS = 6
_GRID_NODES = 50_000     # evaluations before QUADPACK takes over
_GRID_RADIUS = 40.0      # a walk not negligible this far out meets a heavy tail
_NEGLIGIBLE = 1e-3       # a node's mass, relative to the centre's, per abs_tol


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.abs_tol < np.inf:
            raise ValueError("abs_tol must be finite and positive")


@dataclass(frozen=True)
class _LogWeight:
    """The log density of the integration variable u: the log posterior at
    theta(u) plus the log Jacobian of the substitution.  A (0, inf)
    coordinate is a log axis, theta = e^u; any other is integrated as it is
    over its support interval.  It has the value, grad and hess of a
    LogPosterior, so _maximize finds its mode."""

    post: LogPosterior

    @cached_property
    def log_axes(self) -> np.ndarray:
        lo, hi = self.post.model._support_bounds
        return (lo == 0.0) & np.isinf(hi)

    @cached_property
    def box(self):
        """(lo, hi) arrays of the u interval of each coordinate."""
        lo, hi = self.post.model._support_bounds
        return np.where(self.log_axes, -np.inf, lo), hi

    def theta(self, u) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.where(self.log_axes, np.exp(u), u)

    def value(self, u) -> float:
        return self.post.value(self.theta(u)) + u[self.log_axes].sum()

    def weight(self, u, ref) -> float:
        """exp(value(u) - ref), and 0 where that is not finite."""
        lw = self.value(u) - ref
        with np.errstate(over="ignore"):
            return np.exp(lw) if np.isfinite(lw) else 0.0

    def grad(self, u) -> np.ndarray:
        theta = self.theta(u)
        jac = np.where(self.log_axes, theta, 1.0)
        return jac * self.post.grad(theta) + self.log_axes

    def hess(self, u) -> np.ndarray:
        theta = self.theta(u)
        jac = np.where(self.log_axes, theta, 1.0)
        curvature = np.where(self.log_axes, theta * self.post.grad(theta), 0.0)
        return jac[:, None] * self.post.hess(theta) * jac + np.diag(curvature)


def _prepare(model: ModelSpec, data: Dataset, prior: PriorSpec, f):
    """The one mode search and the checks both rules run behind.  The centre
    u0 is the mode of the log weight, searched from default_init, or that
    start when the search fails; the log weight must be finite there and its
    tails must decay.  Returns the log weight, u0, its value there, the
    statistics as callables of theta and whether u0 is the mode."""
    d = model.dim
    if d > 3:
        raise ValueError("quadrature oracle supports dimension <= 3")

    log_weight = _LogWeight(LogPosterior(model, data, prior))
    start = np.asarray(model.default_init(data), dtype=float)
    u0 = np.log(start, out=start.copy(), where=log_weight.log_axes)
    try:
        u0, _ = _maximize(log_weight, u0, _CENTRE_TOL, 100)
        at_mode = True
    except MatchPriorError:
        at_mode = False
    ref = log_weight.value(u0)
    if not np.isfinite(ref):
        raise ToleranceNotMet("posterior density non-finite at the center point")

    lo, hi = log_weight.box
    for i in range(d):
        for sign in (-1.0, 1.0):
            if sign < 0 and np.isfinite(lo[i]):
                continue
            if sign > 0 and np.isfinite(hi[i]):
                continue
            near = u0.copy()
            far = u0.copy()
            near[i] += sign * _PROBE_NEAR
            far[i] += sign * _PROBE_FAR
            wn, wf = log_weight.weight(near, ref), log_weight.weight(far, ref)
            if wf > max(wn, 1e-3):
                raise TailNotDecaying(
                    f"integrand not decaying along coordinate {i} "
                    f"(probe values {wn:.3g} -> {wf:.3g})")

    if f is None:
        fns = [(lambda th, j=j: float(th[j])) for j in range(d)]
    elif isinstance(f, Statistic):
        fns = [f.value]
    elif callable(f):
        fns = [f]
    else:
        fns = [s.value if isinstance(s, Statistic) else s for s in f]
    return log_weight, u0, ref, fns, at_mode


class _NoFastPath(Exception):
    """The trapezoid grid cannot vouch for its sums; QUADPACK takes over."""


def _trapezoid(log_weight: _LogWeight, centre, top, fns, spec: QuadratureSpec):
    """Trapezoid sums over u = u* + h L k, k in Z^d, where u* is the mode
    _prepare found, top the log weight there and L L^T its Laplace
    covariance.  Each axis is walked outward from the centre until the mass
    is negligible, and h is halved, reusing the nodes already evaluated,
    until two successive levels agree.  Raises _NoFastPath when the mode has
    no negative definite Hessian, when a walk is still not negligible at
    _GRID_RADIUS, or when the levels or the node budget run out."""
    hess = log_weight.hess(centre)
    if not np.all(np.isfinite(hess)):
        raise _NoFastPath
    try:
        chol = np.linalg.cholesky(-hess)
    except np.linalg.LinAlgError:
        raise _NoFastPath from None
    scale = np.linalg.inv(chol).T          # scale @ scale.T = inv(-hess)
    d, m = centre.shape[0], len(fns)
    # the step at which the rule is within abs_tol / 100 on a standard
    # Gaussian, whose trapezoid error is 2 exp(-2 pi^2 / h^2)
    h_first = np.pi * np.sqrt(2.0 / np.log1p(200.0 / spec.abs_tol))
    h_last = h_first * 0.5**(_GRID_LEVELS - 1)
    nodes = {}

    def node(key):
        """(w, w f_1, ..., w f_m) at u* + h_last L key, w relative to the
        weight at the mode."""
        row = nodes.get(key)
        if row is None:
            if len(nodes) == _GRID_NODES:
                raise _NoFastPath
            u = centre + scale @ (h_last * np.array(key, dtype=float))
            w = float(log_weight.weight(u, top))
            if w > 0.0:
                theta = log_weight.theta(u)
                row = (w, *(w * fn(theta) for fn in fns))
            else:
                row = (0.0,) * (m + 1)
            nodes[key] = row
        return row

    cutoff = _NEGLIGIBLE * spec.abs_tol * sum(map(abs, node((0,) * d)))

    def walk(stride, prefix, rows, tails):
        """Append the rows of the nodes whose leading indices are prefix,
        walking the next axis both ways from 0 in steps of stride until the
        mass (the |row| sum, or for a line the largest one on it) is
        negligible; returns the largest mass met.  The last row of each line
        also goes to tails."""
        last_axis = len(prefix) + 1 == d
        peak = 0.0
        for start, step in ((0, stride), (-stride, -stride)):
            k = start
            while True:
                if abs(k) * h_last > _GRID_RADIUS:
                    raise _NoFastPath
                if last_axis:
                    row = node(prefix + (k,))
                    rows.append(row)
                    mass = sum(map(abs, row))
                else:
                    mass = walk(stride, prefix + (k,), rows, tails)
                peak = max(peak, mass)
                if mass <= cutoff:
                    if last_axis:
                        tails.append(row)
                    break
                k += step
        return peak

    prev = None
    for level in range(_GRID_LEVELS):
        rows, tails = [], []
        walk(2**(_GRID_LEVELS - 1 - level), (), rows, tails)
        total = np.sum(rows, axis=0)
        if not np.all(np.isfinite(total)):
            raise _NoFastPath
        z = total[0] * (h_first * 0.5**level)**d
        values = total[1:] / total[0]
        if prev is not None:
            gap = np.abs(values - prev[1])
            if (abs(z - prev[0]) <= spec.abs_tol
                    and np.all(gap <= np.maximum(spec.abs_tol,
                                                 _EPSREL * np.abs(values)))):
                tail = np.sum(np.abs(tails), axis=0)
                return values, gap + (tail[1:] + np.abs(values) * tail[0]) / total[0]
        prev = z, values
    raise _NoFastPath


def _quadpack(log_weight: _LogWeight, u0, ref, fns, spec: QuadratureSpec):
    """Nested adaptive Gauss-Kronrod (QUADPACK) over u, one pass for the
    normaliser and one for each statistic, the infinite axes split at u0."""
    d = u0.shape[0]
    box_lo, box_hi = log_weight.box

    def weight(u):
        return log_weight.weight(u, ref)

    def integrate(fn):
        trouble = []

        def level(i, prefix):
            def inner(ui):
                u = prefix + [ui]
                if i + 1 == d:
                    return fn(np.asarray(u))
                return level(i + 1, u)

            lo, hi = box_lo[i], box_hi[i]
            cuts = (lo, u0[i], hi) if np.isinf(lo) and np.isinf(hi) else (lo, hi)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                parts = [quad(inner, a, b, epsabs=spec.abs_tol, epsrel=_EPSREL,
                              limit=_MAX_SUBDIVISIONS, full_output=1)
                         for a, b in zip(cuts, cuts[1:])]
            if any(len(r) > 3 for r in parts):
                trouble.append(i)
            val = sum(r[0] for r in parts)
            if i == 0:
                return val, sum(r[1] for r in parts)
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

    values = np.empty(len(fns))
    bounds = np.empty(len(fns))

    def weighted(u, fn):
        w = weight(u)
        return fn(log_weight.theta(u)) * w if w > 0.0 else 0.0

    for j, fn in enumerate(fns):
        num, num_err = integrate(lambda u, fn=fn: weighted(u, fn))
        values[j] = num / z
        bounds[j] = (num_err + abs(values[j]) * z_err) / z
    return values, bounds


def quad_posterior_expectation(model: ModelSpec, data: Dataset,
                               prior: PriorSpec, f=None,
                               spec: QuadratureSpec | None = None):
    """Posterior expectations of statistics by deterministic quadrature.

    Returns (values, error_bounds).  f may be None (identity, one entry per
    coordinate), a callable theta -> float, a Statistic, or a sequence of
    either.  Dimension is limited to 3.  One Newton search from the model's
    default_init finds the posterior mode (in log coordinates for positive
    parameters), and a trapezoid grid centred there and scaled by the
    Laplace covariance answers first.  When the search fails, or the grid
    cannot vouch for its sums (no negative definite Hessian at the mode, a
    heavy tail, or no convergence within its node budget), nested QUADPACK,
    whose cost grows steeply with dimension, does, split at the same centre.
    Each error bound is the last change between two grid levels plus the
    truncated mass, or QUADPACK's own estimate.
    """
    spec = spec or QuadratureSpec()
    log_weight, u0, ref, fns, at_mode = _prepare(model, data, prior, f)
    if at_mode:
        try:
            return _trapezoid(log_weight, u0, ref, fns, spec)
        except _NoFastPath:
            pass
    return _quadpack(log_weight, u0, ref, fns, spec)


def conjugate_pm(family: str, hyper, data):
    """Closed-form posterior means for three conjugate families.

    poisson-gamma: counts y with Gamma(a, b) prior on the rate gives
    (a + sum y) / (b + n).  gaussianprecision-gamma: zero-mean normal data
    with Gamma(a, b) prior on the precision gives (a + n/2) / (b + sum y^2 / 2).
    poisson-komaki: (n, d) count rows under komaki_prior(beta, alpha) give
    (A - alpha) / n * a / A, a = beta + column sums, A = sum a, which is also
    the MAP under beta + 1; InvalidHyperparameter wherever komaki_gibbs raises
    and on any negative count, before a column sum could hide it.
    """
    y = np.asarray(getattr(data, "responses", data), dtype=float)
    if not np.isfinite(y).all():
        raise NonFiniteInput("data has non-finite entries")
    if family.startswith("poisson") and np.any(y < 0):
        raise InvalidHyperparameter("Poisson counts must be nonnegative")
    if family == "poisson-komaki":
        rows = y if y.ndim == 2 else y.reshape(-1, 1)
        n, alpha = rows.shape[0], float(hyper[1])
        a = _komaki_shape(rows.sum(axis=0), n, hyper[0], alpha)
        return (a.sum() - alpha) / n * a / a.sum()
    a, b = float(hyper[0]), float(hyper[1])
    if not (0 < a < np.inf and 0 < b < np.inf):
        raise InvalidHyperparameter(f"gamma hyperparameters must be finite and "
                                    f"positive, got a={a}, b={b}")
    y = y.ravel()
    if family == "poisson-gamma":
        return (a + float(np.sum(y))) / (b + y.size)
    if family == "gaussianprecision-gamma":
        return (a + 0.5 * y.size) / (b + 0.5 * float(np.sum(y * y)))
    raise ValueError(f"unknown conjugate family {family!r}")
