"""Posterior sampling: random-walk Metropolis, Polya-Gamma Gibbs for logistic
regression, and augmented Gibbs for the Poisson shrinkage prior.

All samplers are deterministic given the seed in ChainConfig.  Parallel
chains should derive child seeds with numpy's SeedSequence spawning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import log_ndtr

from .errors import (InvalidHyperparameter, NonFiniteInput, SingularPrecision,
                     ZeroAcceptance)
from .estimators import LogPosterior
from .models import Dataset, ModelSpec
from .priors import PriorSpec


@dataclass(frozen=True)
class ChainConfig:
    length: int
    burnin: int = 0
    seed: int = 0
    step_scale: float | None = None
    thinning: int = 1

    def __post_init__(self):
        if self.length <= 0 or self.burnin < 0:
            raise ValueError("need length > 0 and burnin >= 0")
        if self.burnin >= self.burnin + self.length:
            raise ValueError("burnin must be smaller than the total draw count")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")
        if self.step_scale is not None and self.step_scale <= 0:
            raise ValueError("step_scale must be positive")


@dataclass
class ChainOutput:
    samples: np.ndarray  # (kept, d)
    acceptance_rate: float
    posterior_mean: np.ndarray
    mc_se: np.ndarray
    ess: np.ndarray
    seed: int
    diagnostics: dict = field(default_factory=dict)


def batch_means_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch-means Monte Carlo standard error and effective sample size."""
    m = samples.shape[0]
    nb = max(int(np.floor(np.sqrt(m))), 2)
    bs = m // nb
    trimmed = samples[: nb * bs]
    means = trimmed.reshape(nb, bs, -1).mean(axis=1)
    grand = trimmed.mean(axis=0)
    se2 = np.sum((means - grand) ** 2, axis=0) / (nb * (nb - 1))
    se = np.sqrt(np.maximum(se2, 1e-300))
    var = np.var(samples, axis=0)
    ess = np.minimum(var / np.maximum(se2, 1e-300), float(m))
    return se, ess


def _finalize(states, accepted, total_post, seed, extra=None):
    samples = np.asarray(states)
    mean = samples.mean(axis=0)
    se, ess = batch_means_se(samples)
    out = ChainOutput(samples, accepted / max(total_post, 1), mean, se, ess, seed,
                      extra or {})
    return out


# ---------------------------------------------------------------------------
# random-walk Metropolis-Hastings


def rwmh_target(log_target, init, config: ChainConfig, proposal="gaussian",
                chol_scale=None) -> ChainOutput:
    """Generic RWMH on a log target; the model-aware front end is rwmh()."""
    rng = np.random.default_rng(config.seed)
    theta = np.atleast_1d(np.asarray(init, dtype=float)).copy()
    d = theta.shape[0]
    step = config.step_scale
    if step is None:
        step = 2.38 / np.sqrt(d) if proposal == "gaussian" else 0.1 / np.sqrt(d)
    lt = log_target(theta)
    if not np.isfinite(lt):
        raise ValueError("initial point has non-finite target density")
    total = config.burnin + config.length
    kept = []
    accepted = 0
    for it in range(total):
        z = rng.normal(size=d)
        if proposal == "cauchy":
            w = rng.chisquare(1.0)
            incr = step * z / np.sqrt(w)
        else:
            incr = step * (chol_scale @ z if chol_scale is not None else z)
        prop = theta + incr
        lp = log_target(prop)
        if np.log(rng.random()) < lp - lt:
            theta = prop
            lt = lp
            if it >= config.burnin:
                accepted += 1
        if it >= config.burnin and (it - config.burnin) % config.thinning == 0:
            kept.append(theta.copy())
    post = config.length
    out = _finalize(kept, accepted, post, config.seed,
                    {"proposal": proposal, "step": step,
                     "burnin": config.burnin, "chain_length": config.length})
    if out.acceptance_rate < 1e-4:
        raise ZeroAcceptance(
            f"acceptance {out.acceptance_rate:.2e}; step size misconfigured")
    return out


def rwmh(model: ModelSpec, data: Dataset, prior: PriorSpec, config: ChainConfig,
         proposal: str = "gaussian", init=None) -> ChainOutput:
    """Metropolis chain targeting exp(n * avg log-likelihood + log prior)."""
    if init is None:
        init = model.default_init(data)
    init = np.asarray(init, dtype=float)
    chol_scale = None
    if proposal == "gaussian":
        j = -data.n * model.avg_hess(data, init)
        try:
            chol_scale = np.linalg.cholesky(np.linalg.inv(j))
        except np.linalg.LinAlgError:
            chol_scale = None
    return rwmh_target(LogPosterior(model, data, prior).value, init, config,
                       proposal, chol_scale)


# ---------------------------------------------------------------------------
# exact Polya-Gamma PG(1, z) sampling (alternating-series accept-reject)

_PG_TRUNC = 0.64


def _pg_mass_texpon(z):
    t = _PG_TRUNC
    fz = np.pi**2 / 8.0 + 0.5 * z * z
    b = np.sqrt(1.0 / t) * (t * z - 1.0)
    a = -np.sqrt(1.0 / t) * (t * z + 1.0)
    x0 = np.log(fz) + fz * t
    xb = x0 - z + log_ndtr(b)
    xa = x0 + z + log_ndtr(a)
    qdivp = 4.0 / np.pi * (np.exp(xb) + np.exp(xa))
    return 1.0 / (1.0 + qdivp)


def _pg_series_coef(k, x):
    t = _PG_TRUNC
    out = np.empty_like(x)
    big = x > t
    kk = k + 0.5
    out[big] = np.pi * kk * np.exp(-kk**2 * np.pi**2 * x[big] / 2.0)
    small = ~big
    xs = x[small]
    out[small] = (2.0 / np.pi / xs) ** 1.5 * np.pi * kk * np.exp(-2.0 * kk**2 / xs)
    return out


def _rtigauss(rng, z):
    """Inverse-Gaussian IG(1/z, 1) truncated to (0, TRUNC), vectorized."""
    t = _PG_TRUNC
    z = np.abs(z)
    x = np.empty(z.shape)
    wide = z < 1.0 / t  # mean above the truncation point: tilted-chi rejection
    idx = np.where(wide)[0]
    if idx.size:
        res = np.empty(idx.size)
        open_ = np.ones(idx.size, dtype=bool)
        while open_.any():
            k = int(open_.sum())
            e1 = rng.standard_exponential(k)
            e2 = rng.standard_exponential(k)
            bad = e1 * e1 > 2.0 * e2 / t
            while bad.any():
                nb = int(bad.sum())
                e1[bad] = rng.standard_exponential(nb)
                e2[bad] = rng.standard_exponential(nb)
                bad = e1 * e1 > 2.0 * e2 / t
            cand = t / (1.0 + t * e1) ** 2
            alpha = np.exp(-0.5 * z[idx][open_] ** 2 * cand)
            acc = rng.random(k) <= alpha
            pos = np.where(open_)[0][acc]
            res[pos] = cand[acc]
            open_[pos] = False
        x[idx] = res
    idx = np.where(~wide)[0]
    if idx.size:
        mu = 1.0 / z[idx]
        res = np.full(idx.size, t + 1.0)
        while True:
            open_ = res > t
            if not open_.any():
                break
            k = int(open_.sum())
            mua = mu[open_]
            yv = rng.normal(size=k) ** 2
            muy = mua * yv
            cand = mua + 0.5 * mua * muy - 0.5 * mua * np.sqrt(4.0 * muy + muy * muy)
            flip = rng.random(k) > mua / (mua + cand)
            cand[flip] = mua[flip] ** 2 / cand[flip]
            res[np.where(open_)[0]] = cand
        x[idx] = res
    return x


def polya_gamma_1(rng, z) -> np.ndarray:
    """Exact draws from PG(1, z) for an array z (Devroye-type scheme)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all(np.isfinite(z)):
        # the alternating series never decides a NaN slot: the loop would spin
        raise NonFiniteInput("PG(1, z) needs finite z")
    half = np.abs(z) * 0.5
    fz = np.pi**2 / 8.0 + 0.5 * half * half
    pexp = _pg_mass_texpon(half)
    out = np.empty(half.shape)
    pending = np.arange(half.size)
    while pending.size:
        zi = half[pending]
        k = pending.size
        x = np.empty(k)
        use_exp = rng.random(k) < pexp[pending]
        ne = int(use_exp.sum())
        if ne:
            x[use_exp] = _PG_TRUNC + rng.standard_exponential(ne) / fz[pending][use_exp]
        if ne < k:
            x[~use_exp] = _rtigauss(rng, zi[~use_exp])
        s = _pg_series_coef(0, x)
        y = rng.random(k) * s
        undecided = np.ones(k, dtype=bool)
        accepted = np.zeros(k, dtype=bool)
        term = 0
        while undecided.any():
            term += 1
            coef = _pg_series_coef(term, x[undecided])
            if term % 2 == 1:
                s[undecided] -= coef
                newly = undecided & (y <= s)
                accepted |= newly
                undecided &= ~newly
            else:
                s[undecided] += coef
                newly = undecided & (y > s)
                undecided &= ~newly
        out[pending[accepted]] = 0.25 * x[accepted]
        pending = pending[~accepted]
    return out


def polya_gamma_gibbs(design, responses, prior: PriorSpec,
                      config: ChainConfig, init=None) -> ChainOutput:
    """Gibbs sampler for Bayesian logistic regression via PG augmentation.

    Alternates omega_i | beta ~ PG(1, x_i beta) and beta | omega ~ Normal with
    precision X' Omega X + prior precision.  Requires a Gaussian prior.
    """
    x = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.asarray(responses, dtype=float).ravel()
    n, d = x.shape
    if prior.log_hess is None or not prior.proper:
        raise InvalidHyperparameter("polya_gamma_gibbs needs a proper Gaussian prior")
    zero = np.zeros(d)
    with np.errstate(all="ignore"):
        p0 = -prior.log_hess(zero)
    # an infinite or indefinite prior precision (e.g. a gamma prior at 0)
    # makes every PG draw degenerate and the sampler never returns
    if not np.all(np.isfinite(p0)):
        raise InvalidHyperparameter(f"prior precision at 0 is not finite: {p0}")
    try:
        np.linalg.cholesky(p0)
    except np.linalg.LinAlgError as exc:
        raise InvalidHyperparameter(
            "prior precision at 0 is not positive definite") from exc
    m0 = np.linalg.solve(p0, prior.log_grad(zero)) if np.any(prior.log_grad(zero)) \
        else zero
    rng = np.random.default_rng(config.seed)
    beta = np.zeros(d) if init is None else np.asarray(init, dtype=float).copy()
    kappa = x.T @ (y - 0.5)
    total = config.burnin + config.length
    kept = []
    for it in range(total):
        eta = x @ beta
        omega = polya_gamma_1(rng, eta)
        prec = (x.T * omega) @ x + p0
        try:
            chol = np.linalg.cholesky(prec)
        except np.linalg.LinAlgError as exc:
            raise SingularPrecision("conditional precision not PD") from exc
        mean = np.linalg.solve(prec, kappa + p0 @ m0)
        beta = mean + np.linalg.solve(chol.T, rng.normal(size=d))
        if it >= config.burnin and (it - config.burnin) % config.thinning == 0:
            kept.append(beta.copy())
    return _finalize(kept, config.length, config.length, config.seed,
                     {"sampler": "pg-gibbs", "burnin": config.burnin,
                      "chain_length": config.length})


# ---------------------------------------------------------------------------
# augmented Gibbs for the Poisson shrinkage prior


def komaki_gibbs(counts, n: int, beta_vec, alpha_exp: float,
                 config: ChainConfig, init=None) -> ChainOutput:
    """Gibbs sampler for independent Poisson rates under the shrinkage prior.

    Uses (sum lam)^{-alpha} = (1/Gamma(alpha)) int u^{alpha-1} e^{-u sum lam} du:
    u | lam ~ Gamma(alpha, rate=sum lam), lam_i | u ~ Gamma(beta_i + S_i, n + u).
    """
    counts = np.atleast_1d(np.asarray(counts, dtype=float))
    beta_vec = np.broadcast_to(np.asarray(beta_vec, dtype=float),
                               counts.shape).copy()
    if np.any(beta_vec <= 0) or alpha_exp <= 0:
        raise InvalidHyperparameter("need beta > 0 elementwise and alpha > 0")
    if n < 1 or np.any(counts < 0):
        raise InvalidHyperparameter("need n >= 1 and nonnegative counts")
    rng = np.random.default_rng(config.seed)
    lam = counts / n + 1.0 if init is None else np.asarray(init, dtype=float).copy()
    shape = beta_vec + counts
    total = config.burnin + config.length
    kept = []
    for it in range(total):
        u = rng.gamma(alpha_exp, 1.0 / np.sum(lam))
        lam = rng.gamma(shape, 1.0 / (n + u))
        if it >= config.burnin and (it - config.burnin) % config.thinning == 0:
            kept.append(lam.copy())
    return _finalize(kept, config.length, config.length, config.seed,
                     {"sampler": "komaki-gibbs", "burnin": config.burnin,
                      "chain_length": config.length})
