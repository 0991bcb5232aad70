"""Posterior sampling: random-walk Metropolis, Polya-Gamma Gibbs for logistic
regression, and augmented Gibbs for the Poisson shrinkage prior.

All samplers are deterministic given the seed in ChainConfig.  Parallel
chains should derive child seeds with numpy's SeedSequence spawning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import (InvalidHyperparameter, NonFiniteInput, SingularPrecision,
                     ZeroAcceptance)
from .estimators import LogPosterior
from .models import Dataset, ModelSpec, row_outer
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
#
# PG(1, z) = J*(1, z/2) / 4, drawn by Devroye's scheme with truncation point
# t (Windle, Polson & Scott 2014): an exponential proposal right of t, an
# inverse-Gaussian IG(1/z, 1) proposal left of it, and the alternating series
# as the accept test.  One (4, k) block of uniforms serves a whole pass:
# row 0 picks the branch, row 1 inverts the proposal's CDF, row 2 is the IG
# accept test and row 3 the series uniform.

_PG_TRUNC = 0.64
# Phi(-1/sqrt(t)): X = 1/Z^2 with Z ~ N(0, 1) is Levy(0, 1), and X < t is
# |Z| > 1/sqrt(t), so ndtri(v * _PG_LEVY_MASS)^-2 with v uniform on (0, 1]
# is X given X < t
_PG_LEVY_MASS = float(ndtr(-1.0 / np.sqrt(_PG_TRUNC)))


def _pg_mass_texpon(z, fz):
    """Probability of the exponential branch; fz = pi^2/8 + z^2/2."""
    t = _PG_TRUNC
    b = np.sqrt(1.0 / t) * (t * z - 1.0)
    a = -np.sqrt(1.0 / t) * (t * z + 1.0)
    x0 = np.log(fz) + fz * t
    xb = x0 - z + log_ndtr(b)
    xa = x0 + z + log_ndtr(a)
    # from |z| near 96 on, exp overflows to inf and the mass is its limit 0
    with np.errstate(over="ignore"):
        qdivp = 4.0 / np.pi * (np.exp(xb) + np.exp(xa))
    return 1.0 / (1.0 + qdivp)


def _rtlevy_tilted(rng, z, u, v):
    """IG(1/z, 1) truncated to (0, TRUNC) for z < 1/TRUNC.

    The proposal is Levy(0, 1) truncated to (0, TRUNC) by inverse CDF from u;
    it is accepted with probability exp(-z^2 x / 2) tested against v.  Only a
    rejected proposal is redrawn, with fresh uniforms.
    """
    # 1 - u lies in (0, 1], so the argument of ndtri is never 0
    x = ndtri((1.0 - u) * _PG_LEVY_MASS) ** -2
    rej = (v >= np.exp(-0.5 * z * z * x)).nonzero()[0]
    while rej.size:
        zr = z[rej]
        u, v = rng.random((2, rej.size))
        cand = ndtri((1.0 - u) * _PG_LEVY_MASS) ** -2
        ok = v < np.exp(-0.5 * zr * zr * cand)
        x[rej[ok]] = cand[ok]
        rej = rej[~ok]
    return x


def _rtigauss(rng, z):
    """IG(1/z, 1) truncated to (0, TRUNC) for z >= 1/TRUNC, by rejection.

    The mean 1/z lies inside the truncation, so untruncated IG draws
    (Michael, Schucany & Haas 1976) land below TRUNC most of the time.
    """
    t = _PG_TRUNC
    mu = 1.0 / z
    res = np.full(z.size, t + 1.0)
    while True:
        open_ = res > t
        if not open_.any():
            return res
        k = int(open_.sum())
        mua = mu[open_]
        yv = rng.normal(size=k) ** 2
        muy = mua * yv
        cand = mua + 0.5 * mua * muy - 0.5 * mua * np.sqrt(4.0 * muy + muy * muy)
        flip = rng.random(k) > mua / (mua + cand)
        cand[flip] = mua[flip] ** 2 / cand[flip]
        res[np.where(open_)[0]] = cand


def _pg_propose(rng, z, fz, pexp):
    """Proposals x for J*(1, z) and their series uniforms, from one block."""
    u = rng.random((4, z.size))
    x = _PG_TRUNC - np.log1p(-u[1]) / fz
    ig = u[0] >= pexp
    low = z < 1.0 / _PG_TRUNC
    wide = (ig & low).nonzero()[0]
    if wide.size:
        x[wide] = _rtlevy_tilted(rng, z[wide], u[1, wide], u[2, wide])
    narrow = (ig & ~low).nonzero()[0]
    if narrow.size:
        x[narrow] = _rtigauss(rng, z[narrow])
    return x, u[3]


def _pg_series_accepts(x, u):
    """Devroye's alternating-series test: accept x where u < f(x) / a_0(x).

    The J*(1) density is f = sum_k (-1)^k a_k with a_k(x) = pi (k + 1/2)
    exp(B(x) - (k + 1/2)^2 A(x)), where A = pi^2 x / 2, B = 0 right of t
    and A = 2 / x, B = 3/2 log(2 / (pi x)) left of it (the two forms are
    equal; each is monotone in k on its side).  B cancels from the ratios
    r_k = a_k / a_0 = (2k + 1) exp(-k (k + 1) A), so the partial sums of
    1 - r_1 + r_2 - ... decide every slot without forming a_k.
    """
    a = np.where(x > _PG_TRUNC, 0.5 * np.pi**2 * x, 2.0 / x)
    s = 1.0 - 3.0 * np.exp(-2.0 * a)
    accepted = u <= s
    # the first partial sum decides almost every slot; the rest go on as
    # index arrays
    idx = (~accepted).nonzero()[0]
    a, s, u = a[idx], s[idx], u[idx]
    k = 1
    while idx.size:
        k += 1
        s = s + (-1) ** k * (2 * k + 1) * np.exp(-k * (k + 1) * a)
        # odd partial sums bound f / a_0 from below, even ones from above
        if k % 2:
            done = u <= s
            accepted[idx[done]] = True
        else:
            done = u > s
        keep = (~done).nonzero()[0]
        idx, a, s, u = idx[keep], a[keep], s[keep], u[keep]
    return accepted


def polya_gamma_1(rng, z) -> np.ndarray:
    """Exact draws from PG(1, z) for an array z (Devroye-type scheme).

    A pass over the open slots takes one (4, k) block of uniforms; a slot
    whose series test fails goes into the next pass, branch choice included.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all(np.isfinite(z)):
        # the alternating series never decides a NaN slot: the loop would spin
        raise NonFiniteInput("PG(1, z) needs finite z")
    half = np.abs(z) * 0.5
    fz = np.pi**2 / 8.0 + 0.5 * half * half
    pexp = _pg_mass_texpon(half, fz)
    out = np.empty(half.shape)
    pending = np.arange(half.size)
    while pending.size:
        x, u = _pg_propose(rng, half[pending], fz[pending], pexp[pending])
        ok = _pg_series_accepts(x, u)
        out[pending[ok]] = 0.25 * x[ok]
        pending = pending[~ok]
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
    # for a Gaussian prior, log_grad(0) = P0 m0, so the conditional mean is
    # prec^-1 (kappa + log_grad(0))
    shift = x.T @ (y - 0.5) + prior.log_grad(zero)
    xx = row_outer(x)
    rng = np.random.default_rng(config.seed)
    beta = np.zeros(d) if init is None else np.asarray(init, dtype=float).copy()
    samples = np.empty((-(-config.length // config.thinning), d))
    for it in range(config.burnin + config.length):
        omega = polya_gamma_1(rng, x @ beta)
        prec = (omega @ xx).reshape(d, d) + p0
        chol, info = dpotrf(prec, lower=1)
        if info:
            raise SingularPrecision("conditional precision not PD")
        # beta = L^-T (L^-1 shift + eps): mean prec^-1 shift, covariance
        # prec^-1; a factor dpotrf accepted has a positive diagonal
        w = dtrtrs(chol, shift, lower=1)[0]
        beta = dtrtrs(chol, w + rng.standard_normal(d), lower=1, trans=1)[0]
        kept, off = divmod(it - config.burnin, config.thinning)
        if kept >= 0 and not off:
            samples[kept] = beta
    return _finalize(samples, config.length, config.length, config.seed,
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
