"""Posterior sampling: random-walk Metropolis, Polya-Gamma Gibbs for logistic
regression, and exact iid draws for the Poisson shrinkage prior.

All samplers are deterministic given the seed in ChainConfig.  Parallel
chains should derive child seeds with numpy's SeedSequence spawning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb
from numbers import Integral

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs
from scipy.special import log_ndtr, ndtr, ndtri

from .errors import (InvalidHyperparameter, NonFiniteInput, SingularPrecision,
                     ZeroAcceptance)
from .estimators import LogPosterior
from .models import Dataset, ModelSpec, row_outer
from .priors import PriorSpec, _komaki_shape


@dataclass(frozen=True)
class ChainConfig:
    length: int
    burnin: int = 0
    seed: int = 0
    step_scale: float | None = None

    def __post_init__(self):
        if not all(isinstance(v, Integral) for v in (self.length, self.burnin)):
            raise ValueError("length and burnin must be integers")
        if self.length <= 0 or self.burnin < 0:
            raise ValueError("need length > 0 and burnin >= 0")
        # batch means need two kept draws
        if self.length < 2:
            raise ValueError(f"length {self.length} keeps fewer than 2 draws")
        if self.step_scale is not None and not 0 < self.step_scale < np.inf:
            raise ValueError("step_scale must be finite and positive")


@dataclass
class ChainOutput:
    """A chain's kept draws and its estimate of the posterior mean.

    posterior_mean and mc_se (its batch-means standard error) come from the
    draws, or for polya_gamma_gibbs from the draws corrected by zero-variance
    control variates in the score of log pi, given more than 2d kept draws
    (see _finalize); ess is always the draws' batch-means ESS, a measure of
    mixing.  diagnostics["estimator"] says which ("draws" or
    "zero-variance"), diagnostics["zv_degree"] (1, 2 or 3, zero-variance
    only) the control variates' polynomial degree, and
    diagnostics["draws_mc_se"] holds the draws' own standard error.
    """

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
    if m < 2:
        raise ValueError(f"batch means need at least 2 rows, got {m}")
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


def _finalize(samples, accepted, seed, extra, scores=None):
    """The chain's output; ess is always the draws'.

    Without scores, posterior_mean and mc_se are the draws' mean and its
    batch-means standard error.  scores, the gradient s of log pi at each
    draw, give zero-variance control variates (Mira, Solgi & Imparato 2013):
    for a polynomial P, Laplacian(P) + grad(P) . s has posterior mean 0.
    Degree 1 takes the d columns of s; degree k adds one per monomial P of
    degree k, to absorb the skew of a nearly Gaussian pi (degree 2) and the
    next order (degree 3).  The degree is the highest k <= 3 whose columns
    number at most 6.5 d (6.5 times the samples array) and m / 10 for m kept
    draws; diagnostics["zv_degree"] says which.  c is cross-fitted: the
    least-squares fit of one contiguous half's centred draws on its centred
    columns corrects the other half, and posterior_mean and mc_se are the
    mean and batch-means standard error of samples minus the uncentred
    columns times c.  A half of at most d draws cannot fit c, so such a
    chain reports its draws.  The corrected draws are all the mean for a
    Gaussian pi, at degree 2 for a product of Gammas and at degree 3 for one
    of inverse Gammas.  mc_se still reads low: for logistic posteriors the
    errors against a quadrature oracle spread up to 1.4 times it, and up to
    1.55 times for one in-sample fit on all m draws.
    """
    draws_se, ess = batch_means_se(samples)
    diagnostics = dict(extra, estimator="draws", draws_mc_se=draws_se)
    m, d = samples.shape
    if scores is None or m // 2 <= d:
        mean, se = samples.mean(axis=0), draws_se
    else:
        cv, degree = scores, 1
        for k in (2, 3):
            if cv.shape[1] + comb(d + k - 1, k) > min(6.5 * d, m / 10):
                break
            # row i of t: the i-th index of each monomial P = theta_a theta_b
            # ... (a <= b <= ...); f[i], s[i]: those factors and their scores
            t = np.array(list(combinations_with_replacement(range(d), k))).T
            f, s = (np.moveaxis(v[:, t], 1, 0) for v in (samples, scores))
            if k == 2:
                new = f[1] * s[0] + f[0] * s[1] + 2.0 * (t[0] == t[1])
            else:
                fa, fb, fc = f
                new = (fb * fc * s[0] + fa * fc * s[1] + fa * fb * s[2]
                       + 2.0 * ((t[0] == t[1]) * fc + (t[0] == t[2]) * fb
                                + (t[1] == t[2]) * fa))
            cv, degree = np.hstack((cv, new)), k
        corrected, h = samples.copy(), m // 2
        for fit, use in ((slice(h), slice(h, m)), (slice(h, m), slice(h))):
            c = np.linalg.lstsq(cv[fit] - cv[fit].mean(axis=0),
                                samples[fit] - samples[fit].mean(axis=0),
                                rcond=None)[0]
            corrected[use] -= cv[use] @ c
        mean, se = corrected.mean(axis=0), batch_means_se(corrected)[0]
        diagnostics.update(estimator="zero-variance", zv_degree=degree)
    return ChainOutput(samples, accepted / samples.shape[0], mean, se, ess,
                       seed, diagnostics)


# ---------------------------------------------------------------------------
# random-walk Metropolis-Hastings


def rwmh_target(log_target, init, config: ChainConfig, proposal="gaussian",
                chol_scale=None) -> ChainOutput:
    """Generic RWMH on a log target; the model-aware front end is rwmh()."""
    if proposal not in ("gaussian", "cauchy"):
        raise ValueError(f"proposal must be 'gaussian' or 'cauchy', got {proposal!r}")
    rng = np.random.default_rng(config.seed)
    theta = np.atleast_1d(np.asarray(init, dtype=float)).copy()
    d = theta.shape[0]
    step = config.step_scale
    if step is None:
        step = 2.38 / np.sqrt(d) if proposal == "gaussian" else 0.1 / np.sqrt(d)
    lt = log_target(theta)
    if not np.isfinite(lt):
        raise ValueError("initial point has non-finite target density")
    samples = np.empty((config.length, d))
    accepted = 0
    for it in range(config.burnin + config.length):
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
        if it >= config.burnin:
            samples[it - config.burnin] = theta
    out = _finalize(samples, accepted, config.seed,
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
# PG(1, z) = J*(1, h) / 4 with h = |z|/2, drawn by Devroye's scheme with
# truncation point t (Windle, Polson & Scott 2014).  J*(1, h) has density
# cosh(h) e^{-h^2 x/2} f(x), f the J*(1) density; the envelope puts a_0, the
# first term of f's alternating series, in place of f.  Right of t it is
# exponential.  Left of t, for h < 1/t, it drops the tilt: a_0 is twice the
# Levy(0, 1) density, drawn by inverse CDF, and e^{-h^2 x/2} joins the series
# test; for h >= 1/t it is IG(1/h, 1) truncated to (0, t), drawn by
# rejection.  One (3, k) block of uniforms serves a pass: row 0 picks the
# branch, row 1 inverts the proposal's CDF and row 2 is the series uniform.
#
# polya_gamma_1 on a Generator runs that scheme on every slot.  A Gibbs chain
# instead passes its PGPool: PG(1, z) is PG(1, 0) tilted by e^{-z^2 w/2}, so
# when every |z|/2 of a sweep is below the switch, each slot accepts PG(1, 0)
# draws made ahead of time with probability e^{-z^2 w/2}, at least
# 1/cosh(1) = 0.65 per draw.  A sweep with any slot at or above the switch
# runs the Devroye scheme on all its slots.

_PG_TRUNC = 0.64
# Phi(-1/sqrt(t)): X = 1/Z^2 with Z ~ N(0, 1) is Levy(0, 1), and X < t is
# |Z| > 1/sqrt(t), so 1/q^2 with q = ndtri(v * _PG_LEVY_MASS), v uniform on
# (0, 1], is X given X < t
_PG_LEVY_MASS = float(ndtr(-1.0 / np.sqrt(_PG_TRUNC)))
# for h < 1/t the envelope's left piece has mass 4 Phi(-1/sqrt(t)) cosh(h)
# and its right piece (pi/2) cosh(h) e^{-f t} / f, so left over right is
# this constant times f e^{f t}
_PG_LEFT_RATIO = 8.0 * _PG_LEVY_MASS / np.pi
# Devroye's squeeze: the series test's first partial sum 1 - 3 e^{-2A} has
# A >= min(pi^2 t / 2, 2 / t) = 3.125, so it never falls below 0.99421; only
# slots whose series uniform exceeds this bound need the series
_PG_SQUEEZE = 0.994
# a chain's PGPool serves a draw whose every |z|/2 is below _PG_POOL_SWITCH
# and refills _PG_POOL_BLOCK entries at a time
_PG_POOL_SWITCH = 1.0
_PG_POOL_BLOCK = 4096
# past this |z| the tilt z^2/2 overflows, and every draw would come out t/4
_PG_Z_MAX = float(np.sqrt(2.0) * np.sqrt(np.finfo(float).max))


def _pg_mass_texpon(z, fz):
    """Probability of the exponential branch when the left piece keeps the
    tilt (z >= 1/TRUNC); fz = pi^2/8 + z^2/2."""
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


def _pg_mass_untilted(fz):
    """Probability of the exponential branch when the left piece is
    untilted (z < 1/TRUNC); fz = pi^2/8 + z^2/2."""
    # e^{-f t} underflows to 0 where the weight is unused, never overflows
    w = np.exp(-_PG_TRUNC * fz)
    return w / (w + _PG_LEFT_RATIO * fz)


# the exponential branch's weight at z = 0, computed as _pg_devroye does
_PG_PEXP_ZERO = _pg_mass_untilted(np.array([np.pi**2 / 8.0]))[0]


def _rtigauss(rng, z):
    """IG(1/z, 1) truncated to (0, TRUNC) for z >= 1/TRUNC, by rejection.

    The mean 1/z lies inside the truncation, so untruncated IG draws
    (Michael, Schucany & Haas 1976) land below TRUNC most of the time.
    """
    mu = 1.0 / z
    res = np.empty(z.size)
    idx = np.arange(z.size)  # the open slots, in order; mu shrinks with them
    while idx.size:
        yv = rng.normal(size=idx.size) ** 2
        muy = mu * yv
        cand = mu + 0.5 * mu * muy - 0.5 * mu * np.sqrt(4.0 * muy + muy * muy)
        flip = rng.random(idx.size) > mu / (mu + cand)
        cand[flip] = mu[flip] ** 2 / cand[flip]
        res[idx] = cand
        keep = (cand > _PG_TRUNC).nonzero()[0]
        idx, mu = idx[keep], mu[keep]
    return res


def _pg_series_rejects(x, u):
    """Indices of the slots where u > f(x) / a_0(x): Devroye's series test.

    The J*(1) density is f = sum_k (-1)^k a_k with a_k(x) = pi (k + 1/2)
    exp(B(x) - (k + 1/2)^2 A(x)), where A = pi^2 x / 2, B = 0 right of t
    and A = 2 / x, B = 3/2 log(2 / (pi x)) left of it (the two forms are
    equal; each is monotone in k on its side).  B cancels from the ratios
    r_k = a_k / a_0 = (2k + 1) exp(-k (k + 1) A), so the partial sums of
    1 - r_1 + r_2 - ... decide every slot without forming a_k.
    """
    # Devroye's squeeze: a u at most _PG_SQUEEZE is below the first partial sum
    cand = (u > _PG_SQUEEZE).nonzero()[0]
    if not cand.size:
        return cand
    x, u = x[cand], u[cand]
    a = np.where(x > _PG_TRUNC, 0.5 * np.pi**2 * x, 2.0 / x)
    s = 1.0 - 3.0 * np.exp(-2.0 * a)
    rejected = u > s
    # the slots the first partial sum leaves open go on as index arrays
    idx = rejected.nonzero()[0]
    a, s, u = a[idx], s[idx], u[idx]
    k = 1
    while idx.size:
        k += 1
        s = s + (-1) ** k * (2 * k + 1) * np.exp(-k * (k + 1) * a)
        # odd partial sums bound f / a_0 from below, even ones from above
        if k % 2:
            done = u <= s
            rejected[idx[done]] = False
        else:
            done = u > s
        keep = (~done).nonzero()[0]
        idx, a, s, u = idx[keep], a[keep], s[keep], u[keep]
    return cand[rejected]


def _pg_devroye(rng, z):
    """Exact PG(1, z) draws for a finite float array z (Devroye-type scheme).

    A pass over the open slots takes one (3, k) block of uniforms; a slot
    that fails the series test goes into the next pass.  When every z is 0,
    as in a pool refill, the per-slot arrays are the z = 0 scalars: no tilt
    on the series uniform and no IG slots.
    """
    size, high, tilt = z.size, (), None
    fz, pexp = np.pi**2 / 8.0, _PG_PEXP_ZERO
    # z.z is 0 only if every tilt z^2/8 underflows to 0 (a cheaper test
    # than z.any()), and then the z = 0 scalars give the same draws
    if z.dot(z):
        half = np.abs(z) * 0.5
        tilt = 0.5 * half * half
        fz = tilt + fz
        pexp = _pg_mass_untilted(fz)
        high = (half >= 1.0 / _PG_TRUNC).nonzero()[0]
        if high.size:
            pexp[high] = _pg_mass_texpon(half[high], fz[high])
    out = pending = None
    # the per-slot arrays shrink with pending, so a pass indexes only them
    while True:
        u = rng.random((3, size))
        # u is a multiple of 2^-53, so 1 - u is exact and lies in (0, 1]:
        # neither log nor ndtri sees 0
        v = 1.0 - u[1]
        x = _PG_TRUNC - np.log(v) / fz
        w = u[2]
        levy = (u[0] >= pexp).nonzero()[0]
        if levy.size:
            if len(high):
                ig = half[levy] >= 1.0 / _PG_TRUNC
                levy, ig = levy[~ig], levy[ig]
                if ig.size:
                    x[ig] = _rtigauss(rng, half[ig])
            # the untilted Levy proposal, whose quantile is below
            # -1/sqrt(t), so 1/q^2 is finite: its series uniform carries the
            # factor e^{tilt x}, so the test accepts with probability
            # e^{-z^2 x/2} f(x) / a_0(x)
            q = ndtri(v[levy] * _PG_LEVY_MASS)
            x[levy] = xl = 1.0 / (q * q)
            if tilt is not None:
                w[levy] *= np.exp(tilt[levy] * xl)
        rejected = _pg_series_rejects(x, w)
        x *= 0.25
        # a pass writes every slot it drew; the next pass overwrites those
        # it rejected
        if out is None:
            out, pending = x, rejected
        else:
            out[pending] = x
            pending = pending[rejected]
        if not rejected.size:
            return out
        size = rejected.size
        if tilt is not None:
            half, fz, tilt, pexp = (half[rejected], fz[rejected],
                                    tilt[rejected], pexp[rejected])


class PGPool:
    """A chain's private supply of exact PG(1, 0) draws, each handed out once.

    PG(1, z) has density cosh(z/2) e^{-z^2 w/2} p_0(w), p_0 the PG(1, 0)
    density, so an entry w with its Exp(1) variate E is a PG(1, z) draw when
    E >= z^2 w/2, which happens with probability 1/cosh(z/2).  Entries come
    from _pg_devroye at z = 0 on the chain's generator, _PG_POOL_BLOCK at
    a time.
    """

    def __init__(self, rng):
        self.rng = rng
        self._omega = self._ratio = np.empty(0)
        self._next = 0

    def take(self, k):
        """The next k entries: the PG(1, 0) draws w and the ratios E / w."""
        start = self._next
        short = start + k - self._omega.size
        if short > 0:
            size = -(-short // _PG_POOL_BLOCK) * _PG_POOL_BLOCK
            w = _pg_devroye(self.rng, np.zeros(size))
            ratio = self.rng.standard_exponential(size) / w
            self._omega = np.concatenate((self._omega[start:], w))
            self._ratio = np.concatenate((self._ratio[start:], ratio))
            start = 0
        self._next = start + k
        return self._omega[start:start + k], self._ratio[start:start + k]

    def draw(self, z):
        """Exact PG(1, z) draws for a float array z whose every |z|/2 is
        below _PG_POOL_SWITCH: each slot takes entries until one is kept."""
        tilt = 0.5 * z * z
        omega, ratio = self.take(z.size)
        out = omega.copy()
        # a round writes every open slot; the next overwrites those it missed
        missed = (ratio < tilt).nonzero()[0]
        while missed.size:
            omega, ratio = self.take(missed.size)
            out[missed] = omega
            missed = missed[(ratio < tilt[missed]).nonzero()[0]]
        return out


def polya_gamma_1(source, z) -> np.ndarray:
    """Exact draws from PG(1, z) for an array z.

    source is a numpy Generator, for Devroye draws on every slot, or a
    chain's PGPool.  The pool serves a draw whose every |z|/2 is below
    _PG_POOL_SWITCH; any other takes Devroye draws on the pool's generator,
    whose passes carry the low slots almost for free.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if isinstance(source, PGPool):
        # one reduction, which NaN and +-inf fail too; in floats |z| < 2
        # holds exactly when z^2/2 < 2 does
        if (np.abs(z) < 2.0 * _PG_POOL_SWITCH).all():
            return source.draw(z)
        source = source.rng
    if not (np.abs(z) < _PG_Z_MAX).all():
        # the alternating series never decides a NaN slot: the loop would spin
        raise NonFiniteInput(f"PG(1, z) needs |z| < {_PG_Z_MAX:.4g}, "
                             "where z^2/2 overflows")
    return _pg_devroye(source, z)


# the score pass forms X beta for this many (draw, row) pairs at a time, so
# its temporaries stay at 128 KB whatever the chain length
_SCORE_CHUNK = 16384


def polya_gamma_gibbs(design, responses, prior: PriorSpec,
                      config: ChainConfig) -> ChainOutput:
    """Gibbs sampler for Bayesian logistic regression via PG augmentation.

    Alternates omega_i | beta ~ PG(1, x_i beta) and beta | omega ~ Normal with
    precision X' Omega X + prior precision.  Requires a Gaussian prior.

    posterior_mean is the zero-variance estimate: the draws' mean corrected
    by control variates in the score X'(y - sigmoid(X beta)) + P0 (m0 - beta)
    of each kept draw, cross-fitted over the chain's halves, of degree 3 for
    d <= 3 and 2 for d <= 10 given enough draws (90 for degree 3 at d = 2;
    see _finalize), and mc_se is its batch-means standard error.  The
    posterior is Gaussian up to an O(n^-1/2) skew, which degrees 2 and 3
    absorb, so the correction removes almost all the Monte Carlo error
    (Papamarkou, Mira & Girolami 2014).  The draws, the generator stream and
    ess are the plain sampler's; diagnostics["draws_mc_se"] is the draws'
    standard error.
    """
    # the row-count, empty and non-finite checks fire before any draw
    data = Dataset(responses, design)
    if data.responses.shape[1] != 1:
        raise ValueError("logistic responses must be a single column")
    # row-major, so a seed gives the same draws whatever the caller's layout
    x, y = np.ascontiguousarray(data.covariates), data.responses[:, 0]
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("logistic responses must be 0 or 1")
    d = x.shape[1]
    if prior.log_hess is None or not prior.proper:
        raise InvalidHyperparameter("polya_gamma_gibbs needs a proper Gaussian prior")
    zero = np.zeros(d)
    with np.errstate(all="ignore"):
        p0 = -prior.log_hess(zero)
    # an infinite or indefinite prior precision (e.g. a gamma prior at 0)
    # makes every PG draw degenerate and the sampler never returns
    if not np.all(np.isfinite(p0)):
        raise InvalidHyperparameter(f"prior precision at 0 is not finite: {p0}")
    if dpotrf(p0, lower=1)[1]:
        raise InvalidHyperparameter("prior precision at 0 is not positive definite")
    # for a Gaussian prior, log_grad(0) = P0 m0, so the conditional mean is
    # prec^-1 (kappa + log_grad(0))
    shift = x.T @ (y - 0.5) + prior.log_grad(zero)
    xx = row_outer(x)
    rng = np.random.default_rng(config.seed)
    pool = PGPool(rng)
    beta = np.zeros(d)
    samples = np.empty((config.length, d))
    for it in range(config.burnin + config.length):
        omega = polya_gamma_1(pool, x @ beta)
        prec = (omega @ xx).reshape(d, d) + p0
        chol, info = dpotrf(prec, lower=1)
        if info:
            raise SingularPrecision("conditional precision not PD")
        # beta = L^-T (L^-1 shift + eps): mean prec^-1 shift, covariance
        # prec^-1; a factor dpotrf accepted has a positive diagonal
        w = dtrtrs(chol, shift, lower=1)[0]
        beta = dtrtrs(chol, w + rng.standard_normal(d), lower=1, trans=1)[0]
        if it >= config.burnin:
            samples[it - config.burnin] = beta
    # the score at beta is shift - P0 beta - X'(sigmoid(X beta) - 1/2), and
    # sigmoid(eta) - 1/2 = tanh(eta / 2) / 2
    scores = shift - samples @ p0.T
    half_x = 0.5 * x
    rows = max(1, _SCORE_CHUNK // x.shape[0])
    for lo in range(0, config.length, rows):
        half_eta = samples[lo:lo + rows] @ half_x.T
        scores[lo:lo + rows] -= np.tanh(half_eta, out=half_eta) @ half_x
    return _finalize(samples, config.length, config.seed,
                     {"sampler": "pg-gibbs", "burnin": config.burnin,
                      "chain_length": config.length}, scores)


# ---------------------------------------------------------------------------
# exact draws for the Poisson shrinkage prior


def komaki_gibbs(counts, n: int, beta_vec, alpha_exp: float,
                 config: ChainConfig) -> ChainOutput:
    """Independent exact draws of Poisson rates under the shrinkage prior.

    With a = beta + S the posterior is sum(lam) ~ Gamma(sum a - alpha, rate n)
    and lam / sum(lam) ~ Dirichlet(a), so config.length iid draws are taken:
    all totals first, then all directions.  No chain runs and burnin draws
    nothing; the name stays for its callers.
    """
    counts = np.atleast_1d(np.asarray(counts, dtype=float))
    a = _komaki_shape(counts, n, beta_vec, alpha_exp)
    rng = np.random.default_rng(config.seed)
    total = rng.gamma(a.sum() - alpha_exp, 1.0 / n, size=config.length)
    samples = total[:, None] * rng.dirichlet(a, size=config.length)
    return _finalize(samples, config.length, config.seed,
                     {"sampler": "komaki-exact", "burnin": config.burnin,
                      "chain_length": config.length})
