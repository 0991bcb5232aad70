"""Model families with analytic log-likelihood derivatives.

Each model exposes the dataset-average log-likelihood (1/n) sum_t log p(y_t)
together with its first, second, and third parameter derivatives, the
per-observation scores and Hessians that Monte Carlo geometry averages, and
the Fisher information of one observation.  All evaluators are functions of
(data, theta) and safe to share across threads.  Every 2-D data array, a
Dataset's and LogisticGLM's design, is a read-only column-major copy: the
caller's array stays writable and never reaches what was cached, and each
weighted sum over observations is one contiguous BLAS pass.  LogisticGLM
keeps one record of the last point on its design, keyed on theta's bytes
and swapped in whole, so a thread never reads another point's entry.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import gammaln

from .errors import NonFiniteInput, NonFiniteLogDensity, StepTooLarge


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def row_outer(x):
    """(n, d*d) array whose row i is the flattened outer product x_i x_i'."""
    n, d = x.shape
    return (x[:, :, None] * x[:, None, :]).reshape(n, d * d)


def softplus(x):
    """log(1 + e^x) without overflow: max(x, 0) + log1p(e^-|x|)."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


# ---------------------------------------------------------------------------
# data containers


@dataclass(frozen=True)
class Dataset:
    """Stacked observations.  responses has shape (n, k); covariates (n, p) or None.

    Immutable: the arrays are read-only copies (the caller's stay writable),
    so the statistics cached on first use never go stale.  NaN or infinite
    entries raise NonFiniteInput here, before any model reads them."""

    responses: np.ndarray
    covariates: np.ndarray | None = None

    def __post_init__(self):
        for name in ("responses", "covariates"):
            if getattr(self, name) is not None:
                arr = np.asarray(getattr(self, name), dtype=float)
                # a flat vector is n scalar observations, not one n-vector observation
                arr = arr[:, None] if arr.ndim == 1 else np.atleast_2d(arr)
                object.__setattr__(self, name, _read_only(arr, name))
        if self.responses.shape[0] < 1:
            raise ValueError("dataset needs at least one observation")
        if self.covariates is not None and self.covariates.shape[0] != self.n:
            raise ValueError("covariate rows do not match response rows")

    @cached_property
    def response_mean(self) -> np.ndarray:
        return np.mean(self.responses, axis=0)

    @cached_property
    def response_square_mean(self) -> np.ndarray:
        return np.mean(self.responses**2, axis=0)

    @cached_property
    def log_factorial_mean(self) -> float:
        """Mean over rows of sum_j log y_j!, the Poisson log-likelihood
        constant; a negative count is a ValueError."""
        if np.any(self.responses < 0):
            raise ValueError("Poisson counts must be nonnegative")
        return float(np.mean(np.sum(gammaln(self.responses + 1.0), axis=1)))

    @property
    def n(self) -> int:
        return self.responses.shape[0]


def _dimension(dim) -> int:
    """dim as an int; ValueError unless it is an integer >= 1."""
    if isinstance(dim, bool) or not (isinstance(dim, (int, np.integer))
                                     and dim >= 1):
        raise ValueError(f"model dimension must be an integer >= 1, got {dim!r}")
    return int(dim)


def _read_only(arr, name) -> np.ndarray:
    """A read-only column-major copy of arr (so x.T is C-contiguous), which a
    later write to the caller's array, still writable, never reaches;
    NonFiniteInput on a NaN or infinite entry."""
    if not np.isfinite(arr).all():
        raise NonFiniteInput(f"{name} has non-finite entries")
    arr = arr.copy(order="F")
    arr.flags.writeable = False
    return arr


def check_point(model, theta) -> np.ndarray:
    """Validate a parameter point against the model's dimension and open support."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (model.dim,):
        raise ValueError(f"expected parameter of length {model.dim}, got {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("parameter has non-finite entries")
    if not model.in_support(theta):
        raise ValueError(f"parameter {theta} outside open support of {model.name}")
    return theta


# ---------------------------------------------------------------------------
# model contract


class ModelSpec:
    """Contract for a parametric family with analytic derivatives.

    Subclasses set dim, alpha, support (open boxes per coordinate) and
    implement the vectorized average derivatives over a Dataset.  The
    coordinates are alpha-affine (1: e-flat, -1: m-flat), so Gamma^(alpha)
    vanishes; alpha None means none is known and geometry goes by Monte Carlo.
    """

    dim: int
    alpha: float | None = None
    name: str = "model"

    # open interval per coordinate
    support: list[tuple[float, float]]

    def in_support(self, theta) -> bool:
        theta = np.atleast_1d(theta)
        if theta.shape[0] != self.dim:
            return False
        return in_open_box(theta, self._support_bounds)

    @cached_property
    def _support_bounds(self):
        # support is fixed at construction; in_support runs on every trial
        # point of a line search, so its arrays are built once
        return box_bounds(self.support)

    # -- averages over the dataset ----------------------------------------
    def avg_loglik(self, data: Dataset, theta) -> float:
        raise NotImplementedError

    def avg_grad(self, data: Dataset, theta) -> np.ndarray:
        raise NotImplementedError

    def avg_hess(self, data: Dataset, theta) -> np.ndarray:
        raise NotImplementedError

    def avg_third(self, data: Dataset, theta) -> np.ndarray:
        raise NotImplementedError

    # -- geometry hooks ----------------------------------------------------
    def fisher(self, theta) -> np.ndarray:
        raise NotImplementedError

    def fisher_hess(self, theta):
        """(d, d, d, d) array, [a, b, c, e] = d^2 g_ce / d theta_a d theta_b, or None.

        Dense, so it holds d^4 floats: 8 MB at d = 32, 800 MB at d = 100.
        """
        return None

    def skewness(self, theta):
        """Skewness tensor T_abc = E[s_a s_b s_c], needed when alpha is set:
        Gamma^e = -((1-alpha)/2) T, Gamma^m = ((1+alpha)/2) T, d_a g_bc = alpha T."""
        raise NotImplementedError(f"{type(self).__name__} has no skewness")

    def sample(self, theta, n, rng) -> Dataset:
        raise NotImplementedError

    def default_init(self, data: Dataset) -> np.ndarray:
        """Deterministic method-of-moments style starting point."""
        raise NotImplementedError

    def per_obs_score_hess(self, data: Dataset, theta):
        """Per-observation scores (n, d) and Hessians (n, d, d); row means are
        avg_grad and avg_hess.  Monte Carlo geometry needs it."""
        raise NotImplementedError(f"{type(self).__name__} has no per_obs_score_hess")


def box_bounds(support) -> tuple[np.ndarray, np.ndarray]:
    """Arrays (lo, hi) of the lower and upper ends of a list of (lo, hi) intervals."""
    lo, hi = np.array(support, dtype=float).reshape(-1, 2).T
    return lo.copy(), hi.copy()


def in_open_box(theta, bounds) -> bool:
    """lo < theta < hi in every coordinate, as one array comparison.

    bounds comes from box_bounds; a single interval applies to every
    coordinate.  NaN and infinite entries are never inside an open interval.
    """
    lo, hi = bounds
    return bool(np.count_nonzero((lo < theta) & (theta < hi)) == theta.size)


# ---------------------------------------------------------------------------
# concrete families


class GaussianKnownMeanPrecision(ModelSpec):
    """N(0, 1/theta) in the natural coordinate theta = 1/sigma^2.

    Natural exponential family with T(y) = -y^2/2 and psi(theta) = -(1/2) log theta.
    A dataset with more than one response column is a ValueError.
    """

    dim = 1
    alpha = 1.0
    name = "gaussian-precision"
    support = [(0.0, np.inf)]

    def avg_loglik(self, data, theta):
        th = float(theta[0])
        return (0.5 * np.log(th) - 0.5 * th * self._square_mean(data)
                - 0.5 * np.log(2 * np.pi))

    def avg_grad(self, data, theta):
        th = float(theta[0])
        return np.array([0.5 / th - 0.5 * self._square_mean(data)])

    def avg_hess(self, data, theta):
        th = float(theta[0])
        return np.array([[-0.5 / th**2]])

    def avg_third(self, data, theta):
        th = float(theta[0])
        return np.array([[[1.0 / th**3]]])

    def fisher(self, theta):
        th = float(theta[0])
        return np.array([[0.5 / th**2]])

    def fisher_hess(self, theta):
        th = float(theta[0])
        return np.array([[[[3.0 / th**4]]]])

    def skewness(self, theta):
        # third cumulant of T(y): psi'''(theta)
        th = float(theta[0])
        return np.array([[[-1.0 / th**3]]])

    def per_obs_score_hess(self, data, theta):
        th = float(theta[0])
        score = 0.5 / th - 0.5 * self._responses(data) ** 2
        return score, np.full((data.n, 1, 1), -0.5 / th**2)

    def sample(self, theta, n, rng):
        sd = 1.0 / np.sqrt(float(theta[0]))
        return Dataset(rng.normal(0.0, sd, size=(n, 1)))

    def default_init(self, data):
        return np.array([1.0 / max(self._square_mean(data), 1e-8)])

    def _responses(self, data) -> np.ndarray:
        """data.responses; a ValueError unless it has exactly one column."""
        k = data.responses.shape[1]
        if k != 1:
            raise ValueError(f"{self.name} takes 1 response column, got {k}")
        return data.responses

    def _square_mean(self, data) -> float:
        self._responses(data)
        return data.response_square_mean[0]


class PoissonSequence(ModelSpec):
    """d independent Poisson rates in mean coordinates lambda."""

    alpha = -1.0

    def __init__(self, dim=1):
        self.dim = _dimension(dim)
        self.name = f"poisson-seq-{dim}" if dim > 1 else "poisson"
        self.support = [(0.0, np.inf)] * dim

    def avg_loglik(self, data, theta):
        lam = np.asarray(theta, dtype=float)
        return float(data.response_mean @ np.log(lam) - np.sum(lam)
                     - data.log_factorial_mean)

    def avg_grad(self, data, theta):
        lam = np.asarray(theta, dtype=float)
        return data.response_mean / lam - 1.0

    def avg_hess(self, data, theta):
        lam = np.asarray(theta, dtype=float)
        return np.diag(-data.response_mean / lam**2)

    def avg_third(self, data, theta):
        lam = np.asarray(theta, dtype=float)
        out = np.zeros((self.dim,) * 3)
        idx = np.arange(self.dim)
        out[idx, idx, idx] = 2.0 * data.response_mean / lam**3
        return out

    def fisher(self, theta):
        lam = np.asarray(theta, dtype=float)
        return np.diag(1.0 / lam)

    def fisher_hess(self, theta):
        lam = np.asarray(theta, dtype=float)
        out = np.zeros((self.dim,) * 4)
        idx = np.arange(self.dim)
        out[idx, idx, idx, idx] = 2.0 / lam**3
        return out

    def skewness(self, theta):
        lam = np.asarray(theta, dtype=float)
        out = np.zeros((self.dim,) * 3)
        idx = np.arange(self.dim)
        out[idx, idx, idx] = 1.0 / lam**2
        return out

    def per_obs_score_hess(self, data, theta):
        lam = np.asarray(theta, dtype=float)
        y = data.responses
        return y / lam - 1.0, -(y / lam**2)[:, :, None] * np.eye(self.dim)

    def sample(self, theta, n, rng):
        lam = np.asarray(theta, dtype=float)
        return Dataset(rng.poisson(lam, size=(n, self.dim)).astype(float))

    def default_init(self, data):
        return np.maximum(data.response_mean, 0.1)


class PoissonRate(PoissonSequence):
    """Single Poisson rate in the mean coordinate."""

    def __init__(self):
        super().__init__(dim=1)


class _Outer:
    """row_outer(x), formed on first use; records share it through this
    holder, not the model, so no cycle keeps a model past its last use."""

    def __init__(self, x):
        self.x = x

    @cached_property
    def rows(self):
        return row_outer(self.x)


class _LogitPoint:
    """eta = x theta for one design x and point theta, and what the logistic
    evaluators read there, each formed once from e = e^-|eta| (the tanh
    sigmoid rounds p to 0 or 1 from |eta| ~ 37) with few large temporaries."""

    def __init__(self, x, theta, outer):
        self.x, self._outer = x, outer
        self.eta = x @ theta
        e = np.abs(self.eta)
        self.e = np.exp(np.negative(e, out=e), out=e)

    @cached_property
    def weights(self):
        """p and w = p (1 - p) = q r, with q = min(p, 1 - p) = e r, r = 1/(1 + e)."""
        r = self.e + 1.0
        np.reciprocal(r, out=r)
        q = self.e * r
        w = q * r
        return np.where(self.eta < 0.0, q, r), w

    @cached_property
    def gram(self):
        """(1/n) sum_i w_i x_i x_i', the Fisher metric: one GEMM."""
        x = self.x
        return (x.T * self.weights[1]) @ x / x.shape[0]

    @cached_property
    def cube(self):
        """(1/n) sum_i w_i (1 - 2 p_i) x_i x_i x_i, the skewness."""
        n, d = self.x.shape
        p, w = self.weights
        t = p * -2.0  # w (1 - 2p), formed in place
        t += 1.0
        t *= w
        return ((self.x.T * t) @ self._outer.rows).reshape(d, d, d) / n


class LogisticGLM(ModelSpec):
    """Bernoulli regression with the canonical logit link and fixed design.

    The link is canonical, so avg_hess is -fisher and avg_third -skewness,
    each read from one _LogitPoint.  Covariates equal to the design are read
    as the design, whose record of the last point is kept: a MAP search, its
    Jeffreys partner and the calibration form each point's weights once.
    """

    alpha = 1.0

    def __init__(self, design):
        self.design = _read_only(np.atleast_2d(np.asarray(design, dtype=float)),
                                 "design")
        self.dim = _dimension(self.design.shape[1])
        self.name = f"logistic-{self.dim}"
        self.support = [(-np.inf, np.inf)] * self.dim
        # (n, d*d), not n d^3: a Jeffreys-partner MAP reads it every step
        self._outer = _Outer(self.design)
        self._last = None
        self._seen = None

    def _design_for(self, data):
        x = data.covariates
        if x is None:
            if data.n != self.design.shape[0]:
                raise ValueError("dataset without covariates must match the stored design")
            return self.design
        # one comparison per (read-only) array, held itself, never its address
        seen = self._seen
        if seen is None or seen[0] is not x:
            seen = (x, np.array_equal(x, self.design))
            self._seen = seen
        return self.design if seen[1] else x

    def _at(self, x, theta) -> _LogitPoint:
        """The record at (x, theta).  Only the design's is kept, for the last
        point, and swapped in whole, so threads never mix two points."""
        theta = np.asarray(theta, dtype=float)
        if x is not self.design:
            return _LogitPoint(x, theta, _Outer(x))
        key = (theta.shape, theta.tobytes())
        last = self._last
        if last is not None and last[0] == key:
            return last[1]
        point = _LogitPoint(x, theta, self._outer)
        self._last = (key, point)
        return point

    def avg_loglik(self, data, theta):
        # sum_i softplus(eta_i) = sum_i max(eta_i, 0) + log1p(e_i)
        at = self._at(self._design_for(data), theta)
        return float((data.responses[:, 0] @ at.eta - np.log1p(at.e).sum()
                      - np.maximum(at.eta, 0.0).sum()) / data.n)

    def avg_grad(self, data, theta):
        x = self._design_for(data)
        return x.T @ (data.responses[:, 0] - self._at(x, theta).weights[0]) / data.n

    def avg_hess(self, data, theta):
        return -self._at(self._design_for(data), theta).gram

    def avg_third(self, data, theta):
        return -self._at(self._design_for(data), theta).cube

    def fisher(self, theta):
        return self._at(self.design, theta).gram.copy()

    def skewness(self, theta):
        return self._at(self.design, theta).cube.copy()

    def fisher_hess(self, theta):
        # d^2/d eta^2 of w = p(1-p) is w (1 - 6w)
        n, d = self.design.shape
        w = self._at(self.design, theta).weights[1]
        v = w * -6.0
        v += 1.0
        v *= w
        outer = self._outer.rows
        return ((outer.T * v) @ outer).reshape((d,) * 4) / n

    def per_obs_score_hess(self, data, theta):
        x = self._design_for(data)
        p = sigmoid(x @ np.asarray(theta, dtype=float))
        score = x * (data.responses[:, :1] - p[:, None])
        return score, -(p * (1.0 - p))[:, None, None] * x[:, :, None] * x[:, None, :]

    def sample(self, theta, n, rng):
        if n != self.design.shape[0]:
            raise ValueError("sample size must match the stored design")
        p = sigmoid(self.design @ np.asarray(theta, dtype=float))
        y = (rng.random(n) < p).astype(float)
        return Dataset(y[:, None], self.design)

    def default_init(self, data):
        return np.zeros(self.dim)


class MultivariateCauchyLocation(ModelSpec):
    """d-variate Cauchy with unknown location and identity scale matrix."""

    alpha = 0.0  # T = 0 and g is constant, so every alpha-connection vanishes

    def __init__(self, dim):
        self.dim = _dimension(dim)
        self.name = f"cauchy-{dim}"
        self.support = [(-np.inf, np.inf)] * dim
        # log Gamma((d+1)/2) - log Gamma(1/2) - d log pi, fixed by d
        self._log_const = (gammaln((self.dim + 1) / 2.0) - gammaln(0.5)
                           - self.dim * np.log(np.pi))

    def avg_loglik(self, data, theta):
        u = data.responses - np.asarray(theta, dtype=float)
        r2 = np.sum(u * u, axis=1)
        return float(self._log_const
                     - 0.5 * (self.dim + 1) * np.mean(np.log1p(r2)))

    def avg_grad(self, data, theta):
        u = data.responses - np.asarray(theta, dtype=float)
        denom = 1.0 + np.sum(u * u, axis=1)
        return (self.dim + 1) * np.mean(u / denom[:, None], axis=0)

    def avg_hess(self, data, theta):
        # mean of (-I D + 2 u u') / D^2 with D = 1 + |u|^2, as rank-1 sums
        u = data.responses - np.asarray(theta, dtype=float)
        denom = 1.0 + np.sum(u * u, axis=1)
        r = u / denom[:, None]
        h = 2.0 * (r.T @ r) / data.n
        h[np.diag_indices(self.dim)] -= np.mean(1.0 / denom)
        return (self.dim + 1) * h

    def avg_third(self, data, theta):
        # mean of -2 sym(I x u) / D^2 + 8 u x u x u / D^3
        u = data.responses - np.asarray(theta, dtype=float)
        denom = 1.0 + np.sum(u * u, axis=1)
        r = u / denom[:, None]
        v = np.mean(r / denom[:, None], axis=0)
        eye = np.eye(self.dim)
        sym = (eye[:, :, None] * v[None, None, :] + eye[:, None, :] * v[None, :, None]
               + eye[None, :, :] * v[:, None, None])
        # sum_i r_ia r_ib r_ic by one GEMM, never an (n, d, d, d) temporary
        cube = (r.T @ row_outer(r)).reshape((self.dim,) * 3)
        return (self.dim + 1) * (8.0 * cube / data.n - 2.0 * sym)

    def fisher(self, theta):
        # multivariate t with nu = 1 (Lange, Little & Taylor 1989)
        d = self.dim
        return (d + 1) / (d + 3) * np.eye(d)

    def skewness(self, theta):
        # the density is symmetric about theta, so every odd score moment is 0
        return np.zeros((self.dim,) * 3)

    def sample(self, theta, n, rng):
        z = rng.normal(size=(n, self.dim))
        w = rng.chisquare(1.0, size=n)
        return Dataset(np.asarray(theta, dtype=float) + z / np.sqrt(w)[:, None])

    def per_obs_score_hess(self, data, theta):
        u = data.responses - np.asarray(theta, dtype=float)
        denom = 1.0 + np.sum(u * u, axis=1)
        score = (self.dim + 1) * u / denom[:, None]
        eye = np.eye(self.dim)
        hess = (self.dim + 1) * (
            -eye[None] * denom[:, None, None]
            + 2.0 * u[:, :, None] * u[:, None, :]) / denom[:, None, None] ** 2
        return score, hess

    def default_init(self, data):
        return np.median(data.responses, axis=0)


# ---------------------------------------------------------------------------
# module-level operations


def third_derivative_tensor(model: ModelSpec, data: Dataset, theta) -> np.ndarray:
    """(1/n) sum of third log-density derivatives; fully symmetric rank-3 tensor."""
    theta = check_point(model, theta)
    t = model.avg_third(data, theta)
    if not np.all(np.isfinite(t)):
        raise NonFiniteLogDensity(f"third derivative tensor non-finite at {theta}")
    return t


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


def finite_diff_third(model: ModelSpec, data: Dataset, theta, h: float) -> np.ndarray:
    """Central finite differences of avg_hess; symmetrized fallback oracle.

    The step along coordinate a is relative, h * max(1, |theta_a|), so it
    equals h wherever |theta_a| <= 1.
    """
    theta = check_point(model, theta)
    if h <= 0:
        raise StepTooLarge(f"step h={h} must be positive")
    out = central_difference(lambda th: model.avg_hess(data, th), theta, h,
                             model.in_support)
    # symmetrize over all index orders
    sym = (out + out.transpose(1, 0, 2) + out.transpose(1, 2, 0)
           + out.transpose(0, 2, 1) + out.transpose(2, 0, 1)
           + out.transpose(2, 1, 0)) / 6.0
    return sym


# ---------------------------------------------------------------------------
# CSV ingestion


def load_dataset_csv(path) -> Dataset:
    """Load a dataset from a header CSV with y (or y1..yd) and x1..xk columns."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        ycols = [c for c in header if c == "y" or
                 (c.startswith("y") and c[1:].isdigit())]
        xcols = [c for c in header if c.startswith("x") and c[1:].isdigit()]
        if not ycols:
            raise ValueError("CSV needs a response column named y or y1..yd")
        ycols.sort(key=lambda c: int(c[1:]) if c[1:] else 0)
        xcols.sort(key=lambda c: int(c[1:]))
        ys, xs = [], []
        for row in reader:
            ys.append([float(row[c]) for c in ycols])
            if xcols:
                xs.append([float(row[c]) for c in xcols])
    return Dataset(np.array(ys), np.array(xs) if xs else None)


def load_banknote_csv(path) -> Dataset:
    """Load a headerless 5-column banknote-format CSV (4 features, 0/1 label)."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for line in csv.reader(fh):
            if not line:
                continue
            if len(line) != 5:
                raise ValueError("banknote format requires exactly 5 columns")
            rows.append([float(v) for v in line])
    arr = np.array(rows)
    return Dataset(arr[:, 4:5], arr[:, :4])
