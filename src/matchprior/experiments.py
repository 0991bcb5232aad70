"""Config-driven experiment harness.

Reproduces the library's benchmark scenarios at desk scale: synthetic logistic
gap studies, Poisson shrinkage gap studies, the Cauchy calibration sweep, and
timing tables.  Every run writes records.csv, summary.csv, and meta.json into
the configured output directory and is byte-reproducible from (config, seed),
timing columns aside.
"""

from __future__ import annotations

import csv
import functools
import json
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import MatchPriorError
from .estimators import calibrate_pm_from_map, map_estimate
from .mcmc import (ChainConfig, ChainOutput, batch_means_se, komaki_gibbs,
                   polya_gamma_gibbs, rwmh)
from .models import (Dataset, LogisticGLM, MultivariateCauchyLocation,
                     PoissonSequence, sigmoid)
from .oracle import conjugate_pm
from .priors import eflat_map_partner, komaki_prior, normal_prior


# the keys the harnesses read from ExperimentConfig.extra
_EXTRA_KEYS = frozenset({"generator", "counts_csv", "n", "m_grid",
                         "mcmc_burnin", "target"})


@dataclass
class ExperimentConfig:
    experiment: str
    out: str = "."
    n_grid: tuple = ()
    reps: int = 1
    seed: int = 0
    dim: int | None = None
    chain_length: int = 10000
    burnin: int = 10000
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, low in (("reps", 1), ("seed", 0), ("chain_length", 1),
                          ("burnin", 0), ("dim", 1)):
            value = getattr(self, name)
            if not (_is_int(value) and value >= low
                    or name == "dim" and value is None):
                raise ValueError(
                    f"{name} must be an integer >= {low}, got {value!r}")
        if not (isinstance(self.n_grid, (list, tuple))
                and all(_is_int(v) and v >= 1 for v in self.n_grid)):
            raise ValueError("n_grid must be a list of positive integers, "
                             f"got {self.n_grid!r}")
        self.n_grid = tuple(int(v) for v in self.n_grid)
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Fields by name; a harness key goes into extra.  Any other key,
        top-level or inside extra, is a ValueError, so a misspelled key never
        runs at the default."""
        if not (isinstance(d, dict) and isinstance(d.get("experiment"), str)
                and isinstance(d.get("extra", {}), dict)):
            raise ValueError("a config is an object with a string experiment "
                             "and, if given, an object extra")
        known = set(cls.__dataclass_fields__)
        unknown = sorted((set(d) - known - _EXTRA_KEYS)
                         | (set(d.get("extra", {})) - _EXTRA_KEYS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        kw = {k: v for k, v in d.items() if k in known}
        kw["extra"] = {**kw.get("extra", {}),
                       **{k: v for k, v in d.items() if k in _EXTRA_KEYS}}
        return cls(**kw)


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def derived_seed(seed: int, *parts: int) -> int:
    """Deterministic child seed for one experiment cell."""
    ss = np.random.SeedSequence([int(seed)] + [int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _join(vec) -> str:
    return ";".join(_fmt(v) for v in np.atleast_1d(vec))


def _workers() -> int:
    return 1  # cells run serially; bench/run.py records this value


@functools.cache
def _git_hash() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             cwd=Path(__file__).parent)
        return out.stdout.strip() or None
    except Exception:
        return None


_RECORD_FIELDS = ["experiment", "n", "rep", "estimator", "estimate",
                  "gap_l2", "gap_coords", "mc_se", "status", "seconds"]


def _write_outputs(config: ExperimentConfig, rows: list[dict],
                   meta_extra: dict, unread: list[str],
                   extra_read=()) -> Path:
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = sorted(rows, key=lambda r: (int(r["n"]), int(r["rep"]),
                                       r["estimator"]))
    with open(out / "records.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=_RECORD_FIELDS)
        w.writeheader()
        for r in rows:
            w.writerow({k: r.get(k, "") for k in _RECORD_FIELDS})

    groups: dict[tuple, list[float]] = {}
    for r in rows:
        if r.get("status") == "ok" and r.get("gap_l2") not in ("", None):
            groups.setdefault((int(r["n"]), r["estimator"]), []).append(
                float(r["gap_l2"]))
    with open(out / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "estimator", "mean_gap_l2", "sd_gap_l2", "count"])
        for (n, est), gaps in sorted(groups.items()):
            arr = np.asarray(gaps)
            w.writerow([n, est, _fmt(arr.mean()),
                        _fmt(arr.std(ddof=1) if arr.size > 1 else 0.0),
                        arr.size])
    return _write_meta(out, config, meta_extra, unread, extra_read)


def _write_meta(out: Path, config: ExperimentConfig, meta_extra: dict,
                unread: list[str], extra_read=()) -> Path:
    # "unread": the config fields the harness never read, though config has
    # them, and as "extra.<key>" each key of extra outside extra_read
    unread = [*unread, *(f"extra.{k}" for k in config.extra
                         if k not in extra_read)]
    meta = {"config": asdict(config), "git_hash": _git_hash(),
            "unread": sorted(unread), **meta_extra}
    with open(out / "meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
    return out


def _gap_row(experiment, n, rep, label, point, reference, seconds,
             mc_se=None) -> dict:
    gap = np.atleast_1d(point) - np.atleast_1d(reference)
    return {"experiment": experiment, "n": n, "rep": rep, "estimator": label,
            "estimate": _join(point), "gap_l2": _fmt(np.linalg.norm(gap)),
            "gap_coords": _join(np.abs(gap)),
            "mc_se": _join(mc_se) if mc_se is not None else "",
            "status": "ok", "seconds": _fmt(seconds)}


def _error_row(experiment, n, rep, label, exc) -> dict:
    return {"experiment": experiment, "n": n, "rep": rep, "estimator": label,
            "estimate": "", "gap_l2": "", "gap_coords": "", "mc_se": "",
            "status": f"error:{type(exc).__name__}: {exc}", "seconds": ""}


def _timed(job):
    t0 = time.perf_counter()
    result = job()
    return result, time.perf_counter() - t0


def _cell_rows(experiment, n, rep, jobs) -> list[dict]:
    """Time each (label, job) of one cell in order.  A job returns a chain,
    whose posterior mean and mc_se are recorded, an estimate, whose point
    is, or a bare array, recorded as a point with a blank mc_se.  The first
    job's point is the reference the others are measured against, so when it
    raises a MatchPriorError the cell ends at its error row."""
    rows, ref = [], None
    for label, job in jobs:
        try:
            res, seconds = _timed(job)
        except MatchPriorError as exc:
            rows.append(_error_row(experiment, n, rep, label, exc))
            if ref is None:
                break
            continue
        point, mc_se = ((res.posterior_mean, res.mc_se)
                        if isinstance(res, ChainOutput)
                        else (getattr(res, "point", res), None))
        ref = point if ref is None else ref
        rows.append(_gap_row(experiment, n, rep, label, point, ref, seconds,
                             mc_se))
    return rows


# ---------------------------------------------------------------------------
# logistic synthetic scenarios


def logistic_design(n: int) -> np.ndarray:
    i = np.arange(1, n + 1)
    return np.column_stack([i / n, np.ones(n)])


def logistic_scenario_data(scenario: int, n: int, rng) -> np.ndarray:
    x = np.arange(1, n + 1) / n
    if scenario == 1:
        return (rng.random(n) < sigmoid(x)).astype(float)
    if scenario == 2:
        return (np.arange(1, n + 1) > n / 2).astype(float)
    raise ValueError(f"unknown scenario {scenario}")


def _logistic_inputs(scenario, n, seed):
    """Design, responses, model, data and ridge prior of one logistic cell."""
    y = logistic_scenario_data(scenario, n, np.random.default_rng(seed))
    design = logistic_design(n)
    return (design, y, LogisticGLM(design),
            Dataset(responses=y, covariates=design), normal_prior(0.0, 1.0))


def _logistic_cell(scenario, n, rep, config: ExperimentConfig):
    cell_seed = derived_seed(config.seed, scenario, n, rep)
    design, y, model, data, ridge = _logistic_inputs(scenario, n, cell_seed)
    chain_cfg = ChainConfig(length=config.chain_length, burnin=config.burnin,
                            seed=derived_seed(cell_seed, 1))
    partner = eflat_map_partner(ridge, model)
    return _cell_rows(f"logistic-s{scenario}", n, rep, [
        ("pm-gibbs", lambda: polya_gamma_gibbs(design, y, ridge, chain_cfg)),
        ("map-ridge", lambda: map_estimate(model, data, ridge)),
        ("map-matching", lambda: map_estimate(model, data, partner))])


def run_logistic_synthetic(scenario: int, config: ExperimentConfig) -> Path:
    """Gap study: ridge MAP and matching-pair MAP against the Gibbs posterior
    mean, across the n grid.  Scenario 1 is random Bernoulli data, scenario 2
    a deterministic misspecified split."""
    if not config.n_grid:
        config.n_grid = tuple(2 ** t for t in range(4, 10 if scenario == 1 else 12))
    reps = config.reps if scenario == 1 else 1
    rows = [row for n in config.n_grid for rep in range(reps)
            for row in _logistic_cell(scenario, n, rep, config)]
    return _write_outputs(config, rows,
                          {"scenario": scenario, "reference": "pm-gibbs"},
                          ["dim"] if scenario == 1 else ["dim", "reps"])


# ---------------------------------------------------------------------------
# Poisson shrinkage


def shrinkage_rates(d: int) -> np.ndarray:
    lam = np.full(d, 2.0)
    lam[::2] = 0.001  # 1-based odd indices
    return lam


def _shrinkage_inputs(counts, n):
    """beta, alpha, model, data and floored komaki prior of one shrinkage
    cell with count sums counts over n periods."""
    d = counts.shape[0]
    beta = np.full(d, 3.0)
    alpha = beta.sum() - 1.0
    # n rows with the observed average reproduce the likelihood of the sums
    data = Dataset(responses=np.tile(counts / n, (n, 1)))
    return (beta, alpha, PoissonSequence(d), data,
            komaki_prior(beta, alpha, floor=1e-3))


def _shrinkage_cell(n, rep, counts):
    beta, alpha, model, data, prior = _shrinkage_inputs(counts, n)
    pm = functools.partial(conjugate_pm, "poisson-komaki", data=data)
    return _cell_rows("poisson-shrinkage", n, rep, [
        ("map-komaki", lambda: map_estimate(model, data, prior)),
        ("pm-komaki", lambda: pm((beta, alpha))),
        ("pm-matching", lambda: pm((beta - 1.0, alpha)))])


def run_poisson_shrinkage(config: ExperimentConfig) -> Path:
    """Shrinkage-prior gap study on independent Poisson rates.

    Compares the closed-form posterior means (conjugate_pm "poisson-komaki")
    under the shrinkage prior and under its matching-pair partner, beta - 1,
    against the bounded MAP under the shrinkage prior.  No chain runs, so
    chain_length and burnin are not read (meta.json lists them under
    "unread") and mc_se is blank.
    config.extra["generator"] picks the counts: "synthetic" (default)
    alternates tiny and moderate rates in config.dim (default 100)
    coordinates; "csv" reads a (periods x d) count matrix from
    extra["counts_csv"] and sums its first n rows.
    """
    if not config.n_grid:
        config.n_grid = (1, 10, 100, 1000)
    generator = config.extra.get("generator", "synthetic")
    unread = ["burnin", "chain_length"]
    if generator == "synthetic":
        d = config.dim or 100
        lam = shrinkage_rates(d)
        cells = [(n, rep, np.random.default_rng(
                      derived_seed(config.seed, n, rep, 7)).poisson(
                          lam * n).astype(float))
                 for n in config.n_grid for rep in range(config.reps)]
    elif generator == "csv":
        path = config.extra.get("counts_csv")
        if not path:
            raise ValueError("csv generator needs extra['counts_csv']")
        mat = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
        d = mat.shape[1]
        if config.dim not in (None, d):
            raise ValueError(f"dim {config.dim} conflicts with the {d} "
                             f"columns of {path}")
        if config.n_grid[-1] > mat.shape[0]:
            raise ValueError(f"n={config.n_grid[-1]} exceeds the "
                             f"{mat.shape[0]} available periods")
        cells = [(n, 0, mat[:n].sum(axis=0)) for n in config.n_grid]
        unread += ["reps", "seed"]
    else:
        raise ValueError(f"unknown generator {generator!r}")
    rows = [row for n, rep, counts in cells
            for row in _shrinkage_cell(n, rep, counts)]
    return _write_outputs(config, rows, {"generator": generator, "dim": d,
                                         "reference": "map-komaki"}, unread,
                          ("generator", "counts_csv") if generator == "csv"
                          else ("generator",))


# ---------------------------------------------------------------------------
# Cauchy calibration sweep


def run_cauchy_calibration(config: ExperimentConfig) -> Path:
    """MAP, one-step calibrated point, and an RWMH posterior-mean trajectory
    on the multivariate Cauchy location model under a wide normal prior."""
    d = config.dim or 10
    n = config.extra.get("n", 10)
    m_grid = config.extra.get("m_grid", (1000, 5000, 10000, 20000, 50000))
    burnin = config.extra.get("mcmc_burnin", 5000)
    for key, value, low in (("n", n, 1), ("mcmc_burnin", burnin, 0)):
        if not (_is_int(value) and value >= low):
            raise ValueError(f"{key} must be an integer >= {low}, got {value!r}")
    # batch means need two draws in every prefix
    if not (isinstance(m_grid, (list, tuple)) and m_grid
            and all(_is_int(m) and m >= 2 for m in m_grid)):
        raise ValueError("m_grid must be a non-empty list of integers >= 2, "
                         f"got {m_grid!r}")
    m_max = max(m_grid)
    model = MultivariateCauchyLocation(d)
    prior = normal_prior(0.0, 100.0)
    rows = []
    acceptance = []
    tag = f"cauchy-d{d}"
    for rep in range(config.reps):
        cell_seed = derived_seed(config.seed, d, n, rep)
        data = model.sample(np.zeros(d), n, np.random.default_rng(cell_seed))
        map_res, t_map = _timed(lambda: map_estimate(model, data, prior))
        cal, t_cal = _timed(lambda: calibrate_pm_from_map(
            model, data, map_res.point, information="observed"))
        chain, t_chain = _timed(lambda: rwmh(
            model, data, prior,
            ChainConfig(length=m_max, burnin=burnin,
                        seed=derived_seed(cell_seed, 1)),
            proposal="gaussian", init=map_res.point))
        acceptance.append(chain.acceptance_rate)
        ref = chain.posterior_mean
        for m in m_grid:
            part = chain.samples[:m]
            se, _ = batch_means_se(part)
            rows.append(_gap_row(tag, n, rep, f"rwmh-m{m}", part.mean(axis=0),
                                 ref, t_chain * m / m_max, mc_se=se))
        rows.append(_gap_row(tag, n, rep, "map", map_res.point, ref, t_map))
        rows.append(_gap_row(tag, n, rep, "calibrated", cal.point, ref, t_cal))
    return _write_outputs(config, rows,
                          {"dim": d, "n": n, "m_grid": list(m_grid),
                           "reference": f"rwmh-m{m_max}",
                           "acceptance_rate": acceptance},
                          ["burnin", "chain_length", "n_grid"],
                          ("n", "m_grid", "mcmc_burnin"))


# ---------------------------------------------------------------------------
# timing tables


def run_timing(config: ExperimentConfig) -> Path:
    """Wall-clock table (mean and sd seconds per method per n).

    extra["target"] picks the workload: "logistic" (default) or "shrinkage".
    """
    if config.reps < 3:
        raise ValueError("timing runs need at least 3 repetitions")
    target = config.extra.get("target", "logistic")
    if target not in ("logistic", "shrinkage"):
        raise ValueError(f"unknown timing target {target!r}")
    if not config.n_grid:
        config.n_grid = (16, 64, 256) if target == "logistic" else (1, 10, 100)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in config.n_grid:
        times: dict[str, list[float]] = {}
        for rep in range(config.reps):
            seed = derived_seed(config.seed, n, rep)
            chain_cfg = ChainConfig(length=config.chain_length,
                                    burnin=config.burnin, seed=seed)
            if target == "logistic":
                design, y, model, data, prior = _logistic_inputs(1, n, seed)
                jobs = {"map-matching": lambda: map_estimate(
                            model, data, eflat_map_partner(prior, model)),
                        "pm-gibbs": lambda: polya_gamma_gibbs(
                            design, y, prior, chain_cfg)}
            else:
                rng = np.random.default_rng(seed)
                counts = rng.poisson(
                    shrinkage_rates(config.dim or 100) * n).astype(float)
                beta, alpha, model, data, prior = _shrinkage_inputs(counts, n)
                jobs = {"map-komaki": lambda: map_estimate(model, data, prior),
                        "pm-gibbs": lambda: komaki_gibbs(
                            counts, n, beta, alpha, chain_cfg)}
            for label, job in jobs.items():
                times.setdefault(label, []).append(_timed(job)[1])
        for label, ts in sorted(times.items()):
            arr = np.asarray(ts)
            rows.append([n, label, _fmt(arr.mean()), _fmt(arr.std(ddof=1))])
    with open(out / "timing.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "method", "mean_seconds", "sd_seconds"])
        w.writerows(rows)
    return _write_meta(out, config, {"target": target},
                       ["dim"] if target == "logistic" else [], ("target",))
