"""Config-driven experiment harness.

Reproduces the library's benchmark scenarios at desk scale: synthetic logistic
gap studies, Poisson shrinkage gap studies, the Cauchy calibration sweep, and
timing tables.  Every run writes records.csv, summary.csv, and meta.json into
the configured output directory and is byte-reproducible from (config, seed),
timing columns aside.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import MatchPriorError
from .estimators import calibrate_pm_from_map, map_estimate
from .mcmc import (ChainConfig, batch_means_se, komaki_gibbs,
                   polya_gamma_gibbs, rwmh)
from .models import (Dataset, LogisticGLM, MultivariateCauchyLocation,
                     PoissonSequence, sigmoid)
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
        self.n_grid = tuple(int(v) for v in self.n_grid)
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n grid must be strictly increasing")
        if self.reps < 1:
            raise ValueError("repetitions must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Fields by name; a harness key goes into extra.  Any other key,
        top-level or inside extra, is a ValueError, so a misspelled key never
        runs at the default."""
        known = set(cls.__dataclass_fields__)
        unknown = sorted((set(d) - known - _EXTRA_KEYS)
                         | (set(d.get("extra", {})) - _EXTRA_KEYS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        kw = {k: v for k, v in d.items() if k in known}
        kw["extra"] = {**kw.get("extra", {}),
                       **{k: v for k, v in d.items() if k in _EXTRA_KEYS}}
        return cls(**kw)


def derived_seed(seed: int, *parts: int) -> int:
    """Deterministic child seed for one experiment cell."""
    ss = np.random.SeedSequence([int(seed)] + [int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _fmt(x) -> str:
    return f"{float(x):.12g}"


def _join(vec) -> str:
    return ";".join(_fmt(v) for v in np.atleast_1d(vec))


def _workers() -> int:
    env = os.environ.get("MATCHPRIOR_THREADS")
    if env:
        return max(1, int(env))
    return min(4, os.cpu_count() or 1)


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
                   meta_extra: dict | None = None) -> Path:
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

    meta = {"config": asdict(config), "git_hash": _git_hash(),
            "workers": _workers()}
    if meta_extra:
        meta.update(meta_extra)
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


def _logistic_cell(scenario, n, rep, config: ExperimentConfig):
    tag = f"logistic-s{scenario}"
    cell_seed = derived_seed(config.seed, scenario, n, rep)
    rng = np.random.default_rng(cell_seed)
    y = logistic_scenario_data(scenario, n, rng)
    design = logistic_design(n)
    model = LogisticGLM(design)
    data = Dataset(responses=y, covariates=design)
    ridge = normal_prior(0.0, 1.0)
    rows = []

    t0 = time.perf_counter()
    try:
        chain = polya_gamma_gibbs(
            design, y, ridge,
            ChainConfig(length=config.chain_length, burnin=config.burnin,
                        seed=derived_seed(cell_seed, 1)))
        pm = chain.posterior_mean
    except MatchPriorError as exc:
        rows.append(_error_row(tag, n, rep, "pm-gibbs", exc))
        return rows
    t_pm = time.perf_counter() - t0
    rows.append(_gap_row(tag, n, rep, "pm-gibbs", pm, pm, t_pm,
                         mc_se=chain.mc_se))

    for label, prior in (("map-ridge", ridge),
                         ("map-matching", eflat_map_partner(ridge, model))):
        t0 = time.perf_counter()
        try:
            est = map_estimate(model, data, prior)
            rows.append(_gap_row(tag, n, rep, label, est.point, pm,
                                 time.perf_counter() - t0))
        except MatchPriorError as exc:
            rows.append(_error_row(tag, n, rep, label, exc))
    return rows


def run_logistic_synthetic(scenario: int, config: ExperimentConfig) -> Path:
    """Gap study: ridge MAP and matching-pair MAP against the Gibbs posterior
    mean, across the n grid.  Scenario 1 is random Bernoulli data, scenario 2
    a deterministic misspecified split."""
    if not config.n_grid:
        config.n_grid = tuple(2 ** t for t in range(4, 10 if scenario == 1 else 12))
    reps = config.reps if scenario == 1 else 1
    cells = [(n, r) for n in config.n_grid for r in range(reps)]
    rows = []
    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        for part in pool.map(
                lambda c: _logistic_cell(scenario, c[0], c[1], config), cells):
            rows.extend(part)
    return _write_outputs(config, rows, {"scenario": scenario,
                                         "reference": "pm-gibbs"})


# ---------------------------------------------------------------------------
# Poisson shrinkage


def shrinkage_rates(d: int) -> np.ndarray:
    lam = np.full(d, 2.0)
    lam[::2] = 0.001  # 1-based odd indices
    return lam


def _shrinkage_cell(n, rep, counts, config: ExperimentConfig):
    tag = "poisson-shrinkage"
    d = counts.shape[0]
    beta_vec = np.full(d, 3.0)
    alpha_exp = beta_vec.sum() - 1.0
    model = PoissonSequence(d)
    # n rows with the observed average reproduce the likelihood of the sums
    data = Dataset(responses=np.tile(counts / n, (n, 1)))
    cell_seed = derived_seed(config.seed, n, rep)
    prior = komaki_prior(beta_vec, alpha_exp, floor=1e-3)
    rows = []

    t0 = time.perf_counter()
    try:
        ref = map_estimate(model, data, prior).point
        rows.append(_gap_row(tag, n, rep, "map-komaki", ref, ref,
                             time.perf_counter() - t0))
    except MatchPriorError as exc:
        rows.append(_error_row(tag, n, rep, "map-komaki", exc))
        return rows

    chain_cfg = ChainConfig(length=config.chain_length, burnin=config.burnin,
                            seed=derived_seed(cell_seed, 1))
    specs = [("pm-komaki", beta_vec),
             ("pm-matching", beta_vec - 1.0)]
    for label, bvec in specs:
        t0 = time.perf_counter()
        try:
            chain = komaki_gibbs(counts, n, bvec, alpha_exp, chain_cfg)
            rows.append(_gap_row(tag, n, rep, label, chain.posterior_mean,
                                 ref, time.perf_counter() - t0,
                                 mc_se=chain.mc_se))
        except MatchPriorError as exc:
            rows.append(_error_row(tag, n, rep, label, exc))
    return rows


def run_poisson_shrinkage(config: ExperimentConfig,
                          generator: str = "synthetic") -> Path:
    """Shrinkage-prior gap study on independent Poisson rates.

    Compares the Gibbs posterior mean under the shrinkage prior and under its
    matching-pair partner against the bounded MAP under the shrinkage prior.
    The synthetic generator alternates tiny and moderate rates; the csv
    generator reads a (periods x d) count matrix from extra["counts_csv"].
    """
    if not config.n_grid:
        config.n_grid = (1, 10, 100, 1000)
    d = config.dim or 100
    rows = []
    cells = []
    if generator == "synthetic":
        lam = shrinkage_rates(d)
        for n in config.n_grid:
            for rep in range(config.reps):
                rng = np.random.default_rng(derived_seed(config.seed, n, rep, 7))
                counts = rng.poisson(lam * n).astype(float)
                cells.append((n, rep, counts))
    elif generator == "csv":
        path = config.extra.get("counts_csv")
        if not path:
            raise ValueError("csv generator needs extra['counts_csv']")
        mat = np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
        for n in config.n_grid:
            if n > mat.shape[0]:
                raise ValueError(f"n={n} exceeds the {mat.shape[0]} available periods")
            cells.append((n, 0, mat[:n].sum(axis=0)))
    else:
        raise ValueError(f"unknown generator {generator!r}")
    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        for part in pool.map(lambda c: _shrinkage_cell(c[0], c[1], c[2], config),
                             cells):
            rows.extend(part)
    return _write_outputs(config, rows, {"generator": generator, "dim": d,
                                         "reference": "map-komaki"})


# ---------------------------------------------------------------------------
# Cauchy calibration sweep


def run_cauchy_calibration(config: ExperimentConfig) -> Path:
    """MAP, one-step calibrated point, and an RWMH posterior-mean trajectory
    on the multivariate Cauchy location model under a wide normal prior."""
    d = config.dim or 10
    n = int(config.extra.get("n", 10))
    m_grid = tuple(int(m) for m in config.extra.get(
        "m_grid", (1000, 5000, 10000, 20000, 50000)))
    m_max = max(m_grid)
    burnin = int(config.extra.get("mcmc_burnin", 5000))
    model = MultivariateCauchyLocation(d)
    prior = normal_prior(0.0, 100.0)
    rows = []
    acceptance = []
    tag = f"cauchy-d{d}"
    for rep in range(config.reps):
        cell_seed = derived_seed(config.seed, d, n, rep)
        rng = np.random.default_rng(cell_seed)
        data = model.sample(np.zeros(d), n, rng)
        t0 = time.perf_counter()
        map_res = map_estimate(model, data, prior)
        t_map = time.perf_counter() - t0
        t0 = time.perf_counter()
        cal = calibrate_pm_from_map(model, data, map_res.point,
                                    information="observed")
        t_cal = time.perf_counter() - t0

        t0 = time.perf_counter()
        chain = rwmh(model, data, prior,
                     ChainConfig(length=m_max, burnin=burnin,
                                 seed=derived_seed(cell_seed, 1)),
                     proposal="gaussian", init=map_res.point)
        t_chain = time.perf_counter() - t0
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
                           "acceptance_rate": acceptance})


# ---------------------------------------------------------------------------
# timing tables


def run_timing(config: ExperimentConfig) -> Path:
    """Wall-clock table (mean and sd seconds per method per n).

    extra["target"] picks the workload: "logistic" (default) or "shrinkage".
    """
    if config.reps < 3:
        raise ValueError("timing runs need at least 3 repetitions")
    target = config.extra.get("target", "logistic")
    if not config.n_grid:
        config.n_grid = (16, 64, 256) if target == "logistic" else (1, 10, 100)
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for n in config.n_grid:
        times: dict[str, list[float]] = {}
        for rep in range(config.reps):
            seed = derived_seed(config.seed, n, rep)
            rng = np.random.default_rng(seed)
            if target == "logistic":
                y = logistic_scenario_data(1, n, rng)
                design = logistic_design(n)
                model = LogisticGLM(design)
                data = Dataset(responses=y, covariates=design)
                prior = normal_prior(0.0, 1.0)
                jobs = {
                    "map-matching": lambda: map_estimate(
                        model, data, eflat_map_partner(prior, model)),
                    "pm-gibbs": lambda: polya_gamma_gibbs(
                        design, y, prior,
                        ChainConfig(length=config.chain_length,
                                    burnin=config.burnin, seed=seed)),
                }
            else:
                d = config.dim or 100
                counts = rng.poisson(shrinkage_rates(d) * n).astype(float)
                beta_vec = np.full(d, 3.0)
                alpha_exp = beta_vec.sum() - 1.0
                model = PoissonSequence(d)
                data = Dataset(responses=np.tile(counts / n, (n, 1)))
                jobs = {
                    "map-komaki": lambda: map_estimate(
                        model, data, komaki_prior(beta_vec, alpha_exp,
                                                  floor=1e-3)),
                    "pm-gibbs": lambda: komaki_gibbs(
                        counts, n, beta_vec, alpha_exp,
                        ChainConfig(length=config.chain_length,
                                    burnin=config.burnin, seed=seed)),
                }
            for label, job in jobs.items():
                t0 = time.perf_counter()
                job()
                times.setdefault(label, []).append(time.perf_counter() - t0)
        for label, ts in sorted(times.items()):
            arr = np.asarray(ts)
            rows.append([n, label, _fmt(arr.mean()), _fmt(arr.std(ddof=1))])
    with open(out / "timing.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "method", "mean_seconds", "sd_seconds"])
        w.writerows(rows)
    with open(out / "meta.json", "w") as fh:
        json.dump({"config": asdict(config), "git_hash": _git_hash(),
                   "target": target}, fh, indent=2, sort_keys=True, default=str)
    return out
