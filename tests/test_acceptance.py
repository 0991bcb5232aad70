"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s; the -v test
status line mirrors it) and asserts the stated tolerance.
"""

import csv
import json
import time

import numpy as np
from click.testing import CliRunner

import matchprior as mp
from matchprior.cli import main as cli_main
from matchprior.experiments import (ExperimentConfig, _shrinkage_inputs,
                                    derived_seed, logistic_design,
                                    logistic_scenario_data, shrinkage_rates)
from matchprior.geometry import (alpha_connection, alpha_parallel_log_grad,
                                 geometry_at, jeffreys_log_grad)
from matchprior.mcmc import ChainConfig


def _report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} criterion {num}: {desc}" + (f" ({detail})" if detail else ""),
          flush=True)
    assert ok, f"criterion {num}: {desc} {detail}"


def _slope(ns, errs):
    return np.polyfit(np.log(ns), np.log(errs), 1)[0]


def test_criterion_01_eflat_exact_matching():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    model = mp.GaussianKnownMeanPrecision()
    worst = 0.0
    for _ in range(20):
        a, b = 0.5 + 3 * rng.random(2)
        n = int(rng.integers(5, 60))
        y = rng.normal(scale=1.0 / np.sqrt(0.5 + 2 * rng.random()), size=n)
        data = mp.Dataset(y)
        pm_prior = mp.gamma_prior(a, b)
        partner = mp.eflat_map_partner(pm_prior, model)
        closed = (a + n / 2) / (b + 0.5 * np.sum(y**2))
        pm = mp.conjugate_pm("gaussianprecision-gamma", (a, b), y)
        est = mp.map_estimate(model, data, partner, tol=1e-11)
        worst = max(worst, abs(est.point[0] - closed), abs(est.point[0] - pm))
    elapsed = time.perf_counter() - t0
    _report(1, "exact e-flat matching (gaussian precision)",
            worst < 1e-10 and elapsed < 1.0,
            f"max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_mflat_exact_matching():
    rng = np.random.default_rng(102)
    model = mp.PoissonRate()
    worst = 0.0
    for _ in range(20):
        a, b = 0.5 + 3 * rng.random(2)
        n = int(rng.integers(5, 60))
        y = rng.poisson(0.5 + 3 * rng.random(), size=n).astype(float)
        data = mp.Dataset(y)
        partner = mp.mflat_map_partner(mp.gamma_prior(a, b), model)
        closed = (a + y.sum()) / (b + n)
        est = mp.map_estimate(model, data, partner, tol=1e-11)
        worst = max(worst, abs(est.point[0] - closed))
    _report(2, "exact m-flat matching (poisson rate)", worst < 1e-10,
            f"max err {worst:.2e}")


def test_criterion_03_matching_residual_zero():
    rng = np.random.default_rng(103)
    cases = []
    gm = mp.GaussianKnownMeanPrecision()
    cases.append((gm, mp.MatchingPair(mp.gamma_prior(2.0, 1.0),
                                      mp.eflat_map_partner(
                                          mp.gamma_prior(2.0, 1.0), gm),
                                      "e-flat"),
                  lambda r: np.array([0.2 + 3 * r.random()])))
    p1 = mp.PoissonRate()
    cases.append((p1, mp.MatchingPair(mp.gamma_prior(1.5, 0.8),
                                      mp.mflat_map_partner(
                                          mp.gamma_prior(1.5, 0.8), p1),
                                      "m-flat"),
                  lambda r: 0.2 + 3 * r.random(1)))
    p5 = mp.PoissonSequence(5)
    cases.append((p5, mp.MatchingPair(mp.gamma_prior(2.0, 1.0),
                                      mp.mflat_map_partner(
                                          mp.gamma_prior(2.0, 1.0), p5),
                                      "m-flat"),
                  lambda r: 0.2 + 3 * r.random(5)))
    design = np.column_stack([np.linspace(-1, 1, 20), np.ones(20)])
    lg = mp.LogisticGLM(design)
    cases.append((lg, mp.MatchingPair(mp.normal_prior(0.0, 1.0),
                                      mp.eflat_map_partner(
                                          mp.normal_prior(0.0, 1.0), lg),
                                      "e-flat"),
                  lambda r: r.normal(size=2)))
    worst = 0.0
    for model, pair, draw in cases:
        for _ in range(50):
            th = np.atleast_1d(np.asarray(draw(rng), dtype=float))
            worst = max(worst,
                        np.max(np.abs(mp.matching_residual(pair, model, th))))
    _report(3, "matching-condition residual on four models", worst < 1e-8,
            f"max residual {worst:.2e}")


def test_criterion_04_geometry_identities():
    rng = np.random.default_rng(104)
    design = np.column_stack([np.linspace(-1, 1, 15), np.ones(15)])
    models = [
        (mp.GaussianKnownMeanPrecision(),
         lambda r: np.array([0.3 + 2 * r.random()])),
        (mp.PoissonSequence(2), lambda r: 0.3 + 2 * r.random(2)),
        (mp.LogisticGLM(design), lambda r: r.normal(size=2)),
    ]
    worst_fd, worst_an = 0.0, 0.0
    h = 1e-6
    for model, draw in models:
        for _ in range(5):
            th = np.atleast_1d(np.asarray(draw(rng), dtype=float))
            rep = geometry_at(model, th)
            dg = np.zeros((model.dim,) * 3)
            for a in range(model.dim):
                up, dn = th.copy(), th.copy()
                up[a] += h
                dn[a] -= h
                dg[a] = (model.fisher(up) - model.fisher(dn)) / (2 * h)
            for alpha in (-1.0, -0.5, 0.0, 0.5, 1.0):
                rhs = (alpha_connection(rep, alpha)
                       + alpha_connection(rep, -alpha).transpose(0, 2, 1))
                worst_fd = max(worst_fd, np.max(np.abs(dg - rhs)))
            worst_an = max(worst_an,
                           np.max(np.abs(rep.T - (rep.gamma_m - rep.gamma_e))))
            worst_an = max(worst_an,
                           np.max(np.abs(alpha_parallel_log_grad(rep, 0.0)
                                         - jeffreys_log_grad(model, th))))
            if model.alpha == 1:
                worst_an = max(worst_an, np.max(np.abs(rep.gamma_e)))
    _report(4, "geometry identities (duality, skewness, parallel priors)",
            worst_fd < 1e-6 and worst_an < 1e-8,
            f"fd {worst_fd:.2e}, analytic {worst_an:.2e}")


def test_criterion_05_calibration_rate():
    t0 = time.perf_counter()
    model = mp.PoissonRate()
    ns = 2 ** np.arange(4, 11)
    raw_gaps = np.zeros(len(ns))
    cal_errs = np.zeros(len(ns))
    prior = mp.gamma_prior(1.0, 1.0)
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        for i, n in enumerate(ns):
            y = rng.poisson(2.0, size=n).astype(float)
            data = mp.Dataset(y)
            pm = mp.conjugate_pm("poisson-gamma", (1.0, 1.0), y)
            map_est = mp.map_estimate(model, data, prior, tol=1e-11)
            cal = mp.calibrate_pm_from_map(model, data, map_est.point)
            raw_gaps[i] += abs(map_est.point[0] - pm) / 10
            cal_errs[i] += abs(cal.point[0] - pm) / 10
    raw_slope = _slope(ns, raw_gaps)
    cal_slope = _slope(ns, cal_errs)
    elapsed = time.perf_counter() - t0
    _report(5, "one-step calibration convergence rate",
            cal_slope <= -1.5 and -1.2 <= raw_slope <= -0.8 and elapsed < 10,
            f"raw slope {raw_slope:.2f}, calibrated slope {cal_slope:.2f}, "
            f"{elapsed:.1f}s")


def test_criterion_06_expansion_slopes():
    model = mp.PoissonRate()
    a, b = 2.0, 1.5
    prior = mp.gamma_prior(a, b)
    ns = 2 ** np.arange(4, 11)
    pm_rem = np.zeros(len(ns))
    map_rem = np.zeros(len(ns))
    for i, n in enumerate(ns):
        y = np.full(n, 2.0)  # fixed average keeps the remainder deterministic
        data = mp.Dataset(y)
        mle_pt = mp.mle(model, data, tol=1e-11).point
        rep = geometry_at(model, mle_pt)
        jeff = jeffreys_log_grad(model, mle_pt)
        pg = prior.log_grad(mle_pt)
        # posterior-mean expansion: MLE + g^ab/n (d_b log(pi/pi_J) + T_b/2)
        #                           - g^bc/(2n) Gamma^m_bc^a
        gm_contr = np.einsum("bc,bce,ea->a", rep.g_inv, rep.gamma_m, rep.g_inv)
        pm_exp = mle_pt + rep.g_inv @ (pg - jeff + 0.5 * rep.T_contracted) / n \
            - 0.5 * gm_contr / n
        pm_exact = mp.conjugate_pm("poisson-gamma", (a, b), y)
        pm_rem[i] = abs(pm_exp[0] - pm_exact)
        # MAP expansion: MLE + g^ab/n d_b log pi
        map_exp = mle_pt + rep.g_inv @ pg / n
        map_exact = (a - 1 + y.sum()) / (b + n)
        map_rem[i] = abs(map_exp[0] - map_exact)
    s_pm, s_map = _slope(ns, pm_rem), _slope(ns, map_rem)
    _report(6, "posterior-mean and MAP expansion remainders",
            s_pm <= -1.3 and s_map <= -1.3,
            f"pm slope {s_pm:.2f}, map slope {s_map:.2f}")


def test_criterion_07_logistic_gap_ordering(tmp_path):
    # both MAPs are judged against the exact posterior mean of each cell,
    # rebuilt from the cell's seed, not against the study's Gibbs chain: on
    # one seed the chain's error hides the ordering at n = 512
    t0 = time.perf_counter()
    cfg = ExperimentConfig(experiment="logistic-s1", out=str(tmp_path),
                           n_grid=(16, 32, 64, 128, 256, 512), reps=20,
                           seed=707, chain_length=2000, burnin=2000)
    out = mp.run_logistic_synthetic(1, cfg)
    with open(out / "records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    maps = {(int(r["n"]), int(r["rep"]), r["estimator"]):
            np.array(r["estimate"].split(";"), dtype=float)
            for r in rows if r["estimator"] in ("map-ridge", "map-matching")}
    prior = mp.normal_prior(0.0, 1.0)
    means = {}
    for n in (64, 128, 256, 512):
        design = logistic_design(n)
        model = mp.LogisticGLM(design)
        gaps = {"map-ridge": [], "map-matching": []}
        for rep in range(cfg.reps):
            y = logistic_scenario_data(
                1, n, np.random.default_rng(derived_seed(cfg.seed, 1, n, rep)))
            pm, _ = mp.quad_posterior_expectation(model, mp.Dataset(y, design),
                                                  prior)
            for label, g in gaps.items():
                g.append(np.linalg.norm(maps[(n, rep, label)] - pm))
        means[n] = (np.mean(gaps["map-matching"]), np.mean(gaps["map-ridge"]))
    ok = all(m < r for m, r in means.values())
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"n={n}: {m:.3f}<{r:.3f}" for n, (m, r) in means.items())
    _report(7, "logistic synthetic gap ordering against the oracle",
            ok and elapsed < 300, detail + f", {elapsed:.0f}s")


def test_criterion_08_shrinkage_gap_ordering(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(experiment="poisson-shrinkage", out=str(tmp_path),
                           n_grid=(1, 10, 100), reps=1, seed=808,
                           chain_length=5000, burnin=1000, dim=100)
    out = mp.run_poisson_shrinkage(cfg)
    with open(out / "records.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by = {(r["n"], r["estimator"]): r for r in rows}
    gaps = {n: (float(by[(n, "pm-matching")]["gap_l2"]),
                float(by[(n, "pm-komaki")]["gap_l2"]))
            for n in ("1", "10", "100")}
    ok = all(m < k for m, k in gaps.values())
    # exact matching: on every cell proper under beta - 1 whose floor is
    # inactive, the MAP under beta is the closed-form mean under beta - 1
    worst, gated = 0.0, 0
    for n in cfg.n_grid:
        counts = np.random.default_rng(derived_seed(cfg.seed, n, 0, 7)).poisson(
            shrinkage_rates(cfg.dim) * n).astype(float)
        beta, alpha, model, data, prior = _shrinkage_inputs(counts, n)
        try:
            pm = mp.conjugate_pm("poisson-komaki", (beta - 1.0, alpha), data)
        except mp.InvalidHyperparameter:
            continue
        if np.all(pm > prior.opt_lower):
            est = mp.map_estimate(model, data, prior, tol=1e-11)
            worst, gated = max(worst, np.max(np.abs(est.point - pm))), gated + 1
    ok = ok and gated > 0 and worst < 1e-10
    elapsed = time.perf_counter() - t0
    _report(8, "poisson shrinkage gap ordering and exact matching",
            ok and elapsed < 180,
            ", ".join(f"n={n}: {m:.3f}<{k:.3f}" for n, (m, k) in gaps.items())
            + f", {gated} cells exact to {worst:.1e}, {elapsed:.0f}s")


def test_criterion_09_cauchy_calibration():
    t0 = time.perf_counter()
    d, n = 10, 10
    model = mp.MultivariateCauchyLocation(d)
    prior = mp.normal_prior(0.0, 100.0)
    # fixed dataset without extreme outliers; heavy-tailed draws can push the
    # posterior beyond what a second-order expansion resolves at n=10
    rng = np.random.default_rng(901)
    data = model.sample(np.zeros(d), n, rng)
    map_res = mp.map_estimate(model, data, prior)
    cal = mp.calibrate_pm_from_map(model, data, map_res.point,
                                   information="observed")
    chain = mp.rwmh(model, data, prior,
                    ChainConfig(length=50_000, burnin=5000, seed=910),
                    proposal="cauchy", init=map_res.point)
    gap = np.abs(cal.point - chain.posterior_mean)
    ok = bool(np.all(gap < 3 * chain.mc_se))
    elapsed = time.perf_counter() - t0
    _report(9, "cauchy one-step calibration vs long chain",
            ok and elapsed < 120,
            f"max gap {gap.max():.4f}, max 3se {(3 * chain.mc_se).max():.4f}, "
            f"{elapsed:.0f}s")


def test_criterion_10_sampler_oracles():
    # logistic d=2 (one covariate + intercept): pg-gibbs vs rwmh vs quadrature
    n = 24
    design = np.column_stack([np.arange(1, n + 1) / n, np.ones(n)])
    model = mp.LogisticGLM(design)
    y = (np.random.default_rng(1001).random(n)
         < 1 / (1 + np.exp(-design @ [1.0, 0.0]))).astype(float)
    data = mp.Dataset(y, design)
    prior = mp.normal_prior(0.0, 1.0)
    quad_ref, _ = mp.quad_posterior_expectation(
        model, data, prior, spec=mp.QuadratureSpec(abs_tol=1e-9))
    pg = mp.polya_gamma_gibbs(design, y, prior,
                              ChainConfig(length=30_000, burnin=2000,
                                          seed=1002))
    rw = mp.rwmh(model, data, prior,
                 ChainConfig(length=40_000, burnin=2000, seed=1003))
    ok = bool(np.all(np.abs(pg.posterior_mean - quad_ref) < 3 * pg.mc_se)
              and np.all(np.abs(rw.posterior_mean - quad_ref) < 3 * rw.mc_se)
              and np.all(np.abs(pg.posterior_mean - rw.posterior_mean)
                         < 3 * np.sqrt(pg.mc_se**2 + rw.mc_se**2)))

    # komaki gibbs vs the closed-form posterior mean at d=1 and d=2
    beta1, alpha1 = 3.0, 2.0
    ch1 = mp.komaki_gibbs(np.array([4.0]), 2, np.array([beta1]), alpha1,
                          ChainConfig(length=50_000, burnin=1000, seed=1004))
    q1 = mp.conjugate_pm("poisson-komaki", (beta1, alpha1),
                         np.tile([2.0], (2, 1)))
    ok = ok and bool(np.all(np.abs(ch1.posterior_mean - q1) < 3 * ch1.mc_se))

    bv = np.array([3.0, 3.0])
    al = bv.sum() - 1
    counts = np.array([2.0, 5.0])
    ch2 = mp.komaki_gibbs(counts, 3, bv, al,
                          ChainConfig(length=50_000, burnin=1000, seed=1005))
    q2 = mp.conjugate_pm("poisson-komaki", (bv, al),
                         np.tile(counts / 3, (3, 1)))
    ok = ok and bool(np.all(np.abs(ch2.posterior_mean - q2) < 3 * ch2.mc_se))
    _report(10, "samplers agree with quadrature and closed-form oracles", ok)


def test_criterion_11_cli_determinism(tmp_path):
    cfg = {"experiment": "logistic-s1", "n_grid": [16, 32], "reps": 2,
           "seed": 1111, "chain_length": 300, "burnin": 300}
    runner = CliRunner()
    contents = []
    for tag in ("a", "b"):
        cfile = tmp_path / f"cfg_{tag}.json"
        cfg["out"] = str(tmp_path / tag)
        cfile.write_text(json.dumps(cfg))
        res = runner.invoke(cli_main, ["run", str(cfile)])
        assert res.exit_code == 0, res.output
        raw = (tmp_path / tag / "records.csv").read_bytes().decode()
        # strip the trailing timing column; everything else must be identical
        stripped = "\n".join(line.rsplit(",", 1)[0]
                             for line in raw.splitlines())
        contents.append(stripped.encode())
    _report(11, "CLI runs are byte-deterministic given the seed",
            contents[0] == contents[1])
