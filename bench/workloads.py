"""The three closed-loop workloads of the matchprior benchmark.

Each workload turns a seed into cycles of operations.  ``cycle(c)`` generates
the inputs of cycle ``c`` (untimed) and returns a list of ``(kind, op)``
pairs; calling ``op()`` runs the library and returns an ``Outcome`` whose
``ok`` says whether the output passed its check.  The library only ever sees
the generated inputs, never the seed.

Why these three:

* ``gap-study`` runs ``run_logistic_synthetic`` studies, the path behind
  ``matchprior run``.  Polya-Gamma Gibbs is ~99% of a cell, so this carries
  ``mcmc`` (PG path) and the ``experiments`` thread pool.
* ``map-calibrate`` runs MAP estimates under a posterior-mean prior and its
  matching partner, then the one-step calibration: ``estimators``,
  ``geometry``, ``priors`` and large-n ``models`` calls, with no sampler and
  one d=1 quadrature per cycle.
* ``reference-pm`` computes reference posterior means by quadrature and by
  long chains: ``oracle``, plus ``mcmc`` and ``models`` at small n, where
  per-call overhead dominates.
"""

from __future__ import annotations

import csv
import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import matchprior as mp
from matchprior.experiments import ExperimentConfig, logistic_design
from matchprior.mcmc import ChainConfig

# A chain passes when every coordinate of its mean lies within CHAIN_Z batch-
# means standard errors of its reference.  A run makes ~120 such tests (32
# chains, 1 to 10 coordinates each) and a commit is benchmarked ~10^2 times.
# With 70-140 batches the error of se itself makes the tail Student-t, and
# P(|t_69| > 7) ~ 1e-9, so a chance failure anywhere stays below ~1e-3 per
# commit even if se runs 10% low, as it can for the slow Cauchy chain.
CHAIN_Z = 7.0
EXACT_TOL = 1e-10   # partner MAP against conjugate_pm (criteria 1 and 2)
QUAD1_TOL = 1e-8    # d=1 quadrature against the closed form


@dataclass
class Outcome:
    ok: bool
    detail: str
    values: tuple = ()          # floats folded into the determinism digest
    ess: float | None = None    # chain ops: minimum-coordinate ESS
    mcse: list | None = None    # largest mc_se of each reference chain


def _rng(seed, *parts):
    return np.random.default_rng(np.random.SeedSequence([seed, *parts]))


def _child_seed(seed, *parts):
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def digest(values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(repr(float(v)).encode() if not isinstance(v, str)
                 else v.encode())
    return h.hexdigest()[:16]


def _fail(detail):
    return Outcome(False, detail)


# ---------------------------------------------------------------------------
# gap-study


class GapStudy:
    name = "gap-study"

    def __init__(self, seed, smoke, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        # criterion-7 shape (n from 16 to 512, burn-in equal to the chain
        # length) with one rep per n, so ~25 studies fit in one run.  Chains
        # are 1000 + 1000 sweeps: batch-means ESS then comes from 31 batch
        # means, not 10 as at 100 draws (it stays near its cap, the draw
        # count, because these d=2 chains are close to independent); and
        # per-study costs (pool start-up, MAP pair, CSV and meta writes)
        # weigh a few percent of a study, as in a 2000 + 2000 criterion-7 run.
        self.n_grid = (16, 512)
        self.reps = 1
        self.chain = 20 if smoke else 1000
        self.cells_per_op = len(self.n_grid) * self.reps

    def cycle(self, c):
        out = self.workdir / f"study-{c}"
        config = ExperimentConfig(
            experiment="logistic-s1", out=str(out), n_grid=self.n_grid,
            reps=self.reps, seed=_child_seed(self.seed, c),
            chain_length=self.chain, burnin=self.chain)
        return [("study", lambda: self._study(config, out))]

    @staticmethod
    def _study(config, out):
        mp.run_logistic_synthetic(1, config)
        with open(out / "records.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        shutil.rmtree(out)
        bad = [r for r in rows if r["status"] != "ok"]
        # the seconds column is timing, the only field allowed to differ
        # between two runs of one seed
        values = tuple(f"{r[k]}" for r in rows for k in r if k != "seconds")
        mcse = [max(float(v) for v in r["mc_se"].split(";"))
                for r in rows if r["estimator"] == "pm-gibbs"
                and r["status"] == "ok"]
        if bad:
            return Outcome(False, f"{len(bad)} rows not ok: "
                           f"{sorted({r['status'] for r in bad})}", values,
                           mcse=mcse)
        return Outcome(True, "", values, mcse=mcse)


# ---------------------------------------------------------------------------
# map-calibrate


def _check_maps(*results):
    return all(r.diagnostics.get("converged") for r in results)


def _geometry_ok(model, theta):
    rep = mp.geometry_at(model, theta)
    eye = rep.g @ rep.g_inv
    return bool(np.all(np.isfinite(rep.g))
                and np.allclose(eye, np.eye(model.dim), atol=1e-8)
                and np.all(np.linalg.eigvalsh(rep.g) > 0))


class MapCalibrate:
    name = "map-calibrate"

    def __init__(self, seed, smoke, workdir: Path):
        self.seed = seed
        big = 1000 if smoke else 10_000
        self.n_conj = (16, 512, big)
        self.n_cauchy = (10, 512 if not smoke else 64)
        self.n_shrink = (1, 10, 100)
        self.tasks = ([("poisson", n) for n in self.n_conj]
                      + [("gaussian", n) for n in self.n_conj]
                      + [("logistic", n) for n in self.n_conj]
                      + [("cauchy", n) for n in self.n_cauchy]
                      + [("shrinkage", n) for n in self.n_shrink]
                      + [("quadrature", 16)])

    def cycle(self, c):
        ops = []
        for i, (kind, n) in enumerate(self.tasks):
            rng = _rng(self.seed, c, i)
            op = getattr(self, f"_{kind}")(n, rng)
            ops.append((f"{kind}-n{n}", op))
        return ops

    @staticmethod
    def _poisson(n, rng):
        y = rng.poisson(3.0, size=n).astype(float)
        return MapCalibrate._conjugate(mp.PoissonRate(), "mflat_map_partner",
                                       "poisson-gamma", y, True)

    @staticmethod
    def _gaussian(n, rng):
        y = rng.normal(scale=1.0 / np.sqrt(2.0), size=n)
        return MapCalibrate._conjugate(mp.GaussianKnownMeanPrecision(),
                                       "eflat_map_partner",
                                       "gaussianprecision-gamma", y, False)

    @staticmethod
    def _conjugate(model, partner_name, family, y, check_calibration):
        """Gamma(2, 1) PM prior and its exact matching partner."""
        hyper = (2.0, 1.0)

        def op():
            data = mp.Dataset(y)
            pm_prior = mp.gamma_prior(*hyper)
            partner = getattr(mp, partner_name)(pm_prior, model)
            m_pm = mp.map_estimate(model, data, pm_prior, tol=1e-11)
            m_pa = mp.map_estimate(model, data, partner, tol=1e-11)
            cal = mp.calibrate_pm_from_map(model, data, m_pm.point)
            exact = mp.conjugate_pm(family, hyper, y)
            vals = (*m_pm.point, *m_pa.point, *cal.point)
            if not _check_maps(m_pm, m_pa):
                return _fail("MAP not converged")
            if abs(m_pa.point[0] - exact) > EXACT_TOL:
                return _fail(f"{partner_name} MAP off by "
                             f"{abs(m_pa.point[0] - exact):.3g}")
            if check_calibration and (abs(cal.point[0] - exact)
                                      >= abs(m_pm.point[0] - exact)):
                return _fail("calibration did not move toward the PM")
            if not _geometry_ok(model, m_pm.point):
                return _fail("bad geometry at the MAP")
            return Outcome(True, "", vals)
        return op

    @staticmethod
    def _logistic(n, rng):
        design = logistic_design(n)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-design[:, 0]))).astype(float)

        def op():
            model = mp.LogisticGLM(design)
            data = mp.Dataset(y, design)
            ridge = mp.normal_prior(0.0, 1.0)
            partner = mp.eflat_map_partner(ridge, model)
            m_pm = mp.map_estimate(model, data, ridge)
            m_pa = mp.map_estimate(model, data, partner)
            cal = mp.calibrate_pm_from_map(model, data, m_pm.point)
            vals = (*m_pm.point, *m_pa.point, *cal.point)
            if not _check_maps(m_pm, m_pa):
                return _fail("MAP not converged")
            if not np.all(np.isfinite(cal.point)):
                return _fail("calibrated point not finite")
            if not _geometry_ok(model, m_pm.point):
                return _fail("bad geometry at the MAP")
            return Outcome(True, "", vals)
        return op

    @staticmethod
    def _cauchy(n, rng):
        model = mp.MultivariateCauchyLocation(10)
        data = model.sample(np.zeros(10), n, rng)

        def op():
            prior = mp.normal_prior(0.0, 100.0)
            m = mp.map_estimate(model, data, prior)
            cal = mp.calibrate_pm_from_map(model, data, m.point,
                                           information="observed")
            vals = (*m.point, *cal.point)
            if not _check_maps(m):
                return _fail("MAP not converged")
            if not np.all(np.isfinite(cal.point)):
                return _fail("calibrated point not finite")
            return Outcome(True, "", vals)
        return op

    @staticmethod
    def _quadrature(n, rng):
        # the one oracle call of the cycle: the exact posterior mean that the
        # Poisson tasks' MAP and calibration approximate
        y = rng.poisson(3.0, size=n).astype(float)
        return ReferencePM._quad_conj(mp.PoissonRate(), y, "poisson-gamma")

    @staticmethod
    def _shrinkage(n, rng):
        d = 100
        lam = np.full(d, 2.0)
        lam[::2] = 0.001
        counts = rng.poisson(lam * n).astype(float)
        beta = np.full(d, 3.0)

        def op():
            model = mp.PoissonSequence(d)
            data = mp.Dataset(np.tile(counts / n, (n, 1)))
            prior = mp.komaki_prior(beta, beta.sum() - 1.0, floor=1e-3)
            m = mp.map_estimate(model, data, prior)
            if not _check_maps(m):
                return _fail("MAP not converged")
            if np.any(m.point < 1e-3):
                return _fail("MAP below the floor")
            return Outcome(True, "", tuple(m.point))
        return op


# ---------------------------------------------------------------------------
# reference-pm


def _chain_check(chain, ref, label):
    gap = np.abs(chain.posterior_mean - np.asarray(ref))
    z = float(np.max(gap / chain.mc_se))
    vals = (*chain.posterior_mean, *chain.mc_se)
    out = Outcome(z < CHAIN_Z, "" if z < CHAIN_Z else
                  f"{label}: chain {z:.2f} se from its reference", vals,
                  ess=float(np.min(chain.ess)), mcse=[float(chain.mc_se.max())])
    return out


class ReferencePM:
    name = "reference-pm"

    def __init__(self, seed, smoke, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.length = 1000 if smoke else 5000
        self.burnin = 100 if smoke else 500
        # four chains of each kind per cycle keep op_p50_ms inside the komaki
        # chains and op_tail_ms inside the Cauchy chains for 2 to 5 cycles a
        # run, so a faster quadrature does not change which op they measure
        self.chain_reps = 4
        self.n_logit = 24
        # criterion-10 tolerances; smoke mode loosens them to keep d=2 cheap
        self.tol_logit = 1e-4 if smoke else 1e-9
        self.tol_komaki = 1e-4 if smoke else 1e-8

    def cycle(self, c):
        rng = _rng(self.seed, c)
        refs = {}
        ops = []
        # d=1 quadrature on the conjugate families
        y_pois = rng.poisson(3.0, size=24).astype(float)
        y_gaus = rng.normal(scale=1.0 / np.sqrt(2.0), size=24)
        ops.append(("quad-d1-poisson", self._quad_conj(
            mp.PoissonRate(), y_pois, "poisson-gamma")))
        ops.append(("quad-d1-gaussian", self._quad_conj(
            mp.GaussianKnownMeanPrecision(), y_gaus,
            "gaussianprecision-gamma")))
        # the shrinkage posteriors of criterion 10, fixed because the Gibbs
        # chain's mixing, and so ess_per_s, depends on the counts.  At d=1
        # lam^(S + beta - alpha - 1) e^(-n lam) is Gamma(S + beta - alpha, n),
        # so that quadrature has a closed form too.
        k1 = dict(key="komaki-d1", counts=np.array([4.0]), n=2,
                  beta=np.array([3.0]), alpha=2.0, tol=1e-10)
        k2 = dict(key="komaki-d2", counts=np.array([2.0, 5.0]), n=3,
                  beta=np.array([3.0, 3.0]), alpha=5.0, tol=self.tol_komaki)
        ops.append(("quad-d1-komaki", self._quad_komaki(k1, refs)))
        # d=2 quadrature at the criterion-10 tolerance, on criterion 10's own
        # instances: its cost swings by 2x with the data, which would swamp
        # run-to-run comparison at two integrals per cycle
        design = logistic_design(self.n_logit)
        y_logit = (np.random.default_rng(1001).random(self.n_logit)
                   < 1.0 / (1.0 + np.exp(-design[:, 0]))).astype(float)
        ops.append(("quad-d2-logistic",
                    self._quad_logistic(design, y_logit, refs)))
        ops.append(("quad-d2-komaki", self._quad_komaki(k2, refs)))
        # Cauchy d=10, n=10: five points and their mirror images, so under the
        # symmetric normal(0,100) prior the exact posterior mean is 0.  The
        # points are standard normal: Cauchy draws spread so far in d=10 that
        # the posterior turns multimodal and batch-means se, which judges the
        # chain, comes out several times too small.
        half = rng.normal(size=(5, 10))
        y_cauchy = np.vstack([half, -half])
        for r in range(self.chain_reps):
            s = [_child_seed(self.seed, c, r, j) for j in range(4)]
            ops.append(("rwmh-logistic",
                        self._rwmh_logistic(design, y_logit, s[0], refs)))
            ops.append(("rwmh-cauchy", self._rwmh_cauchy(y_cauchy, s[1])))
            ops.append(("komaki-d1", self._komaki(k1, s[2], refs)))
            ops.append(("komaki-d2", self._komaki(k2, s[3], refs)))
        return ops

    def _cfg(self, seed, scale=1, step=None):
        return ChainConfig(length=scale * self.length, burnin=self.burnin,
                           seed=seed, step_scale=step)

    @staticmethod
    def _quad_conj(model, y, family):
        def op():
            prior = mp.gamma_prior(2.0, 1.0)
            val, err = mp.quad_posterior_expectation(model, mp.Dataset(y),
                                                     prior)
            exact = mp.conjugate_pm(family, (2.0, 1.0), y)
            gap = abs(val[0] - exact)
            return Outcome(gap <= QUAD1_TOL, "" if gap <= QUAD1_TOL else
                           f"{family}: quadrature off by {gap:.3g}",
                           (*val, *err))
        return op

    @staticmethod
    def _quad_komaki(k, refs):
        def op():
            counts, n, beta = k["counts"], k["n"], k["beta"]
            val, err = mp.quad_posterior_expectation(
                mp.PoissonSequence(counts.size),
                mp.Dataset(np.tile(counts / n, (n, 1))),
                mp.komaki_prior(beta, k["alpha"]),
                spec=mp.QuadratureSpec(abs_tol=k["tol"]))
            refs[k["key"]] = val
            if counts.size > 1:
                return ReferencePM._quad_outcome(val, err)
            gap = abs(val[0] - (counts[0] + beta[0] - k["alpha"]) / n)
            return Outcome(gap <= QUAD1_TOL, "" if gap <= QUAD1_TOL else
                           f"komaki d=1: quadrature off by {gap:.3g}",
                           (*val, *err))
        return op

    def _quad_logistic(self, design, y, refs):
        def op():
            val, err = mp.quad_posterior_expectation(
                mp.LogisticGLM(design), mp.Dataset(y, design),
                mp.normal_prior(0.0, 1.0),
                spec=mp.QuadratureSpec(abs_tol=self.tol_logit))
            refs["logistic"] = val
            return self._quad_outcome(val, err)
        return op

    @staticmethod
    def _quad_outcome(val, err):
        # the error bound must be well below the smallest chain standard
        # error it judges (~0.01 for a 5000-draw komaki chain)
        ok = bool(np.all(np.isfinite(val)) and np.all(err < 1e-3))
        return Outcome(ok, "" if ok else f"quadrature error bound {err}",
                       (*val, *err))

    def _rwmh_logistic(self, design, y, seed, refs):
        def op():
            if "logistic" not in refs:
                return _fail("no quadrature reference")
            chain = mp.rwmh(mp.LogisticGLM(design), mp.Dataset(y, design),
                            mp.normal_prior(0.0, 1.0), self._cfg(seed))
            return _chain_check(chain, refs["logistic"], "rwmh logistic")
        return op

    def _rwmh_cauchy(self, y, seed):
        def op():
            model = mp.MultivariateCauchyLocation(10)
            # the d=10 posterior mixes slowly: a 4x longer chain and a step
            # giving ~25% acceptance keep batch-means se honest
            chain = mp.rwmh(model, mp.Dataset(y), mp.normal_prior(0.0, 100.0),
                            self._cfg(seed, scale=4, step=0.2),
                            proposal="cauchy")
            return _chain_check(chain, np.zeros(10), "rwmh cauchy")
        return op

    def _komaki(self, k, seed, refs):
        def op():
            if k["key"] not in refs:
                return _fail("no quadrature reference")
            chain = mp.komaki_gibbs(k["counts"], k["n"], k["beta"], k["alpha"],
                                    self._cfg(seed))
            return _chain_check(chain, refs[k["key"]], k["key"])
        return op


WORKLOADS = {w.name: w for w in (GapStudy, MapCalibrate, ReferencePM)}
