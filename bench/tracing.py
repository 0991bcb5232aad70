"""In-memory span tracing of the library's public functions.

Nothing under ``src/`` knows about this: ``traced(tracer)`` rebinds public
names (module attributes, model methods and the callables of the priors the
benchmark's calls build) to wrappers that record one span per call, and puts
the originals back on exit.  A span is ``(id, parent, op, name, start, end,
size)``; ``size`` is the n of a PG draw or MAP, or the dimension of a
quadrature, and -1 elsewhere.

Spans are appended to one flat ``array('d')`` by a single ``extend`` call,
and ids come from ``itertools.count``; both are single C calls under the
interpreter lock, so spans from the experiment thread pool never interleave.
A thread with no open span of its own (a pool worker) parents its spans to
the innermost open span of the thread running the op, the benchmark being a
closed loop with one op in progress at a time.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import matchprior as mp
from matchprior import experiments, mcmc, models, oracle, priors

COLS = 7  # id, parent, op, name, start, end, size


class Tracer:
    def __init__(self):
        self.rows = array("d")
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.notes: dict[int, dict] = {}   # span id -> facts read off results
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.op_span = 0       # id of the op in progress, 0 between ops
        self._caller: list[int] = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name, fn, size=None, note=None):
        """A wrapper of fn that records a span per call.

        size(args, kwargs) gives the span's size column; note(args, kwargs,
        result) returns a dict of facts kept for the span.
        """
        nid = self.name_id(name)
        rows, ids, stack_of = self.rows, self._ids, self._stack

        def wrapper(*args, **kwargs):
            st = stack_of()
            sid = next(ids)
            if st:
                parent = st[-1]
            else:
                top = self._caller[-1:]   # a slice: safe if it just popped
                parent = top[0] if top else self.op_span
            st.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                st.pop()
                rows.extend((sid, parent, self.op_span, nid, start, end,
                             size(args, kwargs) if size else -1))
            if note is not None:
                self.notes[sid] = note(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def op(self, kind):
        """Root span of one benchmark op; yields the op's id, its span id."""
        nid = self.name_id("bench.op")
        sid = self.op_span = next(self._ids)
        self._caller = self._stack()
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            self.rows.extend((sid, 0, sid, nid, start, end, -1))
            self.notes[sid] = {"kind": kind}
            self.op_span = 0

    def table(self):
        return np.frombuffer(self.rows, dtype=float).reshape(-1, COLS)

    def save(self, path):
        np.savez(path, spans=self.table(), names=np.array(self.names))


# ---------------------------------------------------------------------------
# what gets wrapped


def _n_of_data(args, kwargs):
    data = args[1] if len(args) > 1 else kwargs["data"]
    return data.n


def _map_note(args, kwargs, res):
    model = args[0]
    prior = args[2] if len(args) > 2 else kwargs["prior"]
    return {"model": type(model).__name__, "prior": prior.label,
            "iterations": res.diagnostics.get("iterations"),
            "ridge_used": bool(res.diagnostics.get("ridge_used")),
            "converged": bool(res.diagnostics.get("converged"))}


def _chain_steps(config):
    return config.burnin + config.length


def _rwmh_note(args, kwargs, res):
    config = args[3] if len(args) > 3 else kwargs["config"]
    return {"steps": _chain_steps(config), "acceptance": res.acceptance_rate}


def _gibbs_note(index):
    def note(args, kwargs, res):
        config = args[index] if len(args) > index else kwargs["config"]
        return {"steps": _chain_steps(config)}
    return note


def _prior_wrapper(tracer, prior):
    fields = {"log_density": tracer.wrap("priors.log_density",
                                         prior.log_density),
              "log_grad": tracer.wrap("priors.log_grad", prior.log_grad)}
    if prior.log_hess is not None:
        fields["log_hess"] = tracer.wrap("priors.log_hess", prior.log_hess)
    return dataclasses.replace(prior, **fields)


def _prior_factory(tracer, name, factory):
    """Wrap a prior constructor so the prior it returns records its calls."""
    def make(*args, **kwargs):
        return _prior_wrapper(tracer, factory(*args, **kwargs))
    return tracer.wrap(name, make) if name else make


_MODEL_CLASSES = (models.GaussianKnownMeanPrecision, models.PoissonSequence,
                  models.LogisticGLM, models.MultivariateCauchyLocation)
_MODEL_METHODS = ("avg_loglik", "avg_grad", "avg_hess", "avg_third", "fisher")


def _targets(tracer):
    """(owner, attribute, replacement) for every public name traced."""
    w = tracer.wrap
    map_span = dict(size=_n_of_data, note=_map_note)
    out = [
        # calls made inside the experiments module
        (experiments, "polya_gamma_gibbs",
         w("mcmc.pg_gibbs", experiments.polya_gamma_gibbs,
           size=lambda a, k: np.shape(a[0])[0], note=_gibbs_note(3))),
        (experiments, "map_estimate",
         w("estimators.map", experiments.map_estimate, **map_span)),
        (experiments, "eflat_map_partner",
         _prior_factory(tracer, "priors.partner",
                        experiments.eflat_map_partner)),
        (experiments, "normal_prior",
         _prior_factory(tracer, None, experiments.normal_prior)),
        (mcmc, "polya_gamma_1",
         w("mcmc.pg_draw", mcmc.polya_gamma_1,
           size=lambda a, k: np.size(a[1]))),
        (priors, "jeffreys_log_grad",
         w("geometry.jeffreys_grad", priors.jeffreys_log_grad)),
        (priors, "jeffreys_log_density",
         w("geometry.jeffreys_density", priors.jeffreys_log_density)),
        (oracle, "quad", w("oracle.quadpack", oracle.quad)),
        (oracle, "mle", w("estimators.mle", oracle.mle)),
        # the benchmark's own calls, made through the package namespace
        (mp, "run_logistic_synthetic",
         w("experiments.study", mp.run_logistic_synthetic)),
        (mp, "map_estimate", w("estimators.map", mp.map_estimate, **map_span)),
        (mp, "calibrate_pm_from_map",
         w("estimators.calibrate", mp.calibrate_pm_from_map)),
        (mp, "geometry_at", w("geometry.geometry_at", mp.geometry_at)),
        (mp, "quad_posterior_expectation",
         w("oracle.quad", mp.quad_posterior_expectation,
           size=lambda a, k: a[0].dim)),
        (mp, "rwmh", w("mcmc.rwmh", mp.rwmh, note=_rwmh_note)),
        (mp, "komaki_gibbs",
         w("mcmc.komaki", mp.komaki_gibbs, note=_gibbs_note(4))),
    ]
    for name in ("eflat_map_partner", "mflat_map_partner"):
        out.append((mp, name, _prior_factory(tracer, "priors.partner",
                                             getattr(mp, name))))
    for name in ("normal_prior", "gamma_prior", "komaki_prior"):
        out.append((mp, name, _prior_factory(tracer, None, getattr(mp, name))))
    for cls in _MODEL_CLASSES:
        for meth in _MODEL_METHODS:
            if meth in vars(cls):
                out.append((cls, meth, w(f"models.{meth}", vars(cls)[meth])))
    return out


@contextmanager
def traced(tracer):
    """Rebind the traced names for the duration of the block."""
    saved = []
    try:
        for owner, attr, repl in _targets(tracer):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, repl)
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


@contextmanager
def observe_chains(sink):
    """Untraced runs: pass each PG chain's ESS to sink, with no timing."""
    orig = experiments.polya_gamma_gibbs

    def observed(*args, **kwargs):
        chain = orig(*args, **kwargs)
        sink.append(float(np.min(chain.ess)))
        return chain

    experiments.polya_gamma_gibbs = observed
    try:
        yield
    finally:
        experiments.polya_gamma_gibbs = orig


# ---------------------------------------------------------------------------
# per-layer metrics


def _layer(name):
    return name.split(".", 1)[0]


def _p50(x):
    return float(np.median(x)) if len(x) else 0.0


def _ratio(a, b):
    return float(a / b) if b else 0.0


class SpanSet:
    """Spans of one phase, with self times and outermost-per-layer flags."""

    def __init__(self, tracer, op_ids):
        t = tracer.table()
        t = t[np.isin(t[:, 2], np.asarray(sorted(op_ids), dtype=float))]
        self.names = tracer.names
        self.notes = tracer.notes
        self.sid = t[:, 0].astype(np.int64)
        self.parent = t[:, 1].astype(np.int64)
        self.name = t[:, 3].astype(np.int64)
        self.start, self.end, self.size = t[:, 4], t[:, 5], t[:, 6]
        self.dur = self.end - self.start
        self.n_ops = len(op_ids)
        # row of each span's parent, -1 for an op (ids start at 1, a parent
        # belongs to the same op as its children)
        index = np.full(int(self.sid.max(initial=0)) + 1, -1, dtype=np.int64)
        index[self.sid] = np.arange(self.sid.size)
        self.pidx = index[self.parent]
        layers = np.array([_layer(n) for n in self.names])
        self.layer = layers[self.name] if self.name.size else layers[:0]
        parent_layer = np.where(self.pidx >= 0,
                                self.layer[np.maximum(self.pidx, 0)], "")
        self.outermost = self.layer != parent_layer
        self.self_time = self.dur - self._covered()

    def _covered(self):
        """Per span: the part of its interval that its children cover.

        Children of one parent can overlap (pool workers), so each child adds
        only what lies past the furthest end seen so far among its siblings.
        """
        kids = np.where(self.pidx >= 0)[0]
        out = np.zeros(self.sid.size)
        if not kids.size:
            return out
        kids = kids[np.lexsort((self.start[kids], self.pidx[kids]))]
        p, s, e = self.pidx[kids], self.start[kids], self.end[kids]
        first = np.r_[True, p[1:] != p[:-1]]
        group = np.cumsum(first) - 1
        base = self.start.min()
        width = self.end.max() - base + 1.0
        shifted = (e - base) + group * width
        prev = np.r_[-np.inf, np.maximum.accumulate(shifted)[:-1]]
        prev = prev - group * width + base
        prev[first] = -np.inf
        cover = np.clip(e - np.maximum(s, prev), 0.0, None)
        np.add.at(out, p, cover)
        return out

    def mask(self, name):
        if name not in self.names:
            return np.zeros(self.sid.size, dtype=bool)
        return self.name == self.names.index(name)

    def note(self, m, key):
        return [self.notes.get(int(s), {}).get(key) for s in self.sid[m]]

    def per_op(self, x):
        return _ratio(float(np.sum(x)), self.n_ops)


def layer_metrics(spans: SpanSet, single: SpanSet | None, workers: int):
    """Every per-layer metric, from the spans of one traced phase.

    calls and busy_s are per op; self_s is per call of the named span; p50 is
    over calls.  A layer the workload does not reach reads 0.
    """
    m = {}
    s = spans

    study = s.mask("experiments.study")
    top = s.pidx >= 0
    top[top] = study[s.pidx[top]]          # direct children of a study
    work = top & np.isin(s.layer, ["mcmc", "estimators"])
    busy = np.zeros(s.sid.size)
    np.add.at(busy, s.pidx[work], s.dur[work])
    walls = s.dur[study]
    m["experiments.study_p50_s"] = _p50(walls)
    m["experiments.child_busy_s"] = _p50(busy[study])
    m["experiments.thread_efficiency"] = _ratio(
        busy[study].sum(), walls.sum() * workers)
    m["experiments.self_s"] = _p50(s.self_time[study])
    single_walls = single.dur[single.mask("experiments.study")] \
        if single is not None else []
    m["experiments.pool_speedup"] = _ratio(_p50(single_walls), _p50(walls))

    gibbs, draw = s.mask("mcmc.pg_gibbs"), s.mask("mcmc.pg_draw")
    steps = np.array(s.note(gibbs, "steps"), dtype=float)
    m["mcmc.pg_gibbs.calls"] = s.per_op(gibbs)
    m["mcmc.pg_gibbs.sweep_us"] = _p50(s.dur[gibbs] / steps * 1e6) \
        if steps.size else 0.0
    m["mcmc.pg_draw.calls"] = s.per_op(draw)
    m["mcmc.pg_draw.p50_us"] = _p50(s.dur[draw]) * 1e6
    for n in (16, 512):
        m[f"mcmc.pg_draw.p50_us.n{n}"] = _p50(
            s.dur[draw & (s.size == n)]) * 1e6
    m["mcmc.pg_draw.share"] = _ratio(s.dur[draw].sum(), s.dur[gibbs].sum())
    m["mcmc.pg_gibbs.self_s"] = _p50(s.self_time[gibbs])

    for key, name in (("rwmh.step_us", "mcmc.rwmh"),
                      ("komaki.sweep_us", "mcmc.komaki")):
        mk = s.mask(name)
        st = np.array(s.note(mk, "steps"), dtype=float)
        m[f"mcmc.{key}"] = _p50(s.dur[mk] / st * 1e6) if st.size else 0.0
    rw = s.mask("mcmc.rwmh")
    acc = s.note(rw, "acceptance")
    m["mcmc.rwmh.accept_ratio"] = float(np.mean(acc)) if acc else 0.0

    mp_ = s.mask("estimators.map")
    m["estimators.map.calls"] = s.per_op(mp_)
    m["estimators.map.p50_ms"] = _p50(s.dur[mp_]) * 1e3
    m["estimators.map.self_s"] = _p50(s.self_time[mp_])
    iters = [v for v in s.note(mp_, "iterations") if v is not None]
    m["estimators.map.newton_iters"] = float(np.mean(iters)) if iters else 0.0
    ridge = s.note(mp_, "ridge_used")
    m["estimators.map.ridge_ratio"] = float(np.mean(ridge)) if ridge else 0.0
    # logistic MAPs at n=512 in both workloads that run them: the ridge prior
    # against its e-flat partner (label "<ridge>/jeffreys")
    logit = mp_ & (s.size == 512)
    logit[logit] = [k == "LogisticGLM" for k in s.note(logit, "model")]
    partner = np.zeros(s.sid.size, dtype=bool)
    partner[logit] = [p.endswith("/jeffreys") for p in s.note(logit, "prior")]
    m["estimators.map.matching_over_ridge"] = _ratio(
        _p50(s.dur[logit & partner]), _p50(s.dur[logit & ~partner]))
    m["estimators.calibrate.p50_us"] = _p50(
        s.dur[s.mask("estimators.calibrate")]) * 1e6
    m["estimators.mle.calls"] = s.per_op(s.mask("estimators.mle"))

    jg = s.mask("geometry.jeffreys_grad")
    m["geometry.jeffreys_grad.calls"] = s.per_op(jg)
    m["geometry.jeffreys_grad.busy_s"] = s.per_op(s.dur[jg & s.outermost])
    m["geometry.geometry_at.p50_us"] = _p50(
        s.dur[s.mask("geometry.geometry_at")]) * 1e6

    pri = (s.layer == "priors") & s.outermost
    m["priors.log_grad.calls"] = s.per_op(s.mask("priors.log_grad")
                                          & s.outermost)
    m["priors.busy_s"] = s.per_op(s.dur[pri])

    avg = np.zeros(s.sid.size, dtype=bool)
    for meth in ("avg_loglik", "avg_grad", "avg_hess", "avg_third"):
        avg |= s.mask(f"models.{meth}")
    m["models.avg.calls"] = s.per_op(avg)
    m["models.avg.busy_s"] = s.per_op(s.dur[avg])
    m["models.avg_loglik.p50_us"] = _p50(
        s.dur[s.mask("models.avg_loglik")]) * 1e6
    m["models.avg_third.p50_us"] = _p50(
        s.dur[s.mask("models.avg_third")]) * 1e6
    m["models.fisher.calls"] = s.per_op(s.mask("models.fisher"))

    quad = s.mask("oracle.quad")
    n_quad = int(quad.sum())
    m["oracle.quad.calls"] = s.per_op(quad)
    for d in (1, 2):
        m[f"oracle.quad.p50_ms.d{d}"] = _p50(s.dur[quad & (s.size == d)]) * 1e3
    in_quad = _under(s, quad)
    m["oracle.integrand_evals"] = _ratio(
        int((in_quad & s.mask("models.avg_loglik")).sum()), n_quad)
    m["oracle.quadpack_calls"] = _ratio(
        int((in_quad & s.mask("oracle.quadpack")).sum()), n_quad)
    orc = s.layer == "oracle"
    m["oracle.self_s"] = _ratio(float(s.self_time[orc].sum()), n_quad)
    return m


def _under(s: SpanSet, roots):
    """Spans that have a span in roots among their ancestors."""
    inside = roots.copy()
    # each pass carries the flag one level further down the call tree
    while True:
        upd = (s.pidx >= 0)
        upd[upd] = inside[s.pidx[upd]]
        new = inside | upd
        if np.array_equal(new, inside):
            break
        inside = new
    return inside & ~roots


def unit_of(metric):
    """Unit of a per-layer metric, read off its name."""
    last = metric.split(".")[-1]
    if last in ("n16", "n512", "d1", "d2"):
        last = metric.split(".")[-2]
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s")):
        if last.endswith(suffix):
            return unit
    if last in ("calls", "newton_iters", "integrand_evals", "quadpack_calls"):
        return "count"
    return "ratio"
