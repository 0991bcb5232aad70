"""matchprior benchmark: three closed-loop workloads, checked and timed.

    python3 bench/run.py --workload {gap-study,map-calibrate,reference-pm,all}
        --seed N --seconds S --trace {0,1} [--smoke] [--out DIR]

One caller runs ops back to back (a closed loop) for at least --seconds of
op time, finishing the cycle of ops in progress.  Every op's output is
checked; an op that raises MatchPriorError or fails its check counts in
failed_ratio, and the run exits 1.  --trace 0 prints the end-to-end metrics;
--trace 1 runs the workload untraced and then traced (and, for gap-study,
traced with MATCHPRIOR_THREADS=1) and prints the per-layer metrics.  Every
metric is printed as "<workload> <name> <value> <unit>", a result file with
the machine record goes to --out, and the last line of stdout is one JSON
object.  The library is imported from src/ next to this directory.
"""

from __future__ import annotations

import os

# one BLAS thread per Python thread, so the process never runs more compute
# threads than the experiment pool has workers; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("MATCHPRIOR_THREADS", None)  # the library's default pool

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 21        # op_tail_ms needs ten ops beyond a percentile above p50
MIN_CYCLES = 2      # every op kind at least twice, whatever the speed
SETUP_SAMPLES = 7   # fresh processes timed for setup_s
PLACEHOLDER = 1.0   # a metric the workload has nothing to measure with
# printed for every workload but left out of the JSON line, which carries
# attempted/failed instead: it is 0 on a good run
UNBOUNDED = ("failed_ratio",)

E2E_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
             "op_tail_ms": "ms", "failed_ratio": "1", "ess_per_s": "1/s",
             "ref_mcse": "theta", "peak_rss_mb": "MB"}


def _load_library():
    if not (SRC / "matchprior" / "__init__.py").is_file():
        print(f"benchmark: no matchprior sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]


def _args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["gap-study", "map-calibrate", "reference-pm",
                            "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and a short run, for tests")
    p.add_argument("--out", default=str(HERE / "out"))
    p.add_argument("--setup-only", action="store_true",
                   help="import, generate inputs, run the warm-up op, exit")
    a = p.parse_args(argv)
    if a.seed < 0:
        p.error("--seed must be non-negative")
    if a.seconds is None:
        a.seconds = 0.5 if a.smoke else 40.0
    return a


# ---------------------------------------------------------------------------
# machine and commit record


def _blas_threads():
    import ctypes
    import glob

    import numpy as np
    import scipy
    found = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in glob.glob(str(libdir / "*openblas*")):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    fn = getattr(handle, sym)
                    fn.restype = ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def _source_digest():
    import hashlib
    h = hashlib.sha256()
    for f in sorted((SRC / "matchprior").rglob("*.py")):
        h.update(f.relative_to(SRC).as_posix().encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def machine_record():
    import platform

    import numpy as np
    import scipy
    from matchprior.experiments import _workers
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "matchprior_workers": _workers(),
            "git_commit": _git_commit(), "source_sha256": _source_digest()}


# ---------------------------------------------------------------------------
# the closed loop


class Phase:
    """The ops of one measured stretch: (kind, seconds, Outcome) each."""

    def __init__(self, label):
        self.label = label
        self.ops = []
        self.busy = 0.0      # op time: input generation between cycles excluded
        self.op_ids = []     # traced phases: the tracer's id of each op

    @property
    def ops_per_s(self):
        return len(self.ops) / self.busy


def run_phase(wl, label, seconds, min_ops, first_cycle, min_cycles=1,
              tracer=None, ess_sink=None):
    from matchprior import MatchPriorError
    from workloads import Outcome

    phase = Phase(label)
    c = first_cycle
    while (phase.busy < seconds or len(phase.ops) < min_ops
           or c < first_cycle + min_cycles):
        ops = wl.cycle(c)
        c += 1
        t_cycle = time.perf_counter()
        for kind, fn in ops:
            seen = len(ess_sink) if ess_sink is not None else 0
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = fn()
                else:
                    with tracer.op(kind) as op_id:
                        phase.op_ids.append(op_id)
                        out = fn()
            except MatchPriorError as exc:
                out = Outcome(False, f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            if ess_sink is not None and len(ess_sink) > seen:
                out.ess = sum(ess_sink[seen:])
            phase.ops.append((kind, dt, out))
        phase.busy += time.perf_counter() - t_cycle
    phase.next_cycle = c
    return phase


def _tail(lat):
    """Highest percentile with ten samples beyond it: (value, pct, n)."""
    lat = sorted(lat)
    n = len(lat)
    return lat[n - 11], 100.0 * (n - 10) / n, n


def e2e_metrics(phase, setup_s):
    lat = [dt for _, dt, _ in phase.ops]
    chains = [(dt, o) for _, dt, o in phase.ops if o.ess is not None]
    mcse = [v for _, _, o in phase.ops for v in (o.mcse or [])]
    tail, pct, n = _tail(lat)
    m = {"setup_s": setup_s,
         "ops_per_s": phase.ops_per_s,
         "op_p50_ms": statistics.median(lat) * 1e3,
         "op_tail_ms": tail * 1e3,
         "failed_ratio": sum(not o.ok for _, _, o in phase.ops) / n,
         "ess_per_s": (sum(o.ess for _, o in chains)
                       / sum(dt for dt, _ in chains)) if chains
         else PLACEHOLDER,
         "ref_mcse": statistics.median(mcse) if mcse else PLACEHOLDER,
         "peak_rss_mb": resource.getrusage(
             resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    notes = {"op_tail_ms": f"p{pct:.1f} of {n} ops, 10 beyond",
             "failed_ratio": f"{n - sum(o.ok for _, _, o in phase.ops)} "
                             f"of {n} ops failed"}
    if not chains:
        notes["ess_per_s"] = "placeholder: this workload runs no chain"
    if not mcse:
        notes["ref_mcse"] = "placeholder: this workload runs no chain"
    return m, notes


def measure_setup(a, name):
    """setup_s: median over fresh processes of start to warm-up op done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(a.seed), "--out", a.out, "--setup-only"]
    if a.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(1 if a.smoke else SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # a blocking wait: wait(timeout=...) polls in steps of up to 50 ms,
        # which would quantise a setup of well under a second
        killer = threading.Timer(170, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        samples.append(time.perf_counter() - t0)
        if code:
            raise subprocess.CalledProcessError(code, cmd)
    return statistics.median(samples), samples


# ---------------------------------------------------------------------------
# one workload


def run_workload(a, name, workdir):
    import tracing
    from workloads import WORKLOADS, digest

    wl = WORKLOADS[name](a.seed, a.smoke, workdir)
    _, warm = wl.cycle(0)[0]             # cycle 0 is the untimed warm-up
    warm()
    if a.setup_only:
        return None
    min_ops = 11 if a.smoke else MIN_OPS
    result = {"workload": name, "seed": a.seed, "seconds": a.seconds,
              "smoke": a.smoke, "trace": a.trace}
    metrics, units, notes, phases = {}, {}, {}, []

    if a.trace == 0:
        sink = []
        with tracing.observe_chains(sink):
            ph = run_phase(wl, "untraced", a.seconds, min_ops, 1,
                           MIN_CYCLES, ess_sink=sink)
        phases.append(ph)
        setup_s, samples = measure_setup(a, name)
        result["setup_samples_s"] = samples
        metrics, notes = e2e_metrics(ph, setup_s)
        units = dict(E2E_UNITS)
        if name == "gap-study":
            notes["ops_per_s"] = f"{wl.cells_per_op} cells per op"
    else:
        from matchprior.experiments import _workers
        half = a.seconds / 2
        plain = run_phase(wl, "untraced", half, 1, 1)
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            workers = _workers()
            traced = run_phase(wl, "traced", half, 1, plain.next_cycle,
                               tracer=tracer)
            phases += [plain, traced]
            single = None
            if name == "gap-study":
                os.environ["MATCHPRIOR_THREADS"] = "1"
                try:
                    single = run_phase(wl, "traced-1-thread", half, 1,
                                       plain.next_cycle, tracer=tracer)
                finally:
                    del os.environ["MATCHPRIOR_THREADS"]
                phases.append(single)
        spans = tracing.SpanSet(tracer, traced.op_ids)
        single_spans = (tracing.SpanSet(tracer, single.op_ids)
                        if single else None)
        metrics = tracing.layer_metrics(spans, single_spans, workers)
        metrics["trace.overhead_ratio"] = plain.ops_per_s / traced.ops_per_s
        units = {k: tracing.unit_of(k) for k in metrics}
        # the untraced phase, to set beside a --trace 0 run of the same seed
        metrics["trace.untraced_ops_per_s"] = plain.ops_per_s
        metrics["trace.untraced_op_p50_ms"] = statistics.median(
            dt for _, dt, _ in plain.ops) * 1e3
        units.update({"trace.untraced_ops_per_s": "ops/s",
                      "trace.untraced_op_p50_ms": "ms"})
        Path(a.out).mkdir(parents=True, exist_ok=True)
        tracer.save(Path(a.out) / f"spans-{name}-s{a.seed}.npz")
        result["spans"] = len(tracer.rows) // tracing.COLS

    failures = [f"{ph.label} {k}: {o.detail}" for ph in phases
                for k, _, o in ph.ops if not o.ok]
    result.update(
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        notes=notes, failures=failures,
        phases=[{"label": ph.label, "ops": len(ph.ops), "busy_s": ph.busy,
                 "ops_per_s": ph.ops_per_s,
                 "ops_run": [[k, round(dt, 6), digest(o.values)]
                             for k, dt, o in ph.ops]}
                for ph in phases])
    return result


def main(argv=None):
    a = _args(argv)
    _load_library()
    names = (["gap-study", "map-calibrate", "reference-pm"]
             if a.workload == "all" else [a.workload])
    workdir = Path(a.out) / f"work-{os.getpid()}"
    results = []
    try:
        for name in names:
            results.append(run_workload(a, name, workdir / name))
    finally:
        if workdir.exists():
            import shutil
            shutil.rmtree(workdir)
    if a.setup_only:
        return 0

    machine = machine_record()
    print("# machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    attempted = failed = 0
    combined = {}
    for r in results:
        r["machine"] = machine
        out = Path(a.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / f"result-{r['workload']}-s{a.seed}-t{a.trace}.json",
                  "w") as fh:
            json.dump(r, fh, indent=1)
        n = sum(p["ops"] for p in r["phases"])
        bad = len(r["failures"])
        attempted += n
        failed += bad
        for k, v in r["metrics"].items():
            note = r["notes"].get(k)
            print(f"{r['workload']} {k} {v['value']:.6g} {v['unit']}"
                  + (f" ({note})" if note else ""))
            combined[k if len(results) == 1 else f"{r['workload']}/{k}"] = v
        for f in r["failures"]:
            print(f"{r['workload']} FAILED {f}")
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": {k: v for k, v in combined.items()
                         if k.rsplit("/", 1)[-1] not in UNBOUNDED}}
    print(json.dumps(final))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
