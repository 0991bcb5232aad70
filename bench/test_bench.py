"""Tests of the benchmark itself, on its smoke mode (tiny inputs, short runs).

Run with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# per-layer metrics that only reference-pm moves, so BENCHMARK.json, which
# does not list that workload, leaves them out; the traced run prints them
REFERENCE_PM_LAYERS = [("mcmc.rwmh.step_us", "us"),
                       ("mcmc.rwmh.accept_ratio", "ratio"),
                       ("mcmc.komaki.sweep_us", "us"),
                       ("oracle.quad.p50_ms.d2", "ms")]
WORKLOADS = ["gap-study", "map-calibrate", "reference-pm"]  # --workload all


def _run(out, *args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--smoke",
           "--out", str(out), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _digests(out, workload, seed):
    r = json.loads((out / f"result-{workload}-s{seed}-t0.json").read_text())
    return [(k, d) for ph in r["phases"] for k, _, d in ph["ops_run"]]


@pytest.fixture(scope="module")
def seed1(tmp_path_factory):
    out = tmp_path_factory.mktemp("seed1")
    return out, _run(out, "--workload", "all", "--seed", "1")


def _printed(stdout):
    """{(workload, metric): unit} from the "<workload> <name> <value> <unit>"
    lines."""
    found = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 4 and parts[0] in WORKLOADS \
                and parts[2].replace(".", "").replace("e-", "").isdigit():
            found[(parts[0], parts[1])] = parts[3]
    return found


def test_smoke_prints_every_end_to_end_metric(seed1):
    _, proc = seed1
    assert proc.returncode == 0, proc.stdout + proc.stderr
    printed = _printed(proc.stdout)
    wanted = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    wanted.append(("failed_ratio", "1"))
    for w in WORKLOADS:
        for name, unit in wanted:
            assert printed.get((w, name)) == unit, (w, name)
    final = json.loads(proc.stdout.splitlines()[-1])
    assert final["correct"] and final["failed"] == 0
    assert final["attempted"] >= 11 * len(WORKLOADS)


def test_traced_smoke_prints_every_layer_metric(tmp_path):
    proc = _run(tmp_path, "--workload", "all", "--seed", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    printed = _printed(proc.stdout)
    wanted = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    for w in WORKLOADS:
        for name, unit in wanted + REFERENCE_PM_LAYERS:
            assert printed.get((w, name)) == unit, (w, name)
    assert (tmp_path / "spans-gap-study-s1.npz").is_file()


def test_same_seed_same_outputs_other_seed_accepted(seed1, tmp_path):
    out1, _ = seed1
    again = _run(tmp_path / "again", "--workload", "all", "--seed", "1")
    other = _run(tmp_path / "other", "--workload", "all", "--seed", "2")
    assert again.returncode == 0 and other.returncode == 0
    for w in WORKLOADS:
        a = _digests(out1, w, 1)
        b = _digests(tmp_path / "again", w, 1)
        k = min(len(a), len(b))
        assert k >= 11 and a[:k] == b[:k], w
        c = _digests(tmp_path / "other", w, 2)
        assert a[:k] != c[:k], w


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path / "o", "--workload", "gap-study", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_spans_from_many_threads_stay_whole():
    tr = tracing.Tracer()
    leaf = tr.wrap("models.avg_loglik", lambda x: x + 1)
    outer = tr.wrap("estimators.map", lambda n: [leaf(i) for i in range(n)])
    calls = 2000
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tr.op("stress"):
            threads = [threading.Thread(target=outer, args=(calls,))
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    t = tr.table()
    assert t.shape == (8 * (calls + 1) + 1, tracing.COLS)
    assert np.unique(t[:, 0]).size == t.shape[0]
    assert np.all(t[:, 5] >= t[:, 4])
    names = np.array(tr.names)[t[:, 3].astype(int)]
    outers = set(t[names == "estimators.map", 0])
    op = t[names == "bench.op", 0]
    assert set(t[names == "estimators.map", 1]) == set(op)
    assert set(t[names == "models.avg_loglik", 1]) <= outers


def test_self_time_counts_overlapping_children_once():
    tr = tracing.Tracer()
    study, a, b = tr.name_id("experiments.study"), tr.name_id("mcmc.a"), \
        tr.name_id("mcmc.b")
    op = tr.name_id("bench.op")
    # op 1 [0, 10]; study 2 [0, 10]; children [1, 5] and [3, 8] overlap
    for row in ((1, 0, 0, op, 0, 10, -1), (2, 1, 0, study, 0, 10, -1),
                (3, 2, 0, a, 1, 5, -1), (4, 2, 0, b, 3, 8, -1)):
        tr.rows.extend(row)
    spans = tracing.SpanSet(tr, [0])
    self_time = dict(zip(spans.sid.tolist(), spans.self_time.tolist()))
    assert self_time == {1: 0.0, 2: 3.0, 3: 4.0, 4: 5.0}
