"""Run the benchmark on several seeds and summarise each metric.

    python3 bench/repeat.py --workloads gap-study,map-calibrate,reference-pm
        --seeds 1-10 [--save bench/results/NAME.json]

Runs are untraced (--trace 0) and one after another.  For every workload and
metric it prints the median, the quartiles (Python's
statistics.quantiles(n=4)) and the spread, (q3 - q1) / median, and checks the
spread of each end-to-end metric against its bound in BENCHMARK.json.  --save
writes the summary with the machine record, for a before/after pair.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in SPEC["workloads"]))
    p.add_argument("--seeds", default="1-10", type=_seeds)
    p.add_argument("--save")
    a = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary, machine, ok = {}, None, True
    for w in a.workloads.split(","):
        values, failed = {}, 0
        for seed in a.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += last["failed"]
            for k, v in last["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            result = HERE / "out" / f"result-{w}-s{seed}-t0.json"
            machine = json.loads(result.read_text())["machine"]
        summary[w] = {"seeds": a.seeds, "failed_ops": failed, "metrics": {}}
        for k, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[w]["metrics"][k] = {"median": med, "q1": q1, "q3": q3,
                                        "spread": spread, "values": v}
            flag = ""
            if k in bounds and spread > bounds[k]:
                flag, ok = f"  > bound {bounds[k]}", False
            print(f"{w} {k} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.3f}{flag}", flush=True)
        ok = ok and failed == 0
    if a.save:
        Path(a.save).write_text(json.dumps(
            {"machine": machine, "run_seconds": SPEC["run_seconds"],
             "workloads": summary}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
