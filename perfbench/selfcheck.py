#!/usr/bin/env python3
"""Self-checks of the benchmark, run from the repository root.

    python3 perfbench/selfcheck.py determinism [--seconds S]
        For every workload and both trace modes: two runs on one seed
        must print the same `exact:` line byte for byte, and a run on a
        second seed must pass every answer check and the mode guard.

    python3 perfbench/selfcheck.py spread --workload W [--runs R] [--seconds S] [--trace T]
        Runs seeds 1..R and prints, per metric, the median and the
        quartile spread (Q3 - Q1) / median, next to the metric's bound
        from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(workload, seed, seconds, trace):
    """One benchmark run: (exit code, parsed result or None, exact line)."""
    cmd = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    exact = next((l for l in lines if l.startswith("exact:")), None)
    result = None
    if out.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return out.returncode, result, exact


def determinism(seconds):
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            a = run(w, 1, seconds, trace)
            b = run(w, 1, seconds, trace)
            c = run(w, 2, seconds, trace)
            same = a[2] is not None and a[2] == b[2]
            passed = all(r[0] == 0 and r[1]["correct"] for r in (a, b, c))
            print(f"{w} trace {trace}: exact metrics repeat: {same}; "
                  f"seeds 1 and 2 correct and guarded: {passed}")
            if not same:
                print(f"  seed 1 run 1: {a[2]}\n  seed 1 run 2: {b[2]}")
            ok &= same and passed
    return 0 if ok else 1


def spread(workload, runs, seconds, trace):
    bounds = {m["name"]: m.get("bound") for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    values = {}
    for seed in range(1, runs + 1):
        code, result, _ = run(workload, seed, seconds, trace)
        if code != 0 or not result["correct"]:
            print(f"seed {seed}: exit {code}, result {result}")
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} done", file=sys.stderr)
    worst = 0.0
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        rel = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, rel / bound)
            flag = "  <-- above a third of the bound" if rel > bound / 3 else ""
        print(f"{name:<36} median {med:>16.6f} spread {rel:8.4f} bound {bound}{flag}")
    print(f"largest spread / bound: {worst:.3f}")
    return 0


def main():
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["determinism", "spread"])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    a = p.parse_args()
    if a.mode == "determinism":
        return determinism(a.seconds)
    return spread(a.workload, a.runs, a.seconds, a.trace)


if __name__ == "__main__":
    sys.exit(main())
