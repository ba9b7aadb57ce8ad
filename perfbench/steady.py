#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload N times per set, each run on its own seed, and prints
for every end-to-end metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the quartile spread as a share of
the median, next to the metric's bound from BENCHMARK.json. With two or
more sets it also prints how far each later set's median moved from the
first set's, in the metric's worse direction, as a share of the first.

Usage (from the repository root):

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--seconds S]
                                [--workloads a,b] [--seed-base 1000]
                                [--trace 0|1]

Runs use the command in BENCHMARK.json, with CARGO_TARGET_DIR set to
.bench_build unless it is already set. Raw results are written to
perfbench/out/steady-<time>.json. Exits 1 if a run fails or a spread or
a median shift exceeds its bound (the spread of setup_s is reported but
not held to its bound).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"{workload} seed {seed}: {lines[-1]}")
    report = json.loads(lines[-2])["report"] if len(lines) > 1 else {}
    return result, report, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def worse_shift(first, later, better):
    """Signed share by which `later` is worse than `first`."""
    if first == 0:
        return 0.0 if later == first else float("inf")
    delta = (later - first) / abs(first)
    return delta if better == "lower" else -delta


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seed-base", type=int, default=1000)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    metrics = bench["end_to_end"] if a.trace == 0 else bench["per_layer"]

    raw = {}
    failed = False
    for workload in a.workloads.split(","):
        sets = []
        for s in range(a.sets):
            runs = []
            for i in range(a.runs):
                seed = a.seed_base + 1000 * s + i
                result, report, wall = run_once(bench["command"], workload, seed, a.seconds, a.trace)
                runs.append({"seed": seed, "wall_s": round(wall, 2), "metrics": result["metrics"], "report": report})
                print(f"  {workload} set {s + 1} seed {seed}: {wall:.1f} s", file=sys.stderr)
            sets.append(runs)
        raw[workload] = sets
        print(f"\n{workload} ({a.runs} runs x {a.sets} sets, {a.seconds} s)")
        print(f"  {'metric':<40} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'shift':>8} {'bound':>6}")
        for m in metrics:
            name, bound = m["name"], m.get("bound")
            first = None
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, sp = spread(values)
                shift = "" if first is None else f"{worse_shift(first, med, m['better']):+.3f}"
                flag = ""
                if bound is not None:
                    if name != "setup_s" and sp > bound:
                        flag += " SPREAD>BOUND"
                    elif name != "setup_s" and sp > bound / 3:
                        flag += " spread>bound/3"
                    if first is not None and worse_shift(first, med, m["better"]) > bound:
                        flag += " SHIFT>BOUND"
                    failed |= "BOUND" in flag
                if first is None:
                    first = med
                print(f"  {name:<40} {s + 1:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {sp:>8.4f} {shift:>8} {bound if bound is not None else '-':>6}{flag}")

    out_dir = os.path.join(ROOT, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as f:
        json.dump({"args": vars(a), "runs": raw}, f, indent=1)
    print(f"\nraw results: {os.path.relpath(path, ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
