#!/usr/bin/env python3
"""Build and run the Mirror benchmark.

    python3 perfbench/run.py --workload kv-update --seed 1 --seconds 10 --trace 0

builds perfbench/bench.exe from source with dune (release profile, no shared
dune cache, so nothing is written outside the checkout).  With --trace 0 it
runs one repetition of the workload per bench.exe process, in fresh
processes one after another, until the next one would end past --seconds
(at least MIN_PROCS of them); every process gets the same seed, so the same
inputs.  The last line is one JSON object whose metrics are the medians over
the processes.  With --trace 1 it runs bench.exe once, and passes its output
through: the last line is the JSON result.

    python3 perfbench/run.py --repeat 5 --workload kv-read,kv-update --seed 1

is the steadiness report: each named workload is run 5 times as above, with
seeds 1..5, and every metric of the JSON line is summarised as median,
quartiles, (max - min) / median and (q3 - q1) / median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
# A run, build excluded, must end within this many seconds.
RUN_LIMIT_S = 170
MIN_PROCS = 3


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "./perfbench/bench.exe"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(2)


def bench(workload, seed, trace, timeout, capture):
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, timeout=timeout, text=True,
                          stdout=subprocess.PIPE if capture else None)


def last_json(proc, what):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: {what} exited {proc.returncode} without a result")


def repetitions(workload, seed, seconds, out):
    """One repetition per process until [seconds] are used; the medians."""
    start = time.monotonic()
    results, last_s = [], 0.0
    while (len(results) < MIN_PROCS
           or time.monotonic() - start + last_s <= seconds):
        t0 = time.monotonic()
        left = max(1.0, RUN_LIMIT_S - (t0 - start))
        proc = bench(workload, seed, 0, left, capture=True)
        last_s = time.monotonic() - t0
        r = last_json(proc, f"{workload} seed {seed}")
        results.append(r)
        if out:
            out.write(f"repetition {len(results)} ({last_s:.1f} s): " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in r["metrics"].items()) + "\n")
    metrics = {
        name: {"value": statistics.median(r["metrics"][name]["value"]
                                          for r in results),
               "unit": m["unit"]}
        for name, m in results[0]["metrics"].items()
    }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }, len(results)


def steadiness(workloads, seed, k, seconds):
    for w in workloads:
        values = {}
        for i in range(k):
            result, procs = repetitions(w, seed + i, seconds, None)
            if not result["correct"]:
                sys.exit(f"perfbench: {w} seed {seed + i} failed")
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print(f"{w} seed {seed + i} ({procs} processes): " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
                flush=True)
        print(f"\n{w}: {k} runs, seeds {seed}..{seed + k - 1}")
        print(f"  {'metric':<32} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'range/med':>10} {'iqr/med':>8}  unit")
        for name, (unit, vs) in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (
                vs[0], vs[0], vs[0])
            rel = (lambda x: x / abs(med)) if med else (lambda x: 0.0)
            print(f"  {name:<32} {med:12.6g} {q1:12.6g} {q3:12.6g}"
                  f" {rel(max(vs) - min(vs)):10.4f} {rel(q3 - q1):8.4f}  {unit}")
        print(flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="workload name (comma-separated list with --repeat)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="steadiness report over this many runs")
    args = ap.parse_args()
    build()
    if args.repeat > 0:
        steadiness(args.workload.split(","), args.seed, args.repeat,
                   args.seconds)
        return
    if args.trace == 1:
        proc = bench(args.workload, args.seed, 1, RUN_LIMIT_S, capture=False)
        sys.exit(proc.returncode)
    result, n = repetitions(args.workload, args.seed, args.seconds,
                            sys.stdout)
    print(f"end-to-end (median over {n} processes):")
    for name, m in result["metrics"].items():
        print(f"  {name:<30} {m['value']:16.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
