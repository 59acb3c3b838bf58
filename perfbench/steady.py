"""Steadiness runs: the benchmark command on each workload with several
seeds, then the median, quartiles and spread of every metric.

Run from the root of a checkout:

    python3 perfbench/steady.py --runs 10 --first-seed 1 [--workload NAME ...] [--trace 1]

The spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4); it is checked against a third of
each end-to-end metric's bound.  Each run's JSON line is kept in
perfbench/results/steady-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    steady = True
    for name in names:
        rows = []
        log = os.path.join(HERE, "results", f"steady-{name}.jsonl")
        with open(log, "a") as fh:
            for seed in range(args.first_seed, args.first_seed + args.runs):
                cmd = [sys.executable] + spec["command"][1:] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
                done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
                last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
                if done.returncode != 0 or not last.startswith("{"):
                    print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                    return 1
                result = json.loads(last)
                fh.write(json.dumps(dict(result, seed=seed)) + "\n")
                rows.append(result)
                print(f"{name} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                    if not args.trace or k in ("trace.overhead_s", "process.cpu_s")), flush=True)
        shares = {r["failed"] / r["attempted"] for r in rows}
        print(f"\n{name}: failed shares {sorted(shares)}")
        print("| metric | median | Q1 | Q3 | spread | bound |")
        print("| --- | --- | --- | --- | --- | --- |")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in rows]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            mark = ""
            if bound is not None and m["name"] != "setup_s" and spread > bound / 3:
                mark = " (above a third of the bound)"
                steady = False
            print(f"| {m['name']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f}{mark} | "
                  f"{bound if bound is not None else '-'} |")
        print(flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
