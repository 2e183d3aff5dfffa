#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

For every workload given, runs the command from BENCHMARK.json once per
seed, then prints each end-to-end metric's median and its spread: the
distance between the first and third quartiles as a share of the median
(Python's statistics.quantiles(values, n=4)), next to the metric's bound.
Run it from the repository root:

    python3 perfbench/spread.py --workloads dash-256 live-remote --seeds 1 2 3 4 5

Exits non-zero when a run fails, reports correct=false, or a spread other
than setup_s's reaches a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    spec = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    ok = True
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        for metric in spec["end_to_end"]:
            v = values.get(metric["name"], [])
            if len(v) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2
            steady = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            ok &= steady
            print(f"  {workload:12} {metric['name']:18} median {q2:<12.6g} "
                  f"spread {spread:7.2%}  bound {metric['bound']:.0%}"
                  f"{'' if steady else '  <-- not steady'}", flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
