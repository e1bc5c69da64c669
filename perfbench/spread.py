#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's
median and spread (interquartile range over median, as
statistics.quantiles(values, n=4) gives the quartiles) against its bound
in BENCHMARK.json.

    python3 perfbench/spread.py --workloads serve batch --seeds 1-10

Run from the repository root.  Prints one line per workload and metric;
exits 1 if a spread (setup_s excepted) exceeds a third of its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for wl in args.workloads:
        values = {}
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                bench["command"] + ["--workload", wl, "--seed", str(seed),
                                    "--seconds", str(args.seconds),
                                    "--trace", "0"],
                check=True, capture_output=True, text=True).stdout
            print(f"{wl} seed {seed}: " + out.strip().splitlines()[-1],
                  file=sys.stderr, flush=True)
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{wl} seed {seed}: failed ops", file=sys.stderr)
                steady = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            ok = bound is None or name == "setup_s" or spread < bound / 3
            steady = steady and ok
            print(f"{wl:12} {name:14} median {med:12.4f} spread {spread:6.3f}"
                  f" bound {bound} {'ok' if ok else 'WIDE'}", flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
