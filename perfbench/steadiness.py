#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median, beside the
metric's bound from BENCHMARK.json.

    python3 perfbench/steadiness.py --workload hot-exec --runs 10 [--first-seed 1]

Run from the root of a source tree. Prints one line per metric and, last,
a JSON object with every run's values.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {name: [] for name in bounds}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        out = subprocess.run(
            bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit(f"seed {seed}: exit {out.returncode}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        for name in bounds:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{n}={values[n][-1]:.4g}" for n in bounds),
              flush=True)
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread < bounds[name] / 3 else ("WIDE" if spread < bounds[name] else "OVER")
        print(f"{a.workload:13s} {name:24s} median {med:12.5g}  spread {spread:7.4f}  "
              f"bound {bounds[name]:.3f}  {flag}")
    print(json.dumps({"workload": a.workload, "values": values}))


if __name__ == "__main__":
    main()
