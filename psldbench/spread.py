#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 psldbench/spread.py --workload hot_small --seeds 1-10 [--trace 0]

For each metric: the median of the runs and the spread, the distance
between the first and third quartile (statistics.quantiles(values, n=4))
as a share of the median. With --bounds, each spread is compared against a
third of the bound BENCHMARK.json gives the metric, the steadiness target
for a benchmark change.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--bounds", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit("seed %d failed:\n%s" % (seed, out.stdout))
        lines = out.stdout.splitlines()
        result = json.loads(lines[-1])
        steal = [l.split(":", 1)[1].strip() for l in lines
                 if l.startswith("report steal_pct per round:")]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s%s" % (seed, " ".join("%s=%.6g" % (k, v["value"])
                                                for k, v in result["metrics"].items()),
                                   " | steal % per round: " + steal[0] if steal else ""),
              flush=True)

    steady = True
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) >= 2 else [vals[0]] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        line = "%-34s median %-14.6g %-6s spread %.4f" % (name, med, units[name], spread)
        bound = bounds.get(name)
        if args.bounds and bound is not None and name != "setup_s":
            ok = spread < bound / 3
            steady &= ok
            line += "  (bound/3 %.4f %s)" % (bound / 3, "ok" if ok else "TOO WIDE")
        print(line)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
