#!/usr/bin/env python3
"""Checks the benchmark's steadiness: runs one workload once per seed and
prints, for each metric, the median and the distance between the first
and third quartile as a share of the median (statistics.quantiles, n=4).

    python3 perfbench/spread.py <workload> <seconds> <seed> [<seed> ...]

Run it from the repository root. Each run's report line is appended to
perfbench/target/spread-<workload>.jsonl.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    if len(sys.argv) < 5:
        print(__doc__, file=sys.stderr)
        return 2
    workload, seconds, seeds = sys.argv[1], sys.argv[2], sys.argv[3:]
    log = os.path.join(HERE, "target", "spread-%s.jsonl" % workload)
    os.makedirs(os.path.dirname(log), exist_ok=True)
    rows = []
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", seed, "--seconds", seconds, "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True,
        ).stdout.splitlines()
        rows.append(json.loads(out[-1]))
        with open(log, "a") as f:
            f.write(out[-1] + "\n")
    print("%s: %d runs, failed ops %s" % (workload, len(rows), [r["failed"] for r in rows]))
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med if med else float("nan")
        print("  %-22s median %-12.6g spread %.4f  min %.6g  max %.6g"
              % (name, med, spread, min(values), max(values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
