"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile as a share of
the median, against the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --workload bem-oracle --seeds 1-10

Runs are sequential, each a full ``run.py`` invocation from the current
directory, which must be the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, *bench["command"][1:], "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = [f"seed {seed}", f"correct={result['correct']}", f"failed={result['failed']}"]
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
            line.append(f"{name}={m['value']:.4g}")
        print(" ".join(line), flush=True)
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        print(f"{m['name']:16s} median {med:.5g} {m['unit']:6s} spread {spread:.4f} "
              f"bound {m['bound']} ({spread / m['bound']:.2f} of bound)")


if __name__ == "__main__":
    sys.exit(main())
