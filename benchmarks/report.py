"""Run every workload of BENCHMARK.json and print its metrics as one table.

    python3 benchmarks/report.py [--seed 0] [--seconds 20] [--trace 0]

Each workload runs in its own process (so peak_rss_mb is that workload's);
a workload that fails is reported and the next one runs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        command = [sys.executable, *spec["command"][1:], "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        result = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        lines = result.stdout.splitlines()
        if result.returncode != 0 or not lines:
            print(f"{name}: exit {result.returncode}\n{result.stderr}")
            status = 1
            continue
        outcome = json.loads(lines[-1])
        print(f"{name}: correct={outcome['correct']} attempted={outcome['attempted']} "
              f"failed={outcome['failed']} "
              f"fail_frac={outcome['failed'] / outcome['attempted']:.6g}")
        for metric, entry in outcome["metrics"].items():
            print(f"  {metric:42s} {entry['value']!r:>24} {entry['unit']}")
        status |= not outcome["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
