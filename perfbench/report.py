"""Run every workload, untraced and traced, and print the README's figures.

usage: python3 perfbench/report.py [--seed N] [--seconds S]

Run from the root of an oamem source tree.  Prints, as Markdown, each
workload's end-to-end metrics with the run's attempted and failed
campaigns, each layer's share of the traced campaign time, the tracing
overhead, the CPU/wall ratio, and one pool-of-two against serial figure
on the tomography workload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import yaml

import run
from workloads import WORKLOADS

POOL_REPEATS = 5


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pool_against_serial(root: Path, seed: int) -> tuple[float, float]:
    """Median campaign_s of the tomography workload with --parallel 1 and 2."""
    subcommand, cfg = WORKLOADS["tomo_qubit_n512"](seed)
    work = run.HERE / "_runs" / "pool"
    work.mkdir(parents=True, exist_ok=True)
    config = work / "config.yaml"
    config.write_text(yaml.safe_dump(cfg, sort_keys=True))
    times = {1: [], 2: []}
    for i in range(POOL_REPEATS):
        for parallel in (1, 2):
            rec = run.run_campaign(root, subcommand, config, work / f"p{parallel}_{i}",
                                   parallel=parallel)
            if not rec["ok"]:
                raise RuntimeError(rec["error"])
            times[parallel].append(rec["campaign_s"])
    shutil.rmtree(work)
    return statistics.median(times[1]), statistics.median(times[2])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    args = parser.parse_args()
    root = Path.cwd()

    print("| workload | " + " | ".join(f"{m} ({u})" for m, u in run.END_TO_END.items())
          + " | CPU/wall | attempted | failed |")
    print("|---" * (len(run.END_TO_END) + 4) + "|")
    shares = {}
    for workload in WORKLOADS:
        plain = bench(workload, args.seed, args.seconds, 0)
        traced = bench(workload, args.seed, args.seconds, 1)
        m = {k: v["value"] for k, v in plain["metrics"].items()}
        print(f"| {workload} | " + " | ".join(f"{m[k]:.4g}" for k in run.END_TO_END)
              + f" | {m['campaign_cpu_s'] / m['campaign_s']:.2f}"
              + f" | {plain['attempted']} | {plain['failed']} |")
        shares[workload] = ({k: v["value"] for k, v in traced["metrics"].items()},
                            traced["attempted"], traced["failed"])

    names = list(WORKLOADS)
    print("\n| traced metric | " + " | ".join(names) + " |")
    print("|---" * (len(names) + 1) + "|")
    first = shares[names[0]][0]
    for metric in first:
        cells = []
        for w in names:
            values = shares[w][0]
            value = values[metric]
            if metric == "trace.campaign_s":
                cells.append(f"{value:.3f} s")
            elif metric.endswith(".s") or metric == "trace.overhead_s":
                cells.append(f"{value:.3f} s ({100 * value / values['trace.campaign_s']:.1f} %)")
            else:
                cells.append(f"{value:.4g}")
        print(f"| {metric} | " + " | ".join(cells) + " |")
    print("| traced runs: attempted / failed | "
          + " | ".join(f"{shares[w][1]} / {shares[w][2]}" for w in names) + " |")

    serial, pool = pool_against_serial(root, args.seed)
    print(f"\ntomo_qubit_n512 campaign_s, median of {POOL_REPEATS}: "
          f"--parallel 1 {serial:.3f} s, --parallel 2 {pool:.3f} s "
          f"(pool/serial {pool / serial:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
