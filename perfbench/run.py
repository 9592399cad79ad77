"""Campaign benchmark for oamem.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an oamem source tree.  Each campaign runs in a fresh
interpreter (``perfbench/campaign.py``) through the CLI entry point, with
``--parallel 1`` and no BLAS or OpenMP thread variable set.  Campaigns of
one workload repeat, one after another, until the next one would end
after S seconds (at least MIN_ROUNDS of them).  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` campaigns, and the metrics, each the median over the run.

--trace 0 reports the end-to-end metrics: campaign_s, campaign_cpu_s,
setup_s and peak_rss_mb.  --trace 1 alternates untraced and traced
campaigns and reports the per-layer metrics of the traced ones, plus the
tracing overhead; it also writes perfbench/_runs/trace_<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

from checks import CHECKS, check_manifest
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
# thread-count variables a user's shell may carry; the benchmark runs without them
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
CAMPAIGN_TIMEOUT_S = 100


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_campaign(root: Path, subcommand: str, config: Path, out: Path,
                 trace: bool = False, parallel: int = 1) -> dict:
    """One campaign in a fresh interpreter; returns its result record."""
    result_path = out.with_suffix(".json")
    cmd = [sys.executable, str(HERE / "campaign.py"), subcommand, str(config), str(out),
           str(result_path), "--parallel", str(parallel)] + (["--trace"] if trace else [])
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(root), cwd=root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CAMPAIGN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"killed after {CAMPAIGN_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.exists():
        return {"ok": False, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    record = json.loads(result_path.read_text())
    record.update(ok=True, setup_s=record["ready_monotonic"] - started, out=out,
                  output_bytes=sum(p.stat().st_size for p in out.iterdir()))
    return record


CALLS = ("modes.lg_field", "holography.project_and_couple", "polariton.diffraction_check",
         "fieldgrid.inner_product", "measurement.simulate_counts", "tomography.reconstruct",
         "bounds.classical_limit", "harness.storage_point")
SECONDS = ("modes.lg_field", "modes.synthesize", "modes.state_from_field",
           "holography.project_and_couple", "polariton.write", "polariton.diffraction_check",
           "polariton.read", "decoherence.diffuse", "decoherence.magnetic_dephase",
           "fieldgrid.inner_product", "measurement.simulate_counts", "tomography.reconstruct",
           "tomography.fidelity", "tomography.exports", "bounds.threshold_band",
           "config.load_config")


def counts(record: dict) -> dict:
    """The traced campaign's deterministic figures, as (value, unit)."""
    trace = record["trace"]
    out = {f"{layer}.calls": (trace["layers"][layer]["calls"], "count") for layer in CALLS}
    out["fft2.calls"] = (trace["fft2_calls"], "count")
    out["modes.lg_field.useful_ratio"] = (trace["lg_field_useful_ratio"], "ratio")
    out["harness.output_bytes"] = (record["output_bytes"], "bytes")
    return out


def layer_metrics(good: list[dict]) -> dict:
    """Counts of one traced campaign, medians of the traced span times.

    The tracing overhead is the median, over rounds, of the traced
    campaign's time minus the untraced one's in the same round.
    """
    traced = [r for r in good if r["traced"]]
    untraced = {r["round"]: r for r in good if not r["traced"]}
    overheads = [r["campaign_s"] - untraced[r["round"]]["campaign_s"]
                 for r in traced if r["round"] in untraced]
    if not overheads:
        return {}

    def med(get):
        return statistics.median(get(r) for r in traced)

    metrics = counts(traced[0])
    for layer in SECONDS:
        metrics[f"{layer}.s"] = (med(lambda r: r["trace"]["layers"][layer]["s"]), "s")
    metrics["harness.self.s"] = (med(lambda r: r["trace"]["harness_self_s"]), "s")
    metrics["trace.campaign_s"] = (med(lambda r: r["campaign_s"]), "s")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return metrics


END_TO_END = {"campaign_s": "s", "campaign_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "oamem" / "cli.py").is_file():
        print("perfbench: run from the root of an oamem source tree (src/oamem missing)",
              file=sys.stderr)
        return 2

    subcommand, cfg = WORKLOADS[args.workload](args.seed)
    work = HERE / "_runs" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "config.yaml"
    config.write_text(yaml.safe_dump(cfg, sort_keys=True))

    # a round is one untraced campaign, or an (untraced, traced) pair
    plan = (False, True) if args.trace else (False,)
    min_rounds = MIN_TRACED_ROUNDS if args.trace else MIN_ROUNDS
    records = []
    start = time.monotonic()
    longest = 0.0
    rounds = 0
    while rounds < min_rounds or time.monotonic() - start + longest <= args.seconds:
        round_start = time.monotonic()
        for traced in plan:
            out = work / f"c{len(records):03d}"
            records.append(dict(run_campaign(root, subcommand, config, out, traced),
                                traced=traced, round=rounds))
        rounds += 1
        longest = max(longest, time.monotonic() - round_start)

    # checks run after the timed campaigns so they never share the CPU with one
    failures = [r["error"] for r in records if not r["ok"]]
    good = [r for r in records if r["ok"]]
    correct = bool(good)
    if good:
        reference = good[0]["out"]
        errors = check_manifest(reference) + CHECKS[subcommand](cfg, reference)
        manifest = (reference / "manifest.csv").read_bytes()
        for rec in good[1:]:
            if (rec["out"] / "manifest.csv").read_bytes() != manifest or check_manifest(rec["out"]):
                errors.append(f"{rec['out'].name}: outputs differ from {reference.name}")
        traced = [r for r in good if r["traced"]]
        if any(counts(r) != counts(traced[0]) for r in traced[1:]):
            errors.append("traced campaigns differ in their call counts")
        if errors:
            # every campaign produced the outputs that failed a check
            correct = False
            failures += errors
            good = []
    failed = len(records) - len(good)
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)

    values = {}
    if good and args.trace:
        values = layer_metrics(good)
        dump = {"workload": args.workload, "seed": args.seed, "config": cfg,
                "campaigns": [{k: v for k, v in r.items() if k not in ("spans", "out")}
                              for r in good],
                "span_columns": ["name", "start_ns", "end_ns", "parent"],
                "spans": next((r["spans"] for r in good if r["traced"]), [])}
        (HERE / "_runs" / f"trace_{args.workload}.json").write_text(json.dumps(dump))
    elif good:
        values = {name: (statistics.median(r[name] for r in good), unit)
                  for name, unit in END_TO_END.items()}
    shutil.rmtree(work)

    for name, (value, unit) in sorted(values.items()):
        print(f"{name:36s} {value!r:>24} {unit}")
    print(f"attempted {len(records)} campaigns, failed {failed}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in values.items()}}))
    return 0 if values else 1


if __name__ == "__main__":
    sys.exit(main())
