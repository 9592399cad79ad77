"""Paired benchmark runs of two oamem checkouts, and per-point times, as one JSON file.

Usage::

    python3 tools/bench_pairs.py pairs PARENT CHANGE OUT.json --seeds 1601-1610 [--seconds 50]
    python3 tools/bench_pairs.py points PARENT CHANGE OUT.json [--n 512,1024]
    python3 tools/bench_pairs.py parallel PARENT CHANGE OUT.json [--n 512,1024]

``pairs`` runs ``perfbench/run.py --workload W --seed S --seconds T`` in
each checkout, the two in turn for every seed, alternating which runs
first (the first pair runs PARENT first), for every workload of this
checkout's ``perfbench/workloads.py``.  It records each run's JSON line
and, per workload and end-to-end metric, both sides' medians and
quartiles (``statistics.quantiles(method="inclusive")``) and the pairs
the change won (lower is better; ties count for neither), under
``sets["seeds_FIRST_LAST"]``.

``points`` times one storage point (``harness._retrieve`` on the written
wave) of the seed-1 config of each workload at each grid size n, in a
fresh interpreter per checkout: the best of 5 per storage time after one
untimed pass, with the per-time low-rank phase terms, where a checkout
has them, dropped before each call, since a campaign meets each storage
time once, under ``per_point_s["<workload> n=<n>"]``.  The same config
from a hologram (``HOLOGRAM``), whose sampled wave takes the dense
phase, goes under ``"<workload> hologram n=<n>"``.  Writes OUT.json,
merged into what is already there.

``parallel`` times whole-process ``oamem decay`` (wall seconds of the
``python -m oamem.cli`` process, and its CPU seconds, the growth of
``RUSAGE_CHILDREN``, which counts every thread of it from start to
exit, so also CPU spent outside the benchmark's runner window) on the
seed-1 ``decay_qutrit_n512`` config at each grid size n, from an ideal
source and from a hologram (``HOLOGRAM``), ten pairs of ``--parallel 1``
and ``--parallel 2`` in each checkout, with no ``*_THREADS`` variable.
Pair k runs PARENT then CHANGE, and in each ``--parallel 1`` then
``--parallel 2``, for even k, and both in the other order for odd k.
Per case and checkout it records every wall and CPU time, the medians
and quartiles of both settings (``serial``, ``parallel2``,
``serial_cpu``, ``parallel2_cpu``) and the pairs that ``--parallel 2``
won on wall time, under ``parallel["<source> n=<n>"]``.

Before its first run, each mode byte-compiles both checkouts' ``src``
and ``perfbench`` with ``python -m compileall -q`` (which writes the
``.pyc`` files even under ``PYTHONDONTWRITEBYTECODE``), so that no run
pays to recompile a module whose cached bytecode predates its source,
and records that under ``"bytecode"``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

METRICS = ("campaign_s", "campaign_cpu_s", "setup_s", "peak_rss_mb")
BYTECODE = "compileall before the first run"
# the golden gate's hologram source (tools/golden.py)
HOLOGRAM = {"kind": "hologram", "input_waist": 5.0e-4, "focal": 0.5}

POINT_TIMER = r"""
import json, sys, time
root, n, hologram = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
sys.path[:0] = [root + "/src", root + "/perfbench"]
from workloads import WORKLOADS
from oamem.config import parse_config
from oamem.harness import _retrieve, _store
import oamem.decoherence as decoherence
terms = getattr(decoherence, "_phase_terms", None)
out = {}
for workload, make in WORKLOADS.items():
    data = make(1)[1]
    data = dict(data, grid=dict(data["grid"], n=n))
    for name, cfg in ((workload, parse_config(data)),
                      (workload + " hologram", parse_config(dict(data, source=hologram)))):
        wave = _store(cfg)[1]
        for t in cfg.storage_times[1:]:
            _retrieve(cfg, wave, t)
        best = []
        for t in cfg.storage_times[1:]:
            times = []
            for _ in range(5):
                if terms is not None:
                    terms.cache_clear()
                start = time.perf_counter()
                _retrieve(cfg, wave, t)
                times.append(time.perf_counter() - start)
            best.append(min(times))
        out[name] = best
print(json.dumps(out))
"""


def compile_checkouts(*checkouts: Path) -> None:
    for checkout in checkouts:
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=checkout, check=True)


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr.strip()[-500:]}
    return json.loads(lines[-1])


def summary(pairs: list[dict]) -> dict:
    out = {}
    for metric in METRICS:
        sides = {side: [p[side]["metrics"][metric]["value"] for p in pairs
                        if metric in p[side].get("metrics", {})] for side in ("parent", "change")}
        if len(sides["parent"]) < 2 or len(sides["parent"]) != len(sides["change"]):
            continue
        stats = {side: quartiles(values) for side, values in sides.items()}
        wins = sum(c < p for p, c in zip(sides["parent"], sides["change"]))
        ties = sum(c == p for p, c in zip(sides["parent"], sides["change"]))
        out[metric] = {**stats, "change_wins": wins, "ties": ties, "pairs": len(sides["parent"])}
    return out


def pairs(parent: Path, change: Path, seeds: list[int], seconds: float) -> dict:
    compile_checkouts(parent, change)
    result = {"bytecode": BYTECODE}
    for workload in WORKLOADS:
        runs = []
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_bench(parent if side == "parent" else change, workload, seed,
                                       seconds)
                print(workload, seed, side, pair[side].get("metrics", {}).get(
                    "campaign_s", pair[side].get("error")), flush=True)
            runs.append(pair)
        result[workload] = {
            "summary": summary(runs),
            "all_correct": all(p[s].get("correct") for p in runs for s in ("parent", "change")),
            "failed": sum(p[s].get("failed", 1) for p in runs for s in ("parent", "change")),
            "pairs": runs}
    return result


def points(parent: Path, change: Path, sizes: list[int]) -> dict:
    compile_checkouts(parent, change)
    result = {"bytecode": BYTECODE}
    for n in sizes:
        for side, checkout in (("parent", parent), ("change", change)):
            proc = subprocess.run([sys.executable, "-c", POINT_TIMER, str(checkout), str(n),
                                   json.dumps(HOLOGRAM)], capture_output=True, text=True,
                                  check=True)
            for name, best in json.loads(proc.stdout).items():
                result.setdefault(f"{name} n={n}", {})[side] = best
    return result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def cpu_of_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def time_decay(checkout: Path, config: Path, out: Path, parallel: int) -> tuple[float, float]:
    """Wall and CPU seconds of one ``oamem decay`` process on the ``src`` of ``checkout``.

    The CPU seconds are the growth of ``RUSAGE_CHILDREN`` over the run:
    every thread of the process, from interpreter start to exit.  Like
    ``perfbench/run.py``, the process gets no ``*_THREADS`` variable.
    """
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    env["PYTHONPATH"] = str(checkout / "src")
    cpu, start = cpu_of_children(), time.perf_counter()
    subprocess.run([sys.executable, "-m", "oamem.cli", "decay", "--config", str(config),
                    "--out", str(out), "--parallel", str(parallel)],
                   env=env, cwd=checkout, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - start, cpu_of_children() - cpu


def parallel(parent: Path, change: Path, sizes: list[int], repeats: int) -> dict:
    compile_checkouts(parent, change)
    result = {"bytecode": BYTECODE}
    data = WORKLOADS["decay_qutrit_n512"](1)[1]
    with tempfile.TemporaryDirectory() as scratch:
        for n in sizes:
            for source in ("ideal", "hologram"):
                case = f"{source} n={n}"
                config = Path(scratch) / f"{source}-{n}.yaml"
                cfg = dict(data, grid=dict(data["grid"], n=n))
                if source == "hologram":
                    cfg["source"] = HOLOGRAM
                config.write_text(yaml.safe_dump(cfg))
                # (wall, cpu) per run
                times = {side: {1: [], 2: []} for side in ("parent", "change")}
                for k in range(repeats):
                    sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                    for side in sides:
                        for workers in ((1, 2) if k % 2 == 0 else (2, 1)):
                            times[side][workers].append(time_decay(
                                parent if side == "parent" else change, config,
                                Path(scratch) / f"{case}-{side}-{k}-{workers}", workers))
                    print(case, k, {side: [times[side][w][-1] for w in (1, 2)]
                                    for side in sides}, flush=True)
                result[case] = {side: parallel_summary(t, repeats) for side, t in times.items()}
    return result


def parallel_summary(times: dict, repeats: int) -> dict:
    """One checkout's record of a ``parallel`` case from its (wall, cpu) runs per setting."""
    (wall1, cpu1), (wall2, cpu2) = (zip(*times[w]) for w in (1, 2))
    return {"serial_s": list(wall1), "parallel2_s": list(wall2),
            "serial": quartiles(wall1), "parallel2": quartiles(wall2),
            "parallel2_wins": sum(p < s for s, p in zip(wall1, wall2)),
            "serial_cpu_s": list(cpu1), "parallel2_cpu_s": list(cpu2),
            "serial_cpu": quartiles(cpu1), "parallel2_cpu": quartiles(cpu2),
            "pairs": repeats}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("pairs", "points", "parallel"))
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1601-1610"))
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--n", default="512,1024")
    args = parser.parse_args(argv)
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.mode == "pairs":
        name = f"seeds_{args.seeds[0]}_{args.seeds[-1]}"
        data.setdefault("sets", {})[name] = pairs(args.parent.resolve(), args.change.resolve(),
                                                  args.seeds, args.seconds)
    elif args.mode == "points":
        data["per_point_s"] = points(args.parent.resolve(), args.change.resolve(),
                                     [int(n) for n in args.n.split(",")])
    else:
        data["parallel"] = parallel(args.parent.resolve(), args.change.resolve(),
                                    [int(n) for n in args.n.split(",")], 10)
    args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
