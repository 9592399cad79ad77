"""Golden gate: run every subcommand on a fixed set of configs and keep what each run leaves.

Usage::

    python3 tools/golden.py OUT_DIR              # write the configs and run them all
    python3 tools/golden.py --configs OUT_DIR    # only write the configs

The configs are both ``perfbench/workloads.py`` workloads at seeds 1-3,
each also from a binary hologram (``HOLOGRAM``), and the README's
example config; they go to ``OUT_DIR/configs/<name>.yaml``.  Each config
runs all six subcommands, and ``decay`` and ``tomo`` again with
``--parallel 2``, each in a fresh interpreter on the ``src`` of the
checkout this script lives in.  A run keeps its outputs in
``OUT_DIR/runs/<config>-<command>[-parallel2]/out`` and its stdout,
stderr and exit code next to them, with OUT_DIR written as ``OUT_DIR``
and this checkout as ``ROOT``.  Run it on two checkouts and ``diff -r``
the two OUT_DIRs: a change that must not alter any result leaves that
diff empty.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402

SUBCOMMANDS = ("scan", "meridian", "decay", "tomo", "bounds", "render")
PARALLEL = ("decay", "tomo")
SEEDS = (1, 2, 3)
HOLOGRAM = {"kind": "hologram", "input_waist": 5.0e-4, "focal": 0.5}


def readme_config() -> dict:
    """The first yaml block of the README."""
    text = (ROOT / "README.md").read_text()
    match = re.search(r"^```yaml\n(.*?)^```$", text, re.M | re.S)
    return yaml.safe_load(match.group(1))


def configs() -> dict[str, dict]:
    """Every golden config by name: workload-seed[-hologram], and readme."""
    out = {}
    for workload, make in WORKLOADS.items():
        for seed in SEEDS:
            _, data = make(seed)
            out[f"{workload}-s{seed}"] = data
            out[f"{workload}-s{seed}-hologram"] = {**data, "source": HOLOGRAM}
    out["readme"] = readme_config()
    return out


def write_configs(out_dir: Path) -> dict[str, Path]:
    """Write :func:`configs` as ``out_dir/configs/<name>.yaml``; returns the paths by name."""
    config_dir = out_dir / "configs"
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, data in configs().items():
        paths[name] = config_dir / f"{name}.yaml"
        with open(paths[name], "w") as fh:
            yaml.safe_dump(data, fh)
    return paths


def run(command: str, config: Path, run_dir: Path, out_dir: Path, parallel: int = 1) -> int:
    """Run ``oamem command`` on ``config`` in a fresh interpreter; keep what it leaves.

    The outputs go to ``run_dir/out``; stdout, stderr and the exit code
    to ``run_dir/stdout.txt``, ``stderr.txt`` and ``exit.txt``, with
    ``out_dir`` written as OUT_DIR and this checkout as ROOT.  Returns
    the exit code.
    """
    run_dir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    args = [sys.executable, "-m", "oamem.cli", command, "--config", str(config),
            "--out", str(run_dir / "out"), "--parallel", str(parallel)]
    proc = subprocess.run(args, capture_output=True, text=True, env=env)
    for name, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
        text = text.replace(str(out_dir), "OUT_DIR").replace(str(ROOT), "ROOT")
        (run_dir / f"{name}.txt").write_text(text)
    (run_dir / "exit.txt").write_text(f"{proc.returncode}\n")
    return proc.returncode


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--configs":
        write_configs(Path(argv[1]).resolve())
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out_dir = Path(argv[0]).resolve()
    codes = {}
    for name, path in write_configs(out_dir).items():
        for command in SUBCOMMANDS:
            codes[f"{name}-{command}"] = run(command, path, out_dir / "runs" / f"{name}-{command}",
                                             out_dir)
        for command in PARALLEL:
            tag = f"{name}-{command}-parallel2"
            codes[tag] = run(command, path, out_dir / "runs" / tag, out_dir, parallel=2)
    for code in sorted(set(codes.values())):
        print(f"exit {code}: {sum(c == code for c in codes.values())} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
