"""The golden-gate script of ``tools/golden.py`` runs a subcommand and keeps what it leaves."""

import importlib.util
from pathlib import Path

import yaml

TOOL = Path(__file__).resolve().parents[1] / "tools" / "golden.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("golden", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_runner_keeps_outputs_streams_and_exit_code(tmp_path):
    golden = load_tool()
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump({
        "seed": 7, "grid": {"n": 64, "extent": 3.2e-3},
        "qudit": {"dim": 3, "l": 1, "waist": 250.0e-6,
                  "coeffs": [[1.0, 0.0], [0.0, 1.0], [0.6, -0.3]]},
        "counting": {"poisson": False}, "storage_times": [0.0, 1.0e-4]}))
    run_dir = tmp_path / "runs" / "decay"
    assert golden.run("decay", config, run_dir, tmp_path, parallel=2) == 0
    assert (run_dir / "exit.txt").read_text() == "0\n"
    assert sorted(p.name for p in (run_dir / "out").iterdir()) == [
        "decay.csv", "manifest.csv", "provenance.csv"]
    assert (run_dir / "stdout.txt").read_text() == (
        "storage_decay: wrote 3 files to OUT_DIR/runs/decay/out\n")
    assert (run_dir / "stderr.txt").read_text() == ""
    # a subcommand the config cannot run keeps its message and exit code
    assert golden.run("scan", config, tmp_path / "runs" / "scan", tmp_path) == 2
    assert (tmp_path / "runs" / "scan" / "stderr.txt").read_text() == (
        "config error: interference scan requires a qubit\n")
    assert set(golden.configs()) >= {"decay_qutrit_n512-s1-hologram", "readme"}
