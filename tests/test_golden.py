"""The golden-gate script of ``tools/golden.py`` runs a subcommand and keeps what it leaves."""

import importlib.util
import io
import subprocess
import sys
from pathlib import Path

import pytest
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


def golden_tree(root, decay_rows, stderr="", report="f_abs = 0.5\n", pgm=b"\x00\x01"):
    """A golden OUT_DIR with one run: a CSV, a text report, a PGM and a manifest."""
    run = root / "runs" / "cfg-decay"
    out = run / "out"
    out.mkdir(parents=True)
    (root / "configs").mkdir()
    (root / "configs" / "cfg.yaml").write_text("seed: 1\n")
    (out / "decay.csv").write_text("t_s,eta,count\r\n" + "".join(
        f"{t},{eta},{count}\r\n" for t, eta, count in decay_rows), newline="")
    (out / "report.txt").write_text(report)
    (out / "retrieved.pgm").write_bytes(b"P5\n1 1\n65535\n" + pgm)
    digest = str(hash(tuple(decay_rows)) & 0xffff)
    (out / "manifest.csv").write_text(f"path,sha256\r\ndecay.csv,h{digest}\r\n", newline="")
    (run / "exit.txt").write_text("0\n")
    (run / "stderr.txt").write_text(stderr)
    (run / "stdout.txt").write_text("storage_decay: wrote 3 files\n")


def compared(tmp_path, rtol=1e-12, expect=None, **new):
    old_rows = [(0.0, 0.1, 12), (1e-4, 0.30000000000000004, 7)]
    golden_tree(tmp_path / "old", old_rows)
    golden_tree(tmp_path / "new", new.pop("rows", old_rows), **new)
    printed = io.StringIO()
    code = load_tool().compare(tmp_path / "old", tmp_path / "new", rtol, out=printed,
                               expect=expect)
    return code, printed.getvalue()


def test_compare_passes_identical_trees(tmp_path):
    code, printed = compared(tmp_path)
    assert code == 0
    assert "byte-identical: 1 runs" in printed


def test_compare_passes_floats_within_rtol_and_their_manifest_hash(tmp_path):
    code, printed = compared(tmp_path, rows=[(0.0, 0.1, 12), (1e-4, 0.3, 7)])
    assert code == 0
    assert "within rtol 1e-12: 1 runs: cfg-decay" in printed
    assert "beyond rtol: 0 runs" in printed


def test_compare_holds_a_rounding_level_entry_to_its_column_scale(tmp_path):
    # 1e-20 -> 3e-20 is 200 % of the entry but 2e-16 of the column's 1e-4
    old_rows = [(1e-20, 0.1, 12), (1e-4, 0.30000000000000004, 7)]
    golden_tree(tmp_path / "old", old_rows)
    golden_tree(tmp_path / "new", [(3e-20, 0.1, 12), old_rows[1]])
    golden = load_tool()
    assert golden.compare(tmp_path / "old", tmp_path / "new", 1e-12, out=io.StringIO()) == 0
    assert golden.compare(tmp_path / "old", tmp_path / "new", 1e-17, out=io.StringIO()) == 1


@pytest.mark.parametrize("new, field", [
    ({"rows": [(0.0, 0.1, 12), (1e-4, 0.3001, 7)]},
     "decay.csv: row 2 eta: '0.30000000000000004' -> '0.3001'"),
    ({"rows": [(0.0, 0.1, 12), (1e-4, 0.30000000000000004, 8)]},
     "decay.csv: row 2 count: '7' -> '8'"),
    ({"stderr": "warning\n"}, "stderr.txt: bytes differ"),
    ({"report": "f_rel = 0.5\n"}, "report.txt: line 1 text 0"),
    ({"pgm": b"\x00\x02"}, "retrieved.pgm: 1 of 1 pixel levels differ, by at most 1"),
], ids=["float", "integer", "stderr", "text", "pgm-level"])
def test_compare_prints_what_differs_beyond_rtol(tmp_path, new, field):
    code, printed = compared(tmp_path, **new)
    assert code == 1
    assert field in printed
    assert "beyond rtol: 1 runs: cfg-decay" in printed


def test_compare_from_the_command_line(tmp_path):
    golden_tree(tmp_path / "old", [(0.0, 0.1, 1)])
    golden_tree(tmp_path / "new", [(0.0, 0.1, 1)])
    proc = subprocess.run([sys.executable, str(TOOL), "--compare", str(tmp_path / "old"),
                           str(tmp_path / "new"), "--rtol", "1e-12"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "byte-identical: 1 runs" in proc.stdout


ETA = {"runs": "cfg-*", "files": "decay.csv", "columns": ["eta"]}


def test_expected_column_change_passes_and_prints_its_rows_and_largest_change(tmp_path):
    code, printed = compared(tmp_path, rtol=None, expect=[ETA],
                             rows=[(0.0, 0.2, 12), (1e-4, 0.25, 7)])
    assert code == 0
    assert "expect runs=cfg-* files=decay.csv: 1 files changed in 1 runs" in printed
    assert "  eta: 2 rows changed, largest 0.1 -> 0.2" in printed
    assert "within SPEC: 1 runs: cfg-decay" in printed
    assert "beyond rtol: 0 runs" in printed


def test_change_in_an_unlisted_column_of_an_expected_file_fails(tmp_path):
    code, printed = compared(tmp_path, rtol=None, expect=[ETA],
                             rows=[(0.0, 0.2, 12), (1e-4, 0.30000000000000004, 8)])
    assert code == 1
    assert "decay.csv: row 2 count: '7' -> '8'" in printed
    assert "beyond rtol: 1 runs: cfg-decay" in printed


@pytest.mark.parametrize("expect, vacuous", [
    ([ETA, {"runs": "cfg-*", "files": "*.pgm"}], "files=*.pgm: 0 files changed in 0 runs"),
    ([{**ETA, "columns": ["eta", "t_s"]}], "  t_s: 0 rows changed"),
], ids=["entry", "column"])
def test_expectation_that_matches_no_change_fails(tmp_path, expect, vacuous):
    code, printed = compared(tmp_path, rtol=None, expect=expect,
                             rows=[(0.0, 0.2, 12), (1e-4, 0.30000000000000004, 7)])
    assert code == 1
    assert vacuous in printed
    assert "SPEC: 1 entries or columns changed in no run" in printed
    assert "beyond rtol: 0 runs" in printed


def test_whole_file_entry_lets_the_report_change(tmp_path):
    expect = [{"runs": "cfg-decay", "files": "report*.txt"}]
    code, printed = compared(tmp_path, rtol=None, expect=expect, report="f_rel = 0.6\n")
    assert code == 0
    assert "files=report*.txt: 1 files changed in 1 runs" in printed
    assert compared(tmp_path / "bare", rtol=None, report="f_rel = 0.6\n")[0] == 1


def test_compare_without_rtol_passes_identical_trees_and_fails_on_one_ulp(tmp_path):
    def cli(old_rows, new_rows, name):
        golden_tree(tmp_path / name / "old", old_rows)
        golden_tree(tmp_path / name / "new", new_rows)
        return subprocess.run([sys.executable, str(TOOL), "--compare", str(tmp_path / name / "old"),
                               str(tmp_path / name / "new")],
                              capture_output=True, text=True, timeout=120)

    same = cli([(0.0, 0.1, 1)], [(0.0, 0.1, 1)], "same")
    assert same.returncode == 0
    assert "byte-identical: 1 runs" in same.stdout
    ulp = cli([(0.0, 0.1, 1)], [(0.0, 0.10000000000000002, 1)], "ulp")
    assert ulp.returncode == 1
    assert "decay.csv: row 1 eta: '0.1' -> '0.10000000000000002'" in ulp.stdout


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["-h"], 0), (["--compare", "old", "new", "--help"], 0),
    (["--bogus"], 2), (["--configs", "--bogus"], 2), (["--compare", "old", "--bogus"], 2),
    (["--compare", "old", "new", "--strict", "1"], 2), ([], 2),
], ids=["help", "h", "help-anywhere", "unknown", "configs-dash", "compare-dash",
        "compare-option", "none"])
def test_usage_runs_nothing_and_makes_no_directory(tmp_path, monkeypatch, capsys, argv, code):
    golden = load_tool()

    def refuse(*args, **kwargs):
        raise AssertionError("a golden run started")

    monkeypatch.setattr(golden, "run", refuse)
    monkeypatch.chdir(tmp_path)
    assert golden.main(argv) == code
    printed = capsys.readouterr()
    assert "Usage::" in (printed.out if code == 0 else printed.err)
    assert list(tmp_path.iterdir()) == []
