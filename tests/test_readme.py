"""The README examples run as written."""

import re
from pathlib import Path

from oamem.cli import main as cli_main

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(language: str) -> str:
    """The first ```language block of the README."""
    match = re.search(rf"^```{language}\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert match, f"README has no {language} block"
    return match.group(1)


def test_example_config_passes_bounds(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(fenced_block("yaml"))
    assert cli_main(["bounds", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "bounds.csv").exists()


def test_library_sketch_runs(capsys):
    exec(compile(fenced_block("python"), str(README), "exec"), {})
    assert 0.5 < float(capsys.readouterr().out) < 1.0
