"""Golden gate: run every subcommand on a fixed set of configs and keep what each run leaves.

Usage::

    python3 tools/golden.py OUT_DIR              # write the configs and run them all
    python3 tools/golden.py --configs OUT_DIR    # only write the configs
    python3 tools/golden.py --compare OLD_DIR NEW_DIR [--rtol R] [--expect SPEC]
    python3 tools/golden.py --help               # print this usage, run nothing

The configs are both ``perfbench/workloads.py`` workloads at seeds 1-3,
each also from a binary hologram (``HOLOGRAM``), and the README's
example config; they go to ``OUT_DIR/configs/<name>.yaml``.  Each config
runs every subcommand of ``oamem.cli.SUBCOMMANDS``, and ``decay`` and
``tomo`` again with ``--parallel 2``, each in a fresh interpreter on
the ``src`` of the checkout this script lives in, whose CLI also lists
the subcommands.  A run keeps its outputs in
``OUT_DIR/runs/<config>-<command>[-parallel2]/out`` and its stdout,
stderr and exit code next to them, with OUT_DIR written as ``OUT_DIR``
and this checkout as ``ROOT``.  Run it on two checkouts and ``diff -r``
the two OUT_DIRs: a change that must not alter any result leaves that
diff empty, and ``--compare OLD_DIR NEW_DIR`` then passes and prints
``byte-identical: <all> runs``.

``--compare`` (:func:`compare`) passes, with exit 0, when every file is
in both, exit codes, stderr and every byte that is not part of a float
are identical, integers are identical, and each float is identical or,
with ``--rtol``, within ``rtol`` of the old one, relative to the
largest magnitude in its CSV column, or in the file for other text, so
that an entry at rounding level, such as the imaginary part of a
density matrix's diagonal, is held to the scale of its column.  A
manifest's hash may differ only for a file that itself differs.  A
16-bit PGM that differs is reported by how many pixel levels flip.

A change that alters results on purpose states which ones in SPEC, a
YAML list committed as ``tools/expect/<pr>.yaml``::

    - runs: "decay_qutrit_n512-s*-decay*"   # glob on the run's directory name
      files: "decay.csv"                    # glob on the file's name
      columns: [f_classical, band_high]     # CSV columns that may change
    - runs: "*-hologram-*"
      files: "*.pgm"                        # no columns: the whole file may change

With ``--expect SPEC`` those columns, or files, may change freely, and
for each column it prints how many rows changed and the largest
old -> new change.  An entry, or a listed column, that changes in no
run fails the gate, so a vacuous SPEC cannot pass.  It prints each file
and field that differs unexpectedly, then one line per outcome:
byte-identical runs, runs that changed only as SPEC or ``rtol`` allows,
and runs that changed otherwise.
"""

from __future__ import annotations

import csv
import fnmatch
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from workloads import WORKLOADS  # noqa: E402

from oamem.cli import SUBCOMMANDS  # noqa: E402

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


# a number in a text file: integer or float literal, or a non-finite float
NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)")


def _is_int(token: str) -> bool:
    return re.fullmatch(r"[-+]?\d+", token) is not None


def _numbers_close(old: str, new: str, rtol: float, scale: float) -> bool:
    """Whether two number tokens agree: integers exactly, floats within rtol of ``scale``."""
    if old == new:
        return True
    if _is_int(old) or _is_int(new):
        return False
    a, b = float(old), float(new)
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale)


def _text_fields(path: Path, text: str) -> list[tuple[str, str, str]]:
    """(field name, scale group, value) of every CSV cell, or of every token of other text.

    A CSV cell is named by its row and column header and grouped by its
    column; a text token is named by its line and position, and the
    whole file is one group.  Tokens alternate text and numbers, so the
    text between numbers is compared as it stands.
    """
    if path.suffix == ".csv":
        rows = list(csv.reader(io.StringIO(text, newline="")))
        header = rows[0] if rows else []

        def column(c: int) -> str:
            return header[c] if c < len(header) else str(c)
        return [(f"row {r} {column(c)}", column(c), cell)
                for r, row in enumerate(rows[1:], 1) for c, cell in enumerate(row)]
    fields = []
    for number, line in enumerate(text.split("\n"), 1):
        pieces = NUMBER.split(line)
        numbers = NUMBER.findall(line)
        for k, piece in enumerate(pieces):
            fields.append((f"line {number} text {k}", "", "T" + piece))
            if k < len(numbers):
                fields.append((f"line {number} number {k}", "", numbers[k]))
    return fields


def _compare_text(old: bytes, new: bytes, path: Path, rtol: float | None,
                  columns: dict) -> list[str]:
    """The fields in which two text files differ beyond rtol; [] when all agree.

    A field of a CSV column named in ``columns`` may change: its
    (old, new) pair is appended to ``columns[name]`` instead.  Without
    rtol every other field must be identical.
    """
    try:
        a = _text_fields(path, old.decode())
        b = _text_fields(path, new.decode())
    except UnicodeDecodeError:
        return ["binary bytes differ"]
    if [name for name, _, _ in a] != [name for name, _, _ in b]:
        return ["layout differs"]
    scale = {}
    for _, group, x in a:
        if NUMBER.fullmatch(x) and math.isfinite(float(x)):
            scale[group] = max(scale.get(group, 0.0), abs(float(x)))
    bad = []
    for (name, group, x), (_, _, y) in zip(a, b):
        if x == y:
            continue
        if group in columns:
            columns[group].append((x, y))
            continue
        numeric = NUMBER.fullmatch(x) and NUMBER.fullmatch(y) and rtol is not None
        if not (numeric and _numbers_close(x, y, rtol, scale.get(group, 0.0))):
            bad.append(f"{name}: {x!r} -> {y!r}")
    return bad


def _pgm_levels(old: bytes, new: bytes) -> str:
    """How the pixel levels of two 16-bit PGM files differ, or '' when they do not parse."""
    def pixels(data):
        header = data.split(b"\n", 3)
        if len(header) < 4 or header[0] != b"P5" or header[2] != b"65535":
            return None
        return header[1], header[3]

    a, b = pixels(old), pixels(new)
    if a is None or b is None or a[0] != b[0] or len(a[1]) != len(b[1]):
        return ""
    levels = [(int.from_bytes(a[1][k:k + 2], "big"), int.from_bytes(b[1][k:k + 2], "big"))
              for k in range(0, len(a[1]), 2)]
    flipped = [(k, x, y) for k, (x, y) in enumerate(levels) if x != y]
    return (f"{len(flipped)} of {len(levels)} pixel levels differ, by at most "
            f"{max(abs(x - y) for _, x, y in flipped)}; first at pixel {flipped[0][0]}")


def compare(old_dir: Path, new_dir: Path, rtol: float | None = None, out=sys.stdout,
            expect: list | None = None) -> int:
    """Compare two golden OUT_DIRs file by file; returns 0 when they agree.

    They agree when every change is within rtol (None: none) or named by
    an ``expect`` entry (a dict of ``runs``, ``files`` and optional
    ``columns``), and every entry and column matches some change.
    Prints every file and field that differs otherwise, with the old and
    the new value, what each entry matched, and counts runs (directories
    under ``runs``) that are byte-identical, within what is allowed, or
    beyond it.
    """
    expect = expect or []
    # per entry: the files it let change, and each column's (old, new) pairs
    matched = [([], {c: [] for c in entry.get("columns", [])}) for entry in expect]
    old_files = {p.relative_to(old_dir) for p in old_dir.rglob("*") if p.is_file()}
    new_files = {p.relative_to(new_dir) for p in new_dir.rglob("*") if p.is_file()}
    within, beyond = {}, {}
    for rel in sorted(old_files ^ new_files):
        print(f"{rel}: only in {'OLD' if rel in old_files else 'NEW'}", file=out)
        beyond.setdefault(_run_of(rel), []).append(rel)
    common = sorted(old_files & new_files)
    changed = {rel for rel in common
               if (old_dir / rel).read_bytes() != (new_dir / rel).read_bytes()}
    for rel in sorted(changed):
        old, new = (old_dir / rel).read_bytes(), (new_dir / rel).read_bytes()
        entries = [k for k, entry in enumerate(expect) if rel.parts[0] == "runs"
                   and fnmatch.fnmatchcase(_run_of(rel), entry["runs"])
                   and fnmatch.fnmatchcase(rel.name, entry["files"])]
        columns = {c: [] for k in entries for c in matched[k][1]}
        whole = [k for k in entries if not expect[k].get("columns")]
        if whole:
            bad = []
        elif rel.name in ("exit.txt", "stderr.txt", "stdout.txt") or rel.parts[0] == "configs":
            bad = ["bytes differ"]
        elif rel.suffix == ".pgm":
            bad = [_pgm_levels(old, new) or "bytes differ"]
        elif rel.name == "manifest.csv":
            bad = _compare_manifest(old, new, rel, changed)
        else:
            bad = _compare_text(old, new, rel, rtol, columns)
        for k in entries:
            if k in whole or any(columns[c] for c in matched[k][1]):
                matched[k][0].append(rel)
            for c in matched[k][1]:
                matched[k][1][c] += columns[c]
        for line in bad:
            print(f"{rel}: {line}", file=out)
        (beyond if bad else within).setdefault(_run_of(rel), []).append(rel)
    vacuous = _print_expected(expect, matched, out)
    runs = {_run_of(rel) for rel in old_files | new_files if rel.parts[0] == "runs"}
    identical = runs - within.keys() - beyond.keys()
    allowed = " or ".join(([] if rtol is None else [f"rtol {rtol:g}"]) + ["SPEC"] * bool(expect))
    print(f"byte-identical: {len(identical)} runs", file=out)
    print(f"within {allowed or 'nothing'}: {len(within.keys() - beyond.keys())} runs: "
          f"{' '.join(sorted(within.keys() - beyond.keys()))}", file=out)
    print(f"beyond rtol: {len(beyond)} runs: {' '.join(sorted(beyond))}", file=out)
    return 1 if beyond or vacuous else 0


def _print_expected(expect: list, matched: list, out) -> int:
    """Print what each SPEC entry matched; returns how many entries or columns matched nothing."""
    vacuous = 0
    for entry, (files, columns) in zip(expect, matched):
        runs = sorted({_run_of(rel) for rel in files})
        print(f"expect runs={entry['runs']} files={entry['files']}: {len(files)} files "
              f"changed in {len(runs)} runs", file=out)
        vacuous += not files
        for column, pairs in columns.items():
            numeric = [(abs(float(y) - float(x)), x, y) for x, y in pairs
                       if NUMBER.fullmatch(x) and NUMBER.fullmatch(y)
                       and math.isfinite(float(x) - float(y))]
            largest = ", largest {1} -> {2}".format(*max(numeric)) if numeric else ""
            print(f"  {column}: {len(pairs)} rows changed{largest}", file=out)
            vacuous += not pairs
    if vacuous:
        print(f"SPEC: {vacuous} entries or columns changed in no run", file=out)
    return vacuous


def _run_of(rel: Path) -> str:
    return rel.parts[1] if rel.parts[0] == "runs" and len(rel.parts) > 1 else rel.parts[0]


def _compare_manifest(old: bytes, new: bytes, rel: Path, changed: set) -> list[str]:
    """Rows of two manifests that differ, except hashes of files that changed within rtol.

    A file that changed beyond rtol is reported on its own line.
    """
    a = list(csv.reader(io.StringIO(old.decode(), newline="")))
    b = list(csv.reader(io.StringIO(new.decode(), newline="")))
    if [row[0] for row in a] != [row[0] for row in b]:
        return ["listed files differ"]
    return [f"hash of {x[0]} differs, the file does not" for x, y in zip(a, b)
            if x != y and rel.parent / x[0] not in changed]


def main(argv: list[str]) -> int:
    """Run the form of the usage that ``argv`` names; -h or --help prints the usage.

    Any other argument that starts with ``-`` outside its documented
    place prints the usage and returns 2, and runs nothing.
    """
    if {"-h", "--help"} & set(argv):
        print(__doc__)
        return 0
    options = dict(zip(argv[3::2], argv[4::2]))
    if argv[:1] == ["--compare"]:
        values = argv[1:3] + list(options.values())
        valid = len(argv) >= 3 and len(argv) % 2 and set(options) <= {"--rtol", "--expect"}
    else:
        values = argv[1:] if argv[:1] == ["--configs"] else argv
        valid = len(values) == 1
    if not valid or any(value.startswith("-") for value in values):
        print(__doc__, file=sys.stderr)
        return 2
    if argv[0] == "--compare":
        rtol = options.get("--rtol")
        spec = options.get("--expect")
        return compare(Path(argv[1]), Path(argv[2]), None if rtol is None else float(rtol),
                       expect=spec and yaml.safe_load(Path(spec).read_text()))
    if argv[0] == "--configs":
        write_configs(Path(argv[1]).resolve())
        return 0
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
