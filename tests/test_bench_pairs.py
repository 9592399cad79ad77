"""``tools/bench_pairs.py`` summarises parent/change pairs of benchmark runs."""

import importlib.util
import sys
from pathlib import Path

import yaml

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(campaign_s):
    return {"correct": True, "metrics": {"campaign_s": {"value": campaign_s, "unit": "s"}}}


def test_summary_counts_wins_ties_and_quartiles():
    tool = load_tool()
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 2.5, 4.5, 1.0]
    stats = tool.summary([{"parent": run(p), "change": run(c)} for p, c in zip(parent, change)])
    assert list(stats) == ["campaign_s"]
    s = stats["campaign_s"]
    assert (s["change_wins"], s["ties"], s["pairs"]) == (3, 1, 5)
    assert s["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert s["change"]["median"] == 2.0


def test_seed_range():
    tool = load_tool()
    assert tool.seed_range("1601-1603") == [1601, 1602, 1603]
    assert tool.seed_range("7") == [7]


def test_pairs_compiles_each_checkout_once_before_the_first_run(monkeypatch, tmp_path):
    tool = load_tool()
    events = []

    def fake_subprocess_run(args, cwd=None, **kwargs):
        events.append(("compile", Path(cwd), tuple(args[1:])))

    def fake_run_bench(checkout, workload, seed, seconds):
        events.append(("bench", checkout))
        return run(1.0)

    monkeypatch.setattr(tool.subprocess, "run", fake_subprocess_run)
    monkeypatch.setattr(tool, "run_bench", fake_run_bench)
    parent, change = tmp_path / "parent", tmp_path / "change"
    result = tool.pairs(parent, change, [1, 2], 1.0)
    compiles = [event for event in events if event[0] == "compile"]
    assert compiles == [("compile", parent, ("-m", "compileall", "-q", "src", "perfbench")),
                        ("compile", change, ("-m", "compileall", "-q", "src", "perfbench"))]
    assert events[:2] == compiles
    assert len(events) == 2 + 2 * 2 * len(tool.WORKLOADS)
    assert result["bytecode"] == "compileall before the first run"


def test_parallel_alternates_settings_and_checkouts(monkeypatch, tmp_path):
    tool = load_tool()
    runs = []

    def fake_subprocess_run(args, cwd=None, env=None, **kwargs):
        if "compileall" in args:
            runs.append(("compile", Path(cwd)))
            return
        cfg = yaml.safe_load(Path(args[args.index("--config") + 1]).read_text())
        assert args[1:4] == ["-m", "oamem.cli", "decay"]
        assert env["PYTHONPATH"] == str(Path(cwd) / "src")
        assert not [name for name in env if name.endswith("_THREADS")]
        runs.append((Path(cwd), cfg["grid"]["n"], cfg.get("source", {}).get("kind", "ideal"),
                     int(args[args.index("--parallel") + 1])))

    monkeypatch.setattr(tool.subprocess, "run", fake_subprocess_run)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    parent, change = tmp_path / "parent", tmp_path / "change"
    result = tool.parallel(parent, change, [512], 3)
    assert runs[:2] == [("compile", parent), ("compile", change)]
    ideal = [run for run in runs[2:] if run[2] == "ideal"]
    # pair 0: parent then change, serial first; pair 1 the other way round
    assert [(run[0], run[3]) for run in ideal[:8]] == [
        (parent, 1), (parent, 2), (change, 1), (change, 2),
        (change, 2), (change, 1), (parent, 2), (parent, 1)]
    assert len(runs) == 2 + 2 * 2 * 2 * 3
    assert {run[1] for run in runs[2:]} == {512}
    assert list(result) == ["bytecode", "ideal n=512", "hologram n=512"]
    side = result["hologram n=512"]["change"]
    assert len(side["serial_s"]) == len(side["parallel2_s"]) == side["pairs"] == 3
    assert set(side["serial"]) == set(side["parallel2_cpu"]) == {"median", "q1", "q3"}
    assert 0 <= side["parallel2_wins"] <= 3
    assert len(side["serial_cpu_s"]) == len(side["parallel2_cpu_s"]) == 3


def test_time_decay_counts_the_child_process_cpu(monkeypatch, tmp_path):
    tool = load_tool()
    # a child that burns CPU in a second thread as well as its main one
    burn = ("import threading, time\n"
            "def spin():\n"
            "    end = time.thread_time() + 0.1\n"
            "    while time.thread_time() < end: pass\n"
            "thread = threading.Thread(target=spin); thread.start(); spin(); thread.join()\n")
    real_run = tool.subprocess.run

    def fake_subprocess_run(args, **kwargs):
        return real_run([sys.executable, "-c", burn], check=True)

    monkeypatch.setattr(tool.subprocess, "run", fake_subprocess_run)
    wall, cpu = tool.time_decay(tmp_path, tmp_path / "cfg.yaml", tmp_path / "out", 1)
    assert cpu >= 0.2
    assert wall > 0


def test_points_times_each_workload_also_from_a_hologram(monkeypatch):
    # the timer runs for real on this checkout, as both sides, at a small n
    tool = load_tool()
    monkeypatch.setattr(tool, "compile_checkouts", lambda *checkouts: None)
    result = tool.points(TOOL.parents[1], TOOL.parents[1], [128])
    names = [f"{workload}{source} n=128" for workload in tool.WORKLOADS
             for source in ("", " hologram")]
    assert sorted(result) == sorted(["bytecode", *names])
    for name in names:
        times = len(tool.WORKLOADS[name.split()[0]](1)[1]["storage_times"]) - 1
        for side in ("parent", "change"):
            assert len(result[name][side]) == times
            assert all(t > 0 for t in result[name][side])
