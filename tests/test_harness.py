import concurrent.futures
import csv
import hashlib
import json
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from oracles import dense_amplitudes, reconstructed_fidelities

import oamem
from oamem.cli import SUBCOMMANDS
from oamem.cli import main as cli_main
from oamem.config import EXPERIMENT_KINDS, parse_config, serialize_config
from oamem.decoherence import (_larmor_map, _phase_terms, decohere, diffuse,
                               longitudinal_drift_factor, magnetic_dephase)
from oamem.errors import ConfigError, NoCounts, NonFiniteField
from oamem.fieldgrid import BLOCK_ROWS, Separable
from oamem.harness import (RUNNERS, _channels, _input_field, _retrieve, _store, _transfer,
                           run_bounds_table, run_field_render, run_interference_scan,
                           run_meridian_sweep, run_storage_decay, run_tomography, storage_point)
from oamem.holography import focal_basis_phases, project_and_couple
from oamem.measurement import simulate_counts
from oamem.modes import QuditState, decompose, synthesize
from oamem.polariton import read, write
from oamem.tomography import PROJECTION_SETS, fidelity, reconstruct

SRC = str(Path(oamem.__file__).resolve().parents[1])
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

QUTRIT = {"dim": 3, "l": 1, "waist": 250e-6,
          "coeffs": [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]}
QUBIT = {"dim": 2, "l": 2, "waist": 250e-6, "gamma": np.pi / 2, "beta": 0.0}
# magnetically sensitive coherence in an off-axis ambient quadrupole
SENSITIVE = {"decoherence": {"diffusion": True, "magnetic": True},
             "magnetic": {"trap_gradient": 0.1, "ambient_fraction": 0.05,
                          "guiding_b": 0.0, "sensitivity": 4.4e10,
                          "center": [3e-4, 4e-4]}}
README_GRID = {"n": 256, "extent": 3.2e-3}


def small_cfg(**overrides):
    data = {
        "seed": 1234,
        "grid": {"n": 64, "extent": 3.2e-3},
        "qudit": dict(QUTRIT),
        "storage_times": [0.0, 2e-4],
        "counting": {"pulses": 20000, "poisson": True},
    }
    data.update(overrides)
    return parse_config(data)


def readout(cfg, wave, t_s):
    """The field read out of ``wave`` after t_s of the configured channels, as it is held."""
    return read(decohere(wave, t_s, *_channels(cfg)))


def mesh_readout(cfg, wave, t_s):
    """:func:`readout` with the Larmor phase taken pixel by pixel on the whole mesh."""
    diffusion, magnetic = _channels(cfg)
    blurred = decohere(wave, t_s, diffusion)
    if magnetic is None or t_s == 0.0:
        return read(blurred)
    phase = np.exp(1j * magnetic.angular_shift(*wave.grid.mesh()) * t_s)
    return read(blurred.with_values(blurred.values * phase))


def assert_close(got, want, rtol=1e-12):
    assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


def read_all_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestDeterminism:
    def test_decay_byte_identical(self, tmp_path):
        cfg = small_cfg()
        run_storage_decay(cfg, out=tmp_path / "a")
        run_storage_decay(cfg, out=tmp_path / "b")
        assert read_all_bytes(tmp_path / "a") == read_all_bytes(tmp_path / "b")

    def test_parallel_matches_serial(self, tmp_path):
        cfg = small_cfg()
        run_storage_decay(cfg, out=tmp_path / "serial", parallel=1)
        run_storage_decay(cfg, out=tmp_path / "par", parallel=2)
        assert read_all_bytes(tmp_path / "serial") == read_all_bytes(tmp_path / "par")

    def test_seed_changes_output(self, tmp_path):
        run_storage_decay(small_cfg(), out=tmp_path / "a")
        run_storage_decay(small_cfg(seed=999), out=tmp_path / "b")
        assert (tmp_path / "a" / "decay.csv").read_bytes() \
            != (tmp_path / "b" / "decay.csv").read_bytes()

    def test_manifest_lists_every_file(self, tmp_path):
        for kind, run in RUNNERS.items():
            qudit = QUBIT if kind in ("interference_scan", "meridian_sweep") else QUTRIT
            out = tmp_path / kind
            run(small_cfg(storage_times=[0.0], qudit=qudit), out=out)
            with open(out / "manifest.csv", newline="") as fh:
                listed = {row["path"]: row["sha256"] for row in csv.DictReader(fh)}
            on_disk = {p.name for p in out.iterdir()} - {"manifest.csv"}
            assert set(listed) == on_disk, kind
            # each hash is hashlib's sha256 of the file's bytes
            assert listed == {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                              for name in on_disk}, kind


class TestWorkerCap:
    """The pool never gets more threads than there are points or CPUs."""

    @pytest.mark.parametrize("cpus, workers", [(64, [2]), (1, []), (None, [])],
                             ids=["many-cpus", "one-cpu", "unknown-cpus"])
    def test_pool_never_outgrows_points_or_cpus(self, monkeypatch, tmp_path, cpus, workers):
        import oamem.harness as harness

        created = []

        class RecordingPool:
            """Records max_workers and maps in this thread, so no thread starts."""

            def __init__(self, max_workers):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        cfg = small_cfg()
        pooled = run_storage_decay(cfg, out=tmp_path / "p", parallel=10 ** 6)
        assert created == workers
        assert pooled.summary == run_storage_decay(cfg, out=tmp_path / "s").summary


# the hygiene tests count this process's threads in /proc/self/task
NEEDS_PROC = pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")


def run_fresh(script: str, *args: str, **env: str) -> str:
    """Stdout of ``script`` in a fresh interpreter with no ``*_THREADS`` variable but ``env``.

    perfbench/run.py runs its campaigns without them (its thread
    variables all end in _THREADS), so that OpenBLAS chooses by itself.
    """
    base = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env={**base, "PYTHONPATH": SRC, **env},
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


class TestBlasThreads:
    # the seed-1 decay workload, run as the benchmark runs it; prints the
    # CPU seconds of threads other than this one from before `import oamem`
    # to the end of the campaign, so an OpenBLAS pool that spins after
    # numpy starts it (about 0.13 s of CPU on a 2-vCPU VM) counts too
    SCRIPT = """
import sys, tempfile, time
other = lambda: time.process_time() - time.thread_time()
start = other()
import oamem
sys.path.insert(0, sys.argv[1])
from workloads import WORKLOADS
from oamem.config import parse_config
from oamem.harness import run_storage_decay
cfg = parse_config(WORKLOADS["decay_qutrit_n512"](1)[1])
with tempfile.TemporaryDirectory() as out:
    run_storage_decay(cfg, out=out)
print(other() - start)
"""
    # prints the threads of this process and whether os.environ is as it
    # was before the imports, after importing oamem, numpy first on "numpy"
    HYGIENE = """
import json, os, sys
before = dict(os.environ)
if sys.argv[1:] == ["numpy"]:
    import numpy
threads = len(os.listdir("/proc/self/task"))
import oamem
print(json.dumps({"threads_before": threads, "threads": len(os.listdir("/proc/self/task")),
                  "environ_kept": dict(os.environ) == before,
                  "openblas": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""

    def hygiene(self, *args, **env):
        return json.loads(run_fresh(self.HYGIENE, *args, **env))

    def test_decay_workload_wakes_no_blas_thread(self):
        # oamem loads numpy with a one-thread BLAS, and every contraction
        # on a campaign's path is an einsum without optimize, which runs in
        # the calling thread
        assert float(run_fresh(self.SCRIPT, str(PERFBENCH))) < 2e-3

    @NEEDS_PROC
    def test_import_starts_no_blas_pool_and_leaves_no_variable(self):
        seen = self.hygiene()
        assert seen["threads"] == 1
        assert seen["environ_kept"] and seen["openblas"] is None

    @NEEDS_PROC
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS starts no pool on one CPU")
    def test_user_blas_thread_count_wins(self):
        seen = self.hygiene(OPENBLAS_NUM_THREADS="2")
        assert seen["environ_kept"] and seen["openblas"] == "2"
        assert seen["threads"] >= 2

    @NEEDS_PROC
    def test_numpy_imported_first_is_left_as_it_is(self):
        # numpy chose its threads before oamem was imported: oamem changes
        # neither them nor the environment
        seen = self.hygiene("numpy")
        assert seen["environ_kept"] and seen["openblas"] is None
        assert seen["threads"] == seen["threads_before"]


class TestImportContract:
    # a fresh interpreter records its modules before importing oamem, runs
    # the noiseless campaigns through the CLI and prints which of WATCHED
    # they newly loaded, then a Poisson tomo and prints them again;
    # comparing with the start set lets a site hook load any of them first
    SCRIPT = """
import sys
before = set(sys.modules)
from oamem import cli
WATCHED = ("_hashlib", "hmac", "secrets", "numpy.random", "concurrent.futures", "numpy.fft")
noiseless, poisson, out = sys.argv[1:]
for command in ("decay", "bounds", "render"):
    assert cli.main([command, "--config", noiseless, "--out", f"{out}/{command}"]) == 0
print("new:", *(m for m in WATCHED if m in sys.modules and m not in before))
assert cli.main(["tomo", "--config", poisson, "--out", f"{out}/tomo"]) == 0
print("new:", *(m for m in WATCHED if m in sys.modules and m not in before))
"""

    def test_noiseless_campaigns_load_no_openssl_rng_or_pool(self, tmp_path):
        # noiseless counting draws nothing and hashes with CPython's
        # built-in sha256, and Poisson counting draws from oamem.rng, so no
        # campaign maps OpenSSL (hashlib's _hashlib, which numpy.random
        # would load through secrets and hmac), numpy.random or the thread
        # pool's module
        configs = {}
        for name, counting in [("noiseless", {"poisson": False}),
                               ("poisson", {"pulses": 20000, "poisson": True})]:
            configs[name] = tmp_path / f"{name}.yaml"
            configs[name].write_text(yaml.safe_dump({
                "seed": 1234, "grid": {"n": 64, "extent": 3.2e-3}, "qudit": QUTRIT,
                "storage_times": [0.0, 1e-5], "counting": counting, **SENSITIVE}))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(configs["noiseless"]),
             str(configs["poisson"]), str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
            timeout=120, check=True)
        noiseless, poisson = [line.split()[1:] for line in proc.stdout.splitlines()
                              if line.startswith("new:")]
        # the probe sees a module that a campaign loads: numpy.fft, which
        # the first blur loads lazily
        assert noiseless == poisson == ["numpy.fft"]


class TestWorkerInput:
    def test_workers_get_the_wave_once_and_run_no_forward_fft(self, monkeypatch, tmp_path):
        # the threads share the one stored wave, and jobs carry only
        # (index, t); the wave holds its mode factors, whose K x n rows are
        # all a point transforms: no forward fft of an n x n array, only
        # one of each axis's factors per point with t > 0, on a pool thread
        import oamem.harness as harness

        jobs_seen, forward = [], []

        class CountingPool(concurrent.futures.ThreadPoolExecutor):
            """A real thread pool that records its jobs and counts forward ffts."""

            def map(self, fn, jobs):
                fft = np.fft.fft

                def counted(*args, **kwargs):
                    forward.append((np.shape(args[0]), threading.current_thread()))
                    return fft(*args, **kwargs)

                monkeypatch.setattr(np.fft, "fft", counted)
                jobs_seen.extend(jobs)
                return super().map(fn, jobs_seen)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        cfg = small_cfg(storage_times=[0.0, 1e-5, 2e-5], **SENSITIVE)
        pooled = run_storage_decay(cfg, out=tmp_path / "p", parallel=2)
        assert jobs_seen == list(enumerate(cfg.storage_times))
        assert [shape for shape, _ in forward] == [(cfg.qudit.l + 1, cfg.grid.n)] * 2 * 2
        assert threading.main_thread() not in {thread for _, thread in forward}
        assert pooled.summary == run_storage_decay(cfg, out=tmp_path / "s").summary

    def test_ideal_wave_ships_without_a_spectrum(self):
        # the pickled config and stored wave carry no n x n array: the wave
        # is its K x n factors, with no samples and no cached spectrum
        cfg = small_cfg(grid=README_GRID, **SENSITIVE)
        stored = _store(cfg)
        wave = stored[1]
        assert "spectrum" not in vars(wave) and "values" not in vars(wave)
        assert len(pickle.dumps((cfg, stored))) < cfg.grid.n ** 2


class TestStream:
    """A storage point streams the decohered wave into the projection in row blocks."""

    CHANNELS = {
        "none": {"decoherence": {"diffusion": False}},
        "diffusion": {"decoherence": {"diffusion": True}},
        "magnetic": {"decoherence": {"diffusion": False, "magnetic": True},
                     "magnetic": SENSITIVE["magnetic"]},
        "both": SENSITIVE,
        "both+drift": {"decoherence": {"diffusion": True, "magnetic": True,
                                       "longitudinal_drift": True},
                       "magnetic": SENSITIVE["magnetic"], "memory": {"alpha": 0.1}},
    }

    @pytest.mark.parametrize("channels", list(CHANNELS))
    @pytest.mark.parametrize("n", [32, 256], ids=["one-short-block", "four-blocks"])
    @pytest.mark.parametrize("kind", ["ideal", "hologram"])
    def test_equals_projecting_the_decohered_field(self, kind, n, channels):
        # bit for bit on a hologram's wave; an ideal wave is projected from
        # its factors, so it agrees to rounding with the stacked field, and
        # under the Larmor phase with the phase taken pixel by pixel
        source = dict(HOLOGRAM) if kind == "hologram" else {"kind": kind}
        cfg = small_cfg(grid=dict(README_GRID, n=n), counting={"poisson": False},
                        source=source, **self.CHANNELS[channels])
        wave = _store(cfg)[1]
        for t_s in (0.0, 2e-5, 2e-4):
            got = _retrieve(cfg, wave, t_s)
            if kind == "ideal" and cfg.decoherence.magnetic:
                assert_close(got, dense_amplitudes(cfg, mesh_readout(cfg, wave, t_s), t_s))
            elif kind == "ideal":
                assert_close(got, dense_amplitudes(cfg, readout(cfg, wave, t_s), t_s))
            else:
                assert np.array_equal(got, dense_amplitudes(cfg, readout(cfg, wave, t_s), t_s))

    @pytest.mark.parametrize("qudit", [QUBIT, QUTRIT], ids=["qubit", "qutrit"])
    @pytest.mark.parametrize("t_s", [5e-5, 2e-4, 1e-3])
    def test_low_rank_phase_matches_the_mesh_phase(self, qudit, t_s):
        # an ideal wave under a low-rank Larmor phase is projected from its
        # factors; complex coefficients make the wave complex
        qudit = dict(qudit, coeffs=[[1.0, 0.0], [0.0, 1.0], [0.6, -0.3]][:qudit["dim"]])
        qudit.pop("gamma", None), qudit.pop("beta", None)
        cfg = small_cfg(grid=README_GRID, counting={"poisson": False}, qudit=qudit,
                        decoherence={"diffusion": True, "magnetic": True},
                        magnetic={"guiding_b": 2e-5, "sensitivity": 5e9, "center": [3e-4, 4e-4]})
        wave = _store(cfg)[1]
        assert _phase_terms(cfg.magnetic, wave.grid, t_s) is not None
        assert_close(_retrieve(cfg, wave, t_s),
                     dense_amplitudes(cfg, mesh_readout(cfg, wave, t_s), t_s))

    @pytest.mark.parametrize("kind", ["hologram"], ids=["sampled"])
    def test_phase_multiplies_each_block_from_the_right(self, kind):
        # numpy's complex product is not bitwise commutative, so the Larmor
        # phase must keep the operand order block * rot
        source = dict(HOLOGRAM) if kind == "hologram" else {"kind": kind}
        qudit = dict(QUTRIT, coeffs=[[1.0, 0.0], [0.0, 1.0], [0.6, -0.3]])
        cfg = small_cfg(grid=README_GRID, counting={"poisson": False}, source=source,
                        qudit=qudit, **self.CHANNELS["magnetic"])
        wave = _store(cfg)[1]
        t_s = 2e-4
        phase = _larmor_map(cfg.magnetic, wave.grid) * t_s
        rot = np.cos(phase) + 1j * np.sin(phase)
        blocks = decohere(wave, t_s, magnetic=cfg.magnetic).row_blocks()
        for start, (block, got) in zip(range(0, wave.grid.n, BLOCK_ROWS),
                                       zip(wave.row_blocks(), blocks)):
            want = np.multiply(block, rot[start:start + BLOCK_ROWS])
            assert np.array_equal(got.view(np.float64), want.view(np.float64))

    def test_non_finite_amplitudes_raise(self):
        cfg = small_cfg(grid=README_GRID, decoherence={"diffusion": False})
        wave = _store(cfg)[1]
        huge = wave.with_values(np.full(wave.values.shape, np.finfo(np.float64).max))
        with pytest.raises(NonFiniteField, match="retrieved mode amplitudes"):
            _retrieve(cfg, huge, 0.0)

    def test_storage_point_peaks_below_one_field_array(self):
        # with both channels on and no low-rank phase, a point streams the
        # dense phase and holds a block of rows at a time, about 10.5 n^2
        # bytes; the first point builds the per-campaign Larmor map
        cfg = small_cfg(grid=README_GRID, storage_times=[5e-4, 1e-3],
                        counting={"poisson": False}, **SENSITIVE)
        for t_s in cfg.storage_times:
            assert _phase_terms(cfg.magnetic, cfg.grid, t_s) is None
        stored = _store(cfg)
        storage_point(cfg, stored, 0, 5e-4)
        tracemalloc.start()
        try:
            storage_point(cfg, stored, 1, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cfg.grid.n ** 2 * np.dtype(np.complex128).itemsize

    @staticmethod
    def campaign_peak(cfg):
        """tracemalloc peak of storing once and running every point, after a warm-up point."""
        storage_point(cfg, _store(cfg), 1, cfg.storage_times[1])
        tracemalloc.start()
        try:
            stored = _store(cfg)
            for point in enumerate(cfg.storage_times):
                storage_point(cfg, stored, *point)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_ideal_campaign_peaks_below_one_field_array(self):
        # the field and the spin wave are their factors, the diffraction check
        # reads only the config, and every point streams blocks of rows; the
        # cone's phase takes 28 terms here, and its phased rows and terms set
        # the peak, about 13.4 n^2 bytes, below 14 n^2 bytes (a field array is
        # 16 n^2)
        cfg = small_cfg(grid=README_GRID, storage_times=[0.0, 1e-5, 2e-5], **SENSITIVE)
        assert self.campaign_peak(cfg) < 14 * cfg.grid.n ** 2

    @pytest.mark.parametrize("runner", [run_storage_decay, run_tomography],
                             ids=["decay", "tomo"])
    def test_workload_like_campaign_builds_no_larmor_map(self, monkeypatch, tmp_path, runner):
        # a guided field and an off-axis quadrupole, as in the benchmark: every
        # point's phase has low rank, so no n x n Larmor map is built, and a
        # campaign peaks below 10 n^2 bytes (about 9.4 n^2, at the point of
        # t = 1.45 ms, where the phase certificate's probe residuals take
        # about 3 n^2; storing takes about 0.4 n^2, since the diffraction
        # check reads only the config); the map alone took 8 n^2 bytes more
        import oamem.decoherence as decoherence

        def refuse(*args):
            raise AssertionError("an ideal campaign built the n x n Larmor map")

        monkeypatch.setattr(decoherence, "_larmor_map", refuse)
        cfg = small_cfg(grid=README_GRID, counting={"poisson": False},
                        storage_times=[0.0, 3e-4, 6e-4, 9e-4, 1.45e-3],
                        decoherence={"diffusion": True, "magnetic": True,
                                     "longitudinal_drift": True},
                        magnetic={"guiding_b": 2e-5, "sensitivity": 5.3e9,
                                  "center": [3.3e-4, 3.7e-4]}, memory={"alpha": 0.02})
        runner(cfg, out=tmp_path / "out")
        assert self.campaign_peak(cfg) < 10 * cfg.grid.n ** 2

    def test_phase_certificate_evaluates_few_lines(self, monkeypatch, tmp_path):
        # a five-point decay evaluates dOmega on the 2-D probe lines in two calls,
        # once per (model, grid), and each storage time on at most 2 R + 2
        # single rows or columns for its R terms, plus two per restart, where a
        # certificate on the probe lines fails
        import oamem.decoherence as decoherence

        calls, points = [], []
        shift, terms = decoherence.MagneticModel.angular_shift, decoherence._phase_terms
        certify = decoherence._worst_probe_entry

        def spy_shift(self, x, y):
            calls.append(np.broadcast(x, y).ndim)
            if points:
                points[-1]["lines"] += np.broadcast(x, y).ndim == 1
            return shift(self, x, y)

        def spy_terms(*args):
            points.append({"lines": 0, "certificates": 0})
            uv = terms(*args)
            points[-1]["rank"] = len(uv[0])
            return uv

        def spy_certify(*args):
            points[-1]["certificates"] += 1
            return certify(*args)

        monkeypatch.setattr(decoherence.MagneticModel, "angular_shift", spy_shift)
        monkeypatch.setattr(decoherence, "_phase_terms", spy_terms)
        monkeypatch.setattr(decoherence, "_worst_probe_entry", spy_certify)
        decoherence._probe_shift.cache_clear()
        terms.cache_clear()
        cfg = small_cfg(grid=README_GRID, counting={"poisson": False},
                        storage_times=[0.0, 3e-4, 6e-4, 9e-4, 1.45e-3],
                        decoherence={"diffusion": True, "magnetic": True},
                        magnetic={"guiding_b": 2e-5, "sensitivity": 5.3e9,
                                  "center": [3.3e-4, 3.7e-4]})
        run_storage_decay(cfg, out=tmp_path / "out")
        assert calls.count(2) == 2 and set(calls) == {1, 2}
        assert len(points) == 4
        for point in points:
            restarts = point["certificates"] - 1
            assert point["certificates"] >= 1
            assert point["lines"] <= 2 * point["rank"] + 2 + 2 * restarts, point
        # a second campaign on the same model and grid makes no 2-D call
        run_storage_decay(cfg, out=tmp_path / "again")
        assert calls.count(2) == 2

    @pytest.mark.parametrize("kind", ["ideal", "hologram"])
    def test_only_a_factored_wave_asks_for_phase_terms(self, monkeypatch, tmp_path, kind):
        # decohere alone chooses the phase's path: in a campaign, an ideal
        # source's factored wave asks for the low-rank terms once per storage
        # time past 0, and a hologram's sampled far field never asks
        import oamem.decoherence as decoherence

        calls, terms = [], decoherence._phase_terms

        def spy(mdl, grid, t_s):
            calls.append(t_s)
            return terms(mdl, grid, t_s)

        monkeypatch.setattr(decoherence, "_phase_terms", spy)
        cfg = small_cfg(grid=README_GRID, counting={"poisson": False},
                        source=dict(HOLOGRAM) if kind == "hologram" else {"kind": "ideal"},
                        storage_times=[0.0, 3e-4, 6e-4, 9e-4],
                        decoherence={"diffusion": True, "magnetic": True},
                        magnetic={"guiding_b": 2e-5, "sensitivity": 5.3e9,
                                  "center": [3.3e-4, 3.7e-4]})
        run_storage_decay(cfg, out=tmp_path / "out")
        assert calls == ([] if kind == "hologram" else list(cfg.storage_times[1:]))

    @pytest.mark.parametrize("runner, qudit", [
        (run_storage_decay, QUTRIT), (run_tomography, QUTRIT),
        (run_interference_scan, QUBIT), (run_meridian_sweep, QUBIT)],
        ids=["decay", "tomo", "scan", "meridian"])
    def test_ideal_campaign_builds_no_field_array(self, monkeypatch, tmp_path, runner, qudit):
        # a guided field, as in the benchmark, whose phase has low rank at
        # every point: every projection, t = 0 included, reads the factors
        # alone, and no n x n array and no block of rows is built from them
        def refuse(self, *args):
            raise AssertionError("a campaign built n x n values from the factors")

        monkeypatch.setattr(Separable, "row_blocks", refuse)
        cfg = small_cfg(qudit=dict(qudit), storage_times=[0.0, 1e-5, 2e-4],
                        decoherence={"diffusion": True, "magnetic": True,
                                     "longitudinal_drift": True},
                        magnetic={"guiding_b": 2e-5, "sensitivity": 5.3e9,
                                  "center": [3.3e-4, 3.7e-4]}, memory={"alpha": 0.1})
        runner(cfg, out=tmp_path / "out")

    @pytest.mark.parametrize("runner", [run_storage_decay, run_tomography],
                             ids=["decay", "tomo"])
    def test_dense_phase_builds_no_field_array(self, monkeypatch, tmp_path, runner):
        # the cone's phase has no low rank at n = 64, so each point with
        # t > 0 streams the factors' row blocks through the dense phase, and
        # still no n x n array is stacked from any row blocks
        import oamem.fieldgrid as fieldgrid

        def refuse(*args):
            raise AssertionError("a campaign stacked an n x n array from row blocks")

        monkeypatch.setattr(fieldgrid, "stack_rows", refuse)
        cfg = small_cfg(storage_times=[0.0, 1e-5, 2e-5],
                        decoherence={"diffusion": True, "magnetic": True,
                                     "longitudinal_drift": True},
                        magnetic=SENSITIVE["magnetic"], memory={"alpha": 0.1})
        assert _phase_terms(cfg.magnetic, cfg.grid, 1e-5) is None
        runner(cfg, out=tmp_path / "out")


class TestPipelineComposition:
    def test_storage_point_equals_manual_chain(self):
        cfg = small_cfg()
        t_index, t_s = 1, cfg.storage_times[1]
        got = storage_point(cfg, _store(cfg), t_index, t_s)

        state = cfg.qudit.to_state()
        field = synthesize(state, cfg.qudit.waist, cfg.grid, cfg.memory.lambda_s)
        wave = diffuse(write(field, cfg.memory), cfg.memory, t_s)
        out = read(wave)
        a = decompose(out, state.l, state.dim, cfg.qudit.waist)
        eta = cfg.efficiency.to_model()(t_s)
        pset = PROJECTION_SETS[3]
        records = []
        for b_index, (label, psi) in enumerate(pset.projectors):
            amp = np.vdot(psi, a)
            seed = int(np.random.SeedSequence(
                entropy=cfg.seed, spawn_key=(t_index, b_index)).generate_state(1)[0])
            records.append(simulate_counts(min(abs(amp) ** 2, 1.0), cfg.photon.n_bar,
                                           eta, cfg.counting.pulses, 0.0, seed,
                                           basis_id=label))
        rho = reconstruct(records, pset)
        f_abs = fidelity(rho, state.coeffs)
        assert [r.counts for r in records] == [r.counts for r in got["records"]]
        assert got["f_abs"] == f_abs
        assert got["eta"] == eta

    @pytest.mark.parametrize("kind", ["ideal", "hologram"])
    def test_readout_sign_on_amplitudes_is_exact(self, kind):
        # streaming the decohered spin wave into the projection gives the
        # amplitudes of the whole read-out field, bit for bit; an ideal wave
        # is projected from its factors, so it agrees to rounding with the
        # read-out field, and under the low-rank phase with the phase taken
        # pixel by pixel
        cfg = small_cfg(grid=README_GRID, counting={"poisson": False},
                        source={"kind": kind, "input_waist": 5.0e-4, "focal": 0.5}, **SENSITIVE)
        wave = _store(cfg)[1]
        for t_s in (0.0, 2e-5):
            got = _retrieve(cfg, wave, t_s)
            if kind == "ideal" and t_s > 0.0:
                assert_close(got, dense_amplitudes(cfg, mesh_readout(cfg, wave, t_s), t_s))
            elif kind == "ideal":
                assert_close(got, dense_amplitudes(cfg, readout(cfg, wave, t_s), t_s))
            else:
                assert np.array_equal(got, dense_amplitudes(cfg, readout(cfg, wave, t_s), t_s))

    @pytest.mark.parametrize("qudit", [QUBIT, QUTRIT], ids=["qubit", "qutrit"])
    def test_linear_projection_matches_project_and_couple(self, qudit):
        # psi^H a of the projected field against the synthesized-projector overlap, on a
        # field decohered by diffusion and magnetic dephasing
        cfg = small_cfg(qudit=dict(qudit), grid={"n": 128, "extent": 3.2e-3}, **SENSITIVE)
        field = readout(cfg, _store(cfg)[1], 2e-5)
        a = dense_amplitudes(cfg, field)
        state = cfg.qudit.to_state()
        pset = PROJECTION_SETS[state.dim]
        for _, psi in pset.projectors:
            ref = project_and_couple(field, QuditState(psi, l=state.l), cfg.qudit.waist)
            assert abs(np.vdot(psi, a) - ref) <= 1e-12 * abs(ref)


# every channel on, strong enough that the fidelities fall well below 1
ALL_CHANNELS = {"decoherence": {"diffusion": True, "magnetic": True, "longitudinal_drift": True},
                "magnetic": SENSITIVE["magnetic"], "memory": {"alpha": 0.05},
                "storage_times": [0.0, 1e-5, 2e-5, 4e-5]}
SOURCES = [(QUBIT, "ideal"), (QUBIT, "hologram"), (QUTRIT, "ideal"), (QUTRIT, "hologram")]
SOURCE_IDS = ["qubit-ideal", "qubit-hologram", "qutrit-ideal", "qutrit-hologram"]
# np.linalg's LAPACK-backed functions
LAPACK = ("eigh", "eigvalsh", "eig", "eigvals", "pinv", "svd", "matrix_rank", "lstsq", "solve",
          "inv", "qr", "det")


def all_channels_cfg(qudit, kind, poisson=False):
    source = ({"kind": "hologram", "input_waist": 5.0e-4, "focal": 0.5} if kind == "hologram"
              else {"kind": "ideal"})
    return small_cfg(grid=README_GRID, qudit=dict(qudit), source=source,
                     counting={"poisson": poisson}, **ALL_CHANNELS)


class TestNoiselessFidelity:
    """Noiseless counting takes f_abs and f_rel from the retrieved amplitudes."""

    @pytest.mark.parametrize("qudit, kind", SOURCES, ids=SOURCE_IDS)
    def test_noiseless_decay_counts_and_reconstructs_nothing(self, monkeypatch, tmp_path,
                                                             qudit, kind):
        import oamem.harness as harness
        import oamem.tomography as tomography

        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"a noiseless decay called {name}")
            return call

        for name in LAPACK:
            monkeypatch.setattr(np.linalg, name, refuse(f"np.linalg.{name}"))
        for module in (harness, tomography):
            monkeypatch.setattr(module, "reconstruct", refuse("reconstruct"))
        monkeypatch.setattr(harness, "CountRecord", refuse("CountRecord"))
        monkeypatch.setattr(harness, "simulate_counts", refuse("simulate_counts"))
        monkeypatch.setattr(tomography, "DensityMatrix", refuse("DensityMatrix"))
        cfg = all_channels_cfg(qudit, kind)
        res = run_storage_decay(cfg, out=tmp_path / "d")
        assert [row[0] for row in res.summary] == list(cfg.storage_times)

    @pytest.mark.parametrize("kind", ["ideal", "hologram"])
    def test_poisson_decay_reconstructs_once_per_storage_time(self, monkeypatch, tmp_path,
                                                              kind):
        import oamem.harness as harness

        calls = []

        def spy(records, pset, *args, **kwargs):
            calls.append(pset.dim)
            return reconstruct(records, pset, *args, **kwargs)

        monkeypatch.setattr(harness, "reconstruct", spy)
        cfg = all_channels_cfg(QUTRIT, kind, poisson=True)
        run_storage_decay(cfg, out=tmp_path / "d")
        assert calls == [3] * len(cfg.storage_times)

    @pytest.mark.parametrize("qudit, kind", SOURCES, ids=SOURCE_IDS)
    def test_overlaps_equal_the_reconstructed_fidelities(self, qudit, kind):
        cfg = all_channels_cfg(qudit, kind)
        stored = _store(cfg)
        reference, wave = stored
        for point in enumerate(cfg.storage_times):
            got = storage_point(cfg, stored, *point)
            a = reference if point[1] == 0.0 else _retrieve(cfg, wave, point[1])
            f_abs, f_rel = reconstructed_fidelities(cfg, a, reference)
            assert abs(got["f_abs"] - f_abs) <= 1e-14
            assert abs(got["f_rel"] - f_rel) <= 1e-14
            assert "records" not in got and "rho" not in got

    @pytest.mark.parametrize("poisson", [False, True], ids=["noiseless", "poisson"])
    @pytest.mark.parametrize("keep_records", [False, True], ids=["decay", "tomo"])
    def test_zero_amplitudes_raise_no_counts(self, monkeypatch, poisson, keep_records):
        import oamem.harness as harness

        monkeypatch.setattr(harness, "_retrieve",
                            lambda cfg, wave, t_s: np.zeros(cfg.qudit.dim, dtype=complex))
        cfg = small_cfg(counting={"poisson": poisson})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stored = _store(cfg)
            for point in enumerate(cfg.storage_times):
                with pytest.raises(NoCounts, match="^pole-basis reference counts are zero$"):
                    storage_point(cfg, stored, *point, keep_records)

    @pytest.mark.parametrize("poisson", [False, True], ids=["noiseless", "poisson"])
    def test_zero_amplitudes_exit_3(self, monkeypatch, tmp_path, capsys, poisson):
        import oamem.harness as harness

        monkeypatch.setattr(harness, "_retrieve",
                            lambda cfg, wave, t_s: np.zeros(cfg.qudit.dim, dtype=complex))
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({**README_CONFIG, "grid": SMALL_GRID,
                                        "counting": {"poisson": poisson}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["decay", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == \
            "numerical failure: pole-basis reference counts are zero\n"


class TestNoLapack:
    """No subcommand calls LAPACK: the tomography design, its physical
    projection and the scan's fit solve through ``oamem._jacobi``."""

    @pytest.fixture(autouse=True)
    def refuse_lapack(self, monkeypatch):
        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"a campaign called {name}")
            return call

        for name in LAPACK:
            monkeypatch.setattr(np.linalg, name, refuse(f"np.linalg.{name}"))
        # each shared projection set caches its design: build it again under the refusal
        for pset in PROJECTION_SETS.values():
            monkeypatch.delitem(vars(pset), "design", raising=False)

    @pytest.mark.parametrize("qudit, kind", SOURCES, ids=SOURCE_IDS)
    @pytest.mark.parametrize("runner", [run_storage_decay, run_tomography],
                             ids=["decay", "tomo"])
    def test_poisson_campaigns(self, tmp_path, runner, qudit, kind):
        cfg = all_channels_cfg(qudit, kind, poisson=True)
        res = runner(cfg, out=tmp_path / "o")
        assert [row[0] for row in res.summary] == list(cfg.storage_times)

    @pytest.mark.parametrize("runner, kind", [(run_interference_scan, "ideal"),
                                              (run_interference_scan, "hologram"),
                                              (run_meridian_sweep, "ideal"),
                                              (run_bounds_table, "ideal"),
                                              (run_field_render, "ideal")],
                             ids=["scan-ideal", "scan-hologram", "meridian", "bounds", "render"])
    def test_qubit_campaigns(self, tmp_path, runner, kind):
        cfg = all_channels_cfg(QUBIT, kind, poisson=True)
        assert runner(cfg, out=tmp_path / "o").files


class TestCallCounts:
    def test_decay_stores_once_and_projects_without_modes(self, monkeypatch, tmp_path):
        # the t-invariant work runs once per campaign, and neither the input
        # field nor the projection samples a single mode
        import oamem.harness as harness
        import oamem.modes as modes
        import oamem.polariton as polariton

        calls = []

        def count(func, *modules):
            def wrapper(*args, **kwargs):
                calls.append((func.__name__, args))
                return func(*args, **kwargs)
            for module in modules:
                monkeypatch.setattr(module, func.__name__, wrapper)

        count(polariton.write, polariton, harness)
        count(polariton.diffraction_check, polariton, harness)
        count(modes.lg_field, modes, harness)
        count(modes.synthesize, modes, harness)
        cfg = small_cfg(storage_times=[0.0, 1e-5, 2e-5, 3e-5], counting={"poisson": False},
                        **SENSITIVE)
        run_storage_decay(cfg, out=tmp_path / "d")
        names = [name for name, _ in calls]
        assert names.count("write") == 1
        assert names.count("diffraction_check") == 1
        assert names.count("lg_field") == 0
        assert names.count("synthesize") == 1

    @pytest.mark.parametrize("runner, checks", [
        (run_storage_decay, 1), (run_tomography, 1), (run_interference_scan, 1),
        (run_meridian_sweep, 1), (run_field_render, 1), (run_bounds_table, 0)],
        ids=["decay", "tomo", "scan", "meridian", "render", "bounds"])
    def test_diffraction_check_runs_once_where_a_wave_is_written(self, monkeypatch, tmp_path,
                                                                 runner, checks):
        # once per campaign, however many points or basis modes it writes
        # (meridian writes both of the transfer matrix's columns)
        import oamem.harness as harness

        radii, check = [], harness.diffraction_check

        def counted(params, q2):
            radii.append(q2)
            return check(params, q2)

        monkeypatch.setattr(harness, "diffraction_check", counted)
        cfg = small_cfg(qudit=dict(QUBIT), storage_times=[0.0, 1e-5, 2e-5],
                        counting={"poisson": False}, meridian={"gamma_points": 3}, **SENSITIVE)
        runner(cfg, out=tmp_path / "o")
        assert len(radii) == checks

    @staticmethod
    def fft_calls(monkeypatch, cfg, tmp_path):
        """(name, input shape) of every np.fft call a decay campaign makes."""
        calls = []

        def count(name):
            func = getattr(np.fft, name)

            def wrapper(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return func(a, *args, **kwargs)
            monkeypatch.setattr(np.fft, name, wrapper)

        for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "fftn", "ifftn",
                     "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft"):
            count(name)
        run_storage_decay(cfg, out=tmp_path / "d")
        return calls

    def test_ideal_decay_transforms_only_blurred_factors(self, monkeypatch, tmp_path):
        # an ideal source: nothing before the first point with t > 0 (the
        # diffraction check reads the config), then per point with t > 0 one
        # fft and one ifft of each axis's K x n mode factors; no transform
        # touches an n x n array
        cfg = small_cfg(storage_times=[0.0, 1e-5, 2e-5, 3e-5], counting={"poisson": False},
                        **SENSITIVE)
        n, k = cfg.grid.n, cfg.qudit.l + 1
        calls = self.fft_calls(monkeypatch, cfg, tmp_path)
        assert calls == [("fft", (k, n)), ("ifft", (k, n))] * 2 * 3

    def test_hologram_decay_inverts_the_spectrum(self, monkeypatch, tmp_path):
        # a hologram's far field has no factors: one centered transform for
        # the lens, the two forward passes of the spectrum that the first blur
        # caches, and two n x n inverse passes per point with t > 0
        cfg = small_cfg(grid=README_GRID, storage_times=[0.0, 1e-5, 2e-5, 3e-5],
                        counting={"poisson": False},
                        source={"kind": "hologram", "input_waist": 5.0e-4, "focal": 0.5},
                        **SENSITIVE)
        n = cfg.grid.n
        calls = self.fft_calls(monkeypatch, cfg, tmp_path)
        assert calls == [("fft2", (n, n))] + [("fft", (n, n))] * 2 + [("ifft", (n, n))] * 6


class TestDriftOnAmplitudes:
    @pytest.mark.parametrize("qudit", [QUBIT, QUTRIT], ids=["qubit", "qutrit"])
    def test_equals_drift_on_field(self, qudit):
        # drift is one scalar, so scaling the d amplitudes equals scaling
        # the n x n field before projection
        cfg = small_cfg(qudit=dict(qudit), memory={"alpha": 0.1},
                        decoherence={"diffusion": True, "magnetic": True,
                                     "longitudinal_drift": True},
                        magnetic=SENSITIVE["magnetic"])
        wave = _store(cfg)[1]
        t_s = 2e-4
        factor = longitudinal_drift_factor(cfg.memory, t_s)
        assert 0.05 < factor < 0.95
        field = readout(cfg, wave, t_s)
        expected = dense_amplitudes(cfg, field.with_values(field.values * factor))
        got = _retrieve(cfg, wave, t_s)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestTransfer:
    """Every campaign amplitude comes from _retrieve; meridian reads the transfer matrix."""

    ALL_CHANNELS = {"decoherence": {"diffusion": True, "magnetic": True,
                                    "longitudinal_drift": True},
                    "magnetic": SENSITIVE["magnetic"], "memory": {"alpha": 0.1}}

    @pytest.mark.parametrize("t_s", [0.0, 2e-5])
    @pytest.mark.parametrize("qudit", [QUBIT, QUTRIT], ids=["qubit", "qutrit"])
    def test_transfer_times_state_equals_retrieving_it(self, qudit, t_s):
        rng = np.random.default_rng(11)
        for _ in range(3):
            coeffs = rng.normal(size=(qudit["dim"], 2)).tolist()
            cfg = small_cfg(qudit={"dim": qudit["dim"], "l": qudit["l"],
                                   "waist": qudit["waist"], "coeffs": coeffs},
                            counting={"poisson": False}, **self.ALL_CHANNELS)
            expected = _retrieve(cfg, _store(cfg)[1], t_s)
            got = _transfer(cfg, t_s) @ cfg.qudit.to_state().coeffs
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_rejects_a_hologram_source_before_synthesis(self, monkeypatch):
        # a hologram's focal-plane field is not a synthesized basis mode
        import oamem.harness as harness

        def refuse(*args, **kwargs):
            raise AssertionError("synthesized a mode for a hologram source")

        monkeypatch.setattr(harness, "synthesize", refuse)
        cfg = small_cfg(qudit=QUBIT, source=dict(HOLOGRAM))
        with pytest.raises(ConfigError, match="needs an ideal source"):
            _transfer(cfg, 0.0)

    @pytest.mark.parametrize("kind", ["ideal", "hologram"])
    def test_stored_reference_is_the_dense_input_projection(self, kind):
        # f_rel's reference is _retrieve at t = 0: no channel acts, and
        # write and read return the field they are given; bit for bit on a
        # hologram's samples, and to rounding from an ideal source's factors
        source = dict(HOLOGRAM) if kind == "hologram" else {"kind": kind}
        cfg = small_cfg(grid=README_GRID, source=source, counting={"poisson": False},
                        **self.ALL_CHANNELS)
        reference = _store(cfg)[0]
        want = dense_amplitudes(cfg, _input_field(cfg)[0])
        if kind == "ideal":
            assert_close(reference, want)
        else:
            assert np.array_equal(reference, want)

    @pytest.mark.parametrize("runner, qudit, projections", [
        (run_storage_decay, QUTRIT, 2), (run_interference_scan, QUBIT, 1),
        (run_meridian_sweep, QUBIT, 2)], ids=["decay", "scan", "meridian"])
    def test_projections_per_campaign(self, monkeypatch, tmp_path, runner, qudit, projections):
        # decay: the stored state, which is also the point at t = 0, and one
        # per later storage time; scan: its one storage time; meridian: one
        # per basis mode
        import oamem.harness as harness

        calls = []

        def counted(*args):
            calls.append(args)
            return decompose(*args)

        monkeypatch.setattr(harness, "decompose", counted)
        runner(small_cfg(qudit=dict(qudit), counting={"poisson": False}), out=tmp_path)
        assert len(calls) == projections


class TestCampaigns:
    def test_noiseless_zero_time_unit_fidelity(self, tmp_path):
        cfg = small_cfg(counting={"poisson": False}, storage_times=[0.0],
                        decoherence={"diffusion": False})
        res = run_storage_decay(cfg, out=tmp_path / "d")
        row = res.summary[0]
        assert row[2] == pytest.approx(1.0, abs=1e-6)  # f_rel
        assert row[3] == pytest.approx(1.0, abs=1e-6)  # f_abs

    def test_diffusion_only_fidelity_outlives_efficiency(self, tmp_path):
        cfg = small_cfg(counting={"poisson": False},
                        storage_times=[0.0, 2e-4, 4e-4],
                        grid={"n": 128, "extent": 3.2e-3})
        res = run_storage_decay(cfg, out=tmp_path / "d")
        etas = [row[1] for row in res.summary]
        rels = [row[2] for row in res.summary]
        assert etas[-1] / etas[0] < 0.5
        assert all(f > 0.98 for f in rels)

    def test_sensitive_states_collapse_quickly(self, tmp_path):
        # magnetically sensitive coherence in an off-axis ambient quadrupole:
        # the encoded state degrades within tens of microseconds, while the
        # clock-state run at the same time is untouched
        cfg = small_cfg(
            counting={"poisson": False},
            storage_times=[4e-5],
            decoherence={"diffusion": True, "magnetic": True},
            magnetic={"trap_gradient": 0.1, "ambient_fraction": 0.05,
                      "guiding_b": 0.0, "sensitivity": 4.4e10,
                      "center": [3e-4, 4e-4]},
            qudit=dict(QUBIT),
        )
        res = run_storage_decay(cfg, out=tmp_path / "m")
        assert res.summary[0][3] < 0.95
        clock = small_cfg(counting={"poisson": False}, storage_times=[4e-5],
                          qudit=dict(QUBIT))
        res2 = run_storage_decay(clock, out=tmp_path / "c")
        assert res2.summary[0][3] > 0.999

    def test_noiseless_scan_unit_visibility(self, tmp_path):
        cfg = small_cfg(qudit=dict(QUBIT), counting={"poisson": False})
        res = run_interference_scan(cfg, out=tmp_path / "s")
        n0, delta, vis, rms = res.summary[0]
        assert vis >= 0.999
        assert rms / n0 < 1e-9

    def test_dephased_scan_fits_shifted_fringe(self, tmp_path):
        # at 40 us the magnetic phase map shifts the l = 2 fringe by about
        # -2.66 rad; the cosine-only fit failed with FitDegenerate (exit 3)
        cfg = small_cfg(qudit=dict(QUBIT), counting={"poisson": False},
                        storage_times=[4e-5], **SENSITIVE)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(serialize_config(cfg)))
        assert cli_main(["scan", "--config", str(path), "--out", str(tmp_path / "s")]) == 0
        header, row = (tmp_path / "s" / "fit.csv").read_text().splitlines()
        assert header == "n0,delta,visibility,residual_rms,phase"
        n0, delta, vis, rms, phase = map(float, row.split(","))

        a_l, a_r = _retrieve(cfg, _store(cfg)[1], 4e-5)
        z = np.conj(a_l) * a_r
        assert n0 == pytest.approx(abs(z), rel=1e-9)
        assert vis == pytest.approx(2 * abs(z) / (abs(a_l) ** 2 + abs(a_r) ** 2), rel=1e-9)
        assert np.exp(1j * phase) == pytest.approx(z / abs(z), abs=1e-9)
        assert vis > 0.99

    def test_flat_scan_exits_3(self, tmp_path, capsys):
        # a noiseless pole state at t = 0 scans flat: the fitted amplitude is
        # rounding noise (about 1e-16), so there is no delta or phase to report
        cfg = small_cfg(qudit=dict(QUBIT, gamma=0.0), counting={"poisson": False},
                        storage_times=[0.0])
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(serialize_config(cfg)))
        assert cli_main(["scan", "--config", str(path), "--out", str(tmp_path / "s")]) == 3
        assert "no fringe" in capsys.readouterr().err
        assert not (tmp_path / "s" / "fit.csv").exists()

    def test_overflowing_larmor_phase_exits_3(self, tmp_path):
        # sensitivity x |B| x t overflows to inf: the phase is checked before
        # cos and sin, so the CLI prints no numpy warning, only the failure
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({
            "seed": 1, "grid": {"n": 64, "extent": 3.2e-3}, "qudit": dict(QUBIT, l=1),
            "decoherence": {"diffusion": True, "magnetic": True},
            "magnetic": {"sensitivity": 1.0e+307, "guiding_b": 1.0},
            "efficiency": {"eta0": 0.1, "tau": 1.0e+9},
            "storage_times": [0.0, 1.0e+5]}))
        proc = subprocess.run([sys.executable, "-m", "oamem.cli", "decay", "--config", str(path),
                               "--out", str(tmp_path / "d")], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
        assert proc.returncode == 3
        assert "numerical failure: field values must be finite" in proc.stderr
        assert "Larmor phase" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr

    def test_meridian_identity(self, tmp_path):
        cfg = small_cfg(qudit=dict(QUBIT), counting={"poisson": False})
        res = run_meridian_sweep(cfg, out=tmp_path / "m")
        for gamma_w, _, _, gamma_r in res.summary:
            assert gamma_r == pytest.approx(gamma_w, abs=1e-12)

    def test_bounds_table_tracks_efficiency_decay(self, tmp_path):
        cfg = small_cfg(storage_times=[1e-5, 2e-4, 5e-4])
        res = run_bounds_table(cfg, out=tmp_path / "b")
        etas = [row[1] for row in res.summary]
        limits = [row[2] for row in res.summary]
        assert etas[0] > etas[1] > etas[2]
        assert limits[0] < limits[1] < limits[2]
        for row in res.summary:
            assert row[3] <= row[2] <= row[4]

    def test_render_writes_maps(self, tmp_path):
        cfg = small_cfg(storage_times=[0.0, 2e-4])
        res = run_field_render(cfg, out=tmp_path / "r")
        names = set(res.files)
        assert {"input.pgm", "input.csv", "retrieved_00.pgm",
                "retrieved_01.pgm"} <= names

    def test_hologram_source_renders_mask(self, tmp_path):
        cfg = small_cfg(
            grid={"n": 128, "extent": 8e-3},
            qudit={"dim": 2, "l": 2, "waist": 155e-6, "gamma": np.pi / 2, "beta": 0.0},
            source={"kind": "hologram", "input_waist": 1e-3, "focal": 0.5},
            storage_times=[0.0],
        )
        # the closed-form diffraction phase of this focus is 0.146
        with pytest.warns(UserWarning, match="diffraction phase"):
            res = run_field_render(cfg, out=tmp_path / "h")
        assert "hologram.pgm" in res.files

    def test_hologram_qutrit_lens_phases_undone(self, tmp_path):
        # the lens gives each focal-plane mode (-i)^|l|; without undoing it
        # the equal qutrit made by the mask reads f_abs = 0.72
        cfg = parse_config({
            "seed": 1, "grid": README_GRID, "qudit": dict(QUTRIT),
            "source": {"kind": "hologram", "input_waist": 5.0e-4, "focal": 0.5},
            "storage_times": [0.0], "counting": {"poisson": False}})
        f_abs = run_storage_decay(cfg, out=tmp_path / "h").summary[0][3]
        field = _input_field(cfg)[0]
        a = (decompose(field, 1, 3, cfg.qudit.waist)
             / focal_basis_phases((1, 0, -1)))
        a_hat = a / np.linalg.norm(a)
        c = cfg.qudit.to_state().coeffs
        assert f_abs >= 0.99
        assert f_abs == pytest.approx(abs(np.vdot(c, a_hat)), abs=1e-9)

    def test_hologram_stores_one_state_whatever_the_configured_one(self):
        # the qubit mask is Arg[cos(l phi)] whatever gamma and beta are, so it
        # stores (|L> + |R>) / sqrt(2); f_abs compares with the configured state
        stored = []
        for gamma, beta in ((1.2, 0.3), (0.3, 2.0)):
            cfg = small_cfg(qudit={**QUBIT, "gamma": gamma, "beta": beta},
                            source=dict(HOLOGRAM), storage_times=[0.0])
            stored.append(_store(cfg)[0])
        assert np.abs(stored[0] - stored[1]).max() <= 1e-12
        a = stored[0]
        assert abs(abs(a[0]) - abs(a[1])) <= 1e-12
        assert abs(np.angle(a[1] / a[0])) <= 1e-12

    def test_scan_honours_decoherence(self, tmp_path):
        cfg = small_cfg(qudit=dict(QUBIT), counting={"poisson": False},
                        storage_times=[2e-5], **SENSITIVE)
        res = run_interference_scan(cfg, out=tmp_path / "s")
        assert res.summary[0][2] < 0.9999

        wave = diffuse(write(_input_field(cfg)[0], cfg.memory), cfg.memory, 2e-5)
        wave = magnetic_dephase(wave, cfg.magnetic, 2e-5)
        out = read(wave)
        a = decompose(out, 2, 2, cfg.qudit.waist)
        rows = (tmp_path / "s" / "scan.csv").read_text().splitlines()[1:]
        assert len(rows) == cfg.scan.beta_points
        for row in rows:
            _, beta, counts, _, _ = row.split(",")
            psi = np.array([1.0, np.exp(1j * float(beta))]) / np.sqrt(2.0)
            assert float(counts) == pytest.approx(abs(np.vdot(psi, a)) ** 2, rel=1e-12)

    def test_scan_at_zero_time_matches_ideal_reference(self, tmp_path):
        cfg = small_cfg(qudit=dict(QUBIT), counting={"poisson": False},
                        storage_times=[0.0], decoherence={"diffusion": False})
        res = run_interference_scan(cfg, out=tmp_path / "s")
        psi = cfg.qudit.to_state().coeffs
        rows = (tmp_path / "s" / "scan.csv").read_text().splitlines()[1:]
        assert len(rows) == cfg.scan.beta_points
        for i, row in enumerate(rows):
            _, beta, counts, _, _ = row.split(",")
            assert float(beta) == pytest.approx(2.0 * np.pi * i / cfg.scan.beta_points)
            ket = np.array([1.0, np.exp(1j * float(beta))]) / np.sqrt(2.0)
            assert float(counts) == pytest.approx(abs(np.vdot(ket, psi)) ** 2, abs=1e-12)
        assert res.summary[0][2] >= 0.999

    def test_background_subtraction_applied(self, tmp_path):
        cfg = small_cfg(counting={"pulses": 20000, "poisson": True, "bg_rate": 1e-3})
        res = run_storage_decay(cfg, out=tmp_path / "bg")
        assert all(0.0 <= row[3] <= 1.0 for row in res.summary)


class TestCli:
    def write_cfg(self, tmp_path, extra=""):
        text = (
            "seed: 77\n"
            "grid: {n: 64, extent: 3.2e-3}\n"
            "qudit: {dim: 3, l: 1, waist: 250.0e-6,"
            " coeffs: [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]}\n"
            "storage_times: [0.0]\n"
            "counting: {pulses: 5000, poisson: true}\n" + extra)
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        return path

    def test_campaign_kinds_agree(self):
        # the six campaigns are listed in config, harness and cli
        kinds = [kind for kind, _ in SUBCOMMANDS.values()]
        assert sorted(EXPERIMENT_KINDS) == sorted(RUNNERS) == sorted(kinds)
        assert len(set(kinds)) == 6

    def test_decay_runs(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        code = cli_main(["decay", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "decay.csv").exists()
        assert "storage_decay" in capsys.readouterr().out

    def test_seed_override(self, tmp_path):
        path = self.write_cfg(tmp_path)
        assert cli_main(["decay", "--config", str(path), "--seed", "5",
                         "--out", str(tmp_path / "a")]) == 0
        assert cli_main(["decay", "--config", str(path), "--seed", "5",
                         "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "decay.csv").read_bytes() \
            == (tmp_path / "b" / "decay.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("seed: 1\nnonsense: true\n")
        assert cli_main(["decay", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert cli_main(["decay", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_non_utf8_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(b"seed: 1\n\xff\xfe")
        assert cli_main(["decay", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {path}: ")
        assert err.count("\n") == 1

    def test_experiment_mismatch_exit_code(self, tmp_path):
        path = self.write_cfg(tmp_path, extra="experiment: storage_decay\n")
        assert cli_main(["scan", "--config", str(path)]) == 2

    def test_scan_subcommand(self, tmp_path):
        text = (
            "seed: 9\n"
            "grid: {n: 64, extent: 3.2e-3}\n"
            "qudit: {dim: 2, l: 2, waist: 250.0e-6, gamma: 1.5707963, beta: 0.0}\n"
            "counting: {poisson: false}\n")
        path = tmp_path / "scan.yaml"
        path.write_text(text)
        assert cli_main(["scan", "--config", str(path),
                         "--out", str(tmp_path / "s")]) == 0
        assert (tmp_path / "s" / "fit.csv").exists()
        assert (tmp_path / "s" / "scan.csv").exists()


README_QUDIT = {"dim": 3, "l": 1, "waist": 250.0e-6,
                "coeffs": [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]}
README_QUBIT = {"dim": 2, "l": 2, "waist": 250.0e-6, "gamma": 1.5707963, "beta": 0.0}
README_CONFIG = {"seed": 1234, "grid": README_GRID, "qudit": README_QUDIT,
                 "storage_times": [0.0]}
HOLOGRAM = {"kind": "hologram", "input_waist": 5.0e-4, "focal": 0.5}
NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("subcommand, changes", [
    ("decay", {"efficiency": {"eta0": 1.5, "tau": 1.0e-3}}),
    ("decay", {"qudit": dict(README_QUDIT, l=0)}),
    ("decay", {"qudit": dict(README_QUDIT, l=-1)}),
    ("decay", {"qudit": dict(README_QUDIT, coeffs=[[0.0, 0.0]] * 3)}),
    ("decay", {"photon": {"n_bar": NAN}}),
    ("decay", {"counting": {"pulses": 0}}),
    ("decay", {"source": dict(HOLOGRAM, input_waist=1.0e-3)}),
    ("decay", {"qudit": dict(README_QUDIT, waist=9.0e-4)}),
    ("meridian", {"source": HOLOGRAM}),
    ("decay", {"counting": {"n_bar": 50.0}}),
    ("decay", {"seed": "x"}),
    ("decay", {"seed": 1.5}),
    ("decay", {"seed": -3}),
    ("scan", {"qudit": README_QUBIT, "scan": {"beta_points": 4.5}}),
    ("meridian", {"qudit": README_QUBIT, "meridian": {"gamma_points": 3.5}}),
    ("decay", {"qudit": dict(README_QUDIT, l=1.5)}),
    ("decay", {"grid": dict(README_GRID, center=[0.0, 0.0, 0.0])}),
    ("decay", {"storage_times": [NAN]}),
    ("decay", {"storage_times": [INF]}),
    ("decay", {"qudit": dict(README_QUBIT, gamma=NAN)}),
    ("decay", {"source": dict(HOLOGRAM, focal=INF)}),
    ("decay", {"decoherence": {"magnetic": True}, "magnetic": {"center": [1, 2, 3]}}),
    ("decay", {"qudit": dict(README_QUDIT, l=10 ** 400)}),
    # extrapolating these anchors back to t = 0 overflows a float
    ("decay", {"efficiency": {"anchors": [[1000.0, 0.5], [1001.0, 0.1]]}}),
    ("decay", {"qudit": dict(README_QUBIT, dim=3)}),
    ("bounds", {"storage_times": {0.0: "x", 1.0e-4: "y"}}),
    ("bounds", {"grid": dict(README_GRID, n=2 ** 40)}),
    ("decay", {"storage_times": [True]}),
    ("decay", {"qudit": dict(README_QUDIT, coeffs=[[True, 0], [1, 0], [1, 0]])}),
    ("decay", {"efficiency": {"anchors": [[0.0, True], [4.0e-4, 0.05]]}}),
    ("decay", {"efficiency": {"eta0": 0.5}}),
    ("decay", {"efficiency": {"eta0": 0.1, "tau": 1.0e-3,
                              "anchors": [[1.0e-5, 0.1], [4.0e-4, 0.05]]}}),
    ("decay", {"qudit": dict(README_QUBIT, coeffs=[[1.0, 0.0], [0.0, 1.0]])}),
    ("scan", {"qudit": README_QUBIT, "counting": {"acquisition": -5.0}}),
    ("tomo", {"counting": {"poisson": False, "bg_rate": 0.01}}),
    ("decay", {"counting": {"poisson": False, "pulses": 5000}}),
    ("decay", {"source": {"kind": "ideal", "input_waist": 5.0e-4}}),
    ("decay", {"source": {"focal": 0.3}}),
    # beyond numpy's largest Poisson mean, about 9.22e18
    ("decay", {"counting": {"pulses": 10 ** 20}}),
    ("tomo", {"counting": {"bg_rate": 1.0e300}}),
    ("scan", {"qudit": README_QUBIT, "photon": {"n_bar": 1.0e300}}),
    ("meridian", {"qudit": README_QUBIT, "photon": {"n_bar": 1.0e300}}),
    ("bounds", {"photon": {"n_bar": 1.0e300}}),
], ids=["eta0", "zero-l", "negative-l", "zero-coeffs", "nan-n_bar", "zero-pulses",
        "hologram-input-waist", "qudit-waist", "meridian-hologram", "counting-n_bar",
        "str-seed", "float-seed", "negative-seed", "float-beta_points",
        "float-gamma_points", "float-l", "grid-center-3", "nan-storage-time",
        "inf-storage-time", "nan-gamma", "inf-focal", "magnetic-center-3", "huge-l",
        "anchor-overflow", "qutrit-bloch-angles", "mapping-storage-times", "huge-grid-n",
        "bool-storage-time", "bool-coeff", "bool-anchor", "eta0-without-tau",
        "eta0-tau-and-anchors", "coeffs-and-bloch-angles", "negative-acquisition",
        "noiseless-bg_rate", "noiseless-pulses", "ideal-input-waist", "ideal-focal",
        "poisson-mean-pulses", "poisson-mean-bg_rate", "poisson-mean-scan",
        "poisson-mean-meridian", "poisson-mean-bounds"])
def test_config_faults_exit_2(tmp_path, capsys, subcommand, changes):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({**README_CONFIG, **changes}))
    assert cli_main([subcommand, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


SMALL_GRID = {"n": 64, "extent": 3.2e-3}


# floats that leave the normal range: e^-(n_bar + uncertainty) past
# n_bar + uncertainty = 708.4, 1 - e^-(n_bar - uncertainty) at 1e-300, and
# the pixel areas of the grid, or of a hologram's focal-plane grid
@pytest.mark.parametrize("subcommand, changes, named", [
    ("bounds", {"photon": {"n_bar": 1000.0}}, "'photon' section: n_bar + uncertainty = 1000.4"),
    ("bounds", {"photon": {"n_bar": 2.0e-300, "uncertainty": 1.0e-300}},
     "'photon' section: n_bar - uncertainty = 1e-300"),
    *((command, {"grid": {"n": 64, "extent": 1.0e160}}, "extent 1e+160 at n = 64")
      for command in ("decay", "scan", "meridian", "render", "bounds")),
    ("decay", {"grid": {"n": 64, "extent": 1.0e-160},
               "qudit": {**README_QUDIT, "waist": 1.0e-162}}, "extent 1e-160 at n = 64"),
    ("render", {"grid": SMALL_GRID, "source": {**HOLOGRAM, "focal": 1.0e200}},
     "extent 1.59e+198 at n = 64"),
], ids=["n_bar-1000", "n_bar-low-edge-1e-300", "extent-1e160-decay", "extent-1e160-scan",
        "extent-1e160-meridian", "extent-1e160-render", "extent-1e160-bounds",
        "extent-1e-160", "hologram-focal-grid"])
def test_values_beyond_normal_floats_exit_2(tmp_path, capsys, subcommand, changes, named):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({**README_CONFIG, **changes}))
    assert cli_main([subcommand, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err


# a waist about a hundredth of the focal-plane pitch (2.5 mm): the sampled
# modes are 0, which exits 2 at parsing, not 3 at the first projection
UNDER_RESOLVED = {"seed": 1, "grid": {"n": 32, "extent": 0.000488},
                  "qudit": {"dim": 2, "l": 1, "waist": 2.2e-05, "gamma": 1.2, "beta": 0.3},
                  "source": {"kind": "hologram", "input_waist": 0.0001, "focal": 1.53},
                  "efficiency": {"eta0": 0.1, "tau": 5.0e-4}, "storage_times": [0.0, 1.0e-4]}


@pytest.mark.parametrize("subcommand", list(SUBCOMMANDS))
def test_under_resolved_mode_exits_2(tmp_path, capsys, subcommand):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(UNDER_RESOLVED))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main([subcommand, "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("config error:") == 1 and err.startswith("config error: ")
    assert "zero norm" in err
    assert not caught


@pytest.mark.parametrize("given", ["--out", "output_dir"])
@pytest.mark.parametrize("target", ["file", "file/sub"], ids=["existing-file", "below-a-file"])
def test_output_path_that_cannot_be_a_directory_exits_2(tmp_path, capsys, given, target):
    (tmp_path / "file").write_text("not a directory\n")
    out = str(tmp_path / target)
    data = {**README_CONFIG, "grid": SMALL_GRID}
    args = []
    if given == "--out":
        args = ["--out", out]
    else:
        data["output_dir"] = out
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    assert cli_main(["bounds", "--config", str(path), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {out}: ")
    assert err.count("\n") == 1


# one file that each subcommand writes
OUTPUT_FILE = {"scan": "scan.csv", "meridian": "meridian.csv", "decay": "decay.csv",
               "tomo": "summary.csv", "bounds": "bounds.csv", "render": "input.csv"}


@pytest.mark.parametrize("subcommand", list(SUBCOMMANDS))
def test_output_file_that_cannot_be_written_exits_2(tmp_path, subcommand):
    # a directory where an output file goes: the whole process prints one
    # line and no traceback
    out = tmp_path / "o"
    (out / OUTPUT_FILE[subcommand]).mkdir(parents=True)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({**README_CONFIG, "grid": SMALL_GRID,
                                    "qudit": README_QUBIT}))
    proc = subprocess.run([sys.executable, "-m", "oamem.cli", subcommand, "--config", str(path),
                           "--out", str(out)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: cannot write outputs: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


HUGE_TIME = {"storage_times": [0.0, 1.0e300]}
# only drift along z acts: exp(-(dk sigma)^2 / 2) overflows at a smaller time
DRIFT_ONLY = {"memory": {"alpha": 0.05}, "storage_times": [0.0, 1.0e160],
              "decoherence": {"diffusion": False, "magnetic": False,
                              "longitudinal_drift": True}}
# eta0 exp(-t_s / tau) underflows to 0 for the default anchors (tau = 0.48 ms)
LONG_TIME = {"storage_times": [0.0, 1.0]}
# scan and meridian store for the first storage time alone
LONG_QUBIT = {"storage_times": [1.0], "qudit": README_QUBIT}


@pytest.mark.parametrize("subcommand, changes, failed", [
    ("decay", HUGE_TIME, "blur width sigma"), ("tomo", HUGE_TIME, "blur width sigma"),
    ("render", HUGE_TIME, "blur width sigma"),
    ("decay", DRIFT_ONLY, "drift factor"), ("tomo", DRIFT_ONLY, "drift factor"),
    ("bounds", LONG_TIME, "efficiency"), ("decay", LONG_TIME, "efficiency"),
    ("tomo", LONG_TIME, "efficiency"),
    ("scan", LONG_QUBIT, "efficiency"), ("meridian", LONG_QUBIT, "efficiency"),
], ids=["decay", "tomo", "render", "decay-drift", "tomo-drift", "bounds-eta-underflow",
        "decay-eta-underflow", "tomo-eta-underflow", "scan-eta-underflow",
        "meridian-eta-underflow"])
def test_overflowing_storage_time_exits_3(tmp_path, capsys, subcommand, changes, failed):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({**README_CONFIG, "grid": SMALL_GRID, **changes}))
    assert cli_main([subcommand, "--config", str(path), "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert err.count("\n") == 1
    # the message names the quantity that failed and the storage time
    assert failed in err
    assert f"t_s = {changes['storage_times'][-1]:g} s" in err
    if failed == "efficiency":
        assert "tau = " in err


def test_blur_beyond_every_frequency_renders_silently(tmp_path):
    # at 1e152 s, sigma^2 is finite but q^2 sigma^2 overflows to inf on every
    # q != 0: the kernel exp(-inf) = 0 there is right, and prints no warning
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({**README_CONFIG, "grid": SMALL_GRID,
                                    "counting": {"poisson": False},
                                    "storage_times": [0.0, 1.0e+152]}))
    proc = subprocess.run([sys.executable, "-m", "oamem.cli", "render", "--config", str(path),
                           "--out", str(tmp_path / "r")], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
