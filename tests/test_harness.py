import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import oamem
from oamem.cli import main as cli_main
from oamem.config import parse_config, serialize_config
from oamem.decoherence import diffuse, longitudinal_drift_factor, magnetic_dephase
from oamem.harness import (_amplitudes, _decohere, _input_field, _retrieved_amplitudes, _store,
                           run_bounds_table, run_field_render, run_interference_scan,
                           run_meridian_sweep, run_storage_decay, run_tomography, storage_point)
from oamem.holography import focal_basis_phases, project_and_couple
from oamem.measurement import simulate_counts
from oamem.modes import QuditState, decompose, synthesize
from oamem.polariton import read, write
from oamem.tomography import DensityMatrix, ProjectionSet, fidelity, reconstruct

SRC = str(Path(oamem.__file__).resolve().parents[1])

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
        res = run_tomography(small_cfg(storage_times=[0.0]), out=tmp_path / "t")
        manifest = (tmp_path / "t" / "manifest.csv").read_text().splitlines()
        listed = {line.split(",")[0] for line in manifest[1:]}
        on_disk = {p.name for p in (tmp_path / "t").iterdir()} - {"manifest.csv"}
        assert listed == on_disk


class TestWorkerCap:
    """The pool forks all its workers at once, so their number is capped."""

    @pytest.mark.parametrize("cpus, workers", [(64, [2]), (1, []), (None, [])],
                             ids=["many-cpus", "one-cpu", "unknown-cpus"])
    def test_pool_never_outgrows_points_or_cpus(self, monkeypatch, tmp_path, cpus, workers):
        import oamem.harness as harness

        created = []

        class RecordingPool:
            """Records max_workers and maps in this process."""

            def __init__(self, max_workers, initializer, initargs):
                created.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "_WORKER_STORED", None)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        cfg = small_cfg()
        pooled = run_storage_decay(cfg, out=tmp_path / "p", parallel=10 ** 6)
        assert created == workers
        assert pooled.summary == run_storage_decay(cfg, out=tmp_path / "s").summary


class TestWorkerInput:
    def test_workers_get_the_wave_once_and_run_no_forward_fft(self, monkeypatch, tmp_path):
        # a spawning pool pickles the initializer's arguments once per worker
        # and every job on its own: jobs carry only (index, t), and the
        # stored wave arrives with its spectrum, so no worker transforms it
        import oamem.harness as harness

        jobs_seen, forward = [], []

        class PicklingPool:
            """Runs one worker in this process, pickling what a spawned one receives."""

            def __init__(self, max_workers, initializer, initargs):
                self.initializer, self.initargs = initializer, pickle.dumps(initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                fft = np.fft.fft

                def counted(*args, **kwargs):
                    forward.append(args)
                    return fft(*args, **kwargs)

                monkeypatch.setattr(np.fft, "fft", counted)
                self.initializer(*pickle.loads(self.initargs))
                jobs_seen.extend(pickle.loads(pickle.dumps(job)) for job in jobs)
                return [fn(job) for job in jobs_seen]

        monkeypatch.setattr(harness, "ProcessPoolExecutor", PicklingPool)
        monkeypatch.setattr(harness, "_WORKER_STORED", None)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
        cfg = small_cfg(storage_times=[0.0, 1e-5, 2e-5], **SENSITIVE)
        pooled = run_storage_decay(cfg, out=tmp_path / "p", parallel=2)
        assert jobs_seen == list(enumerate(cfg.storage_times))
        assert forward == []
        assert pooled.summary == run_storage_decay(cfg, out=tmp_path / "s").summary


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
        pset = ProjectionSet.qutrit()
        records = []
        for b_index, (label, psi) in enumerate(pset.projectors):
            amp = np.vdot(psi, a)
            seed = int(np.random.SeedSequence(
                entropy=cfg.seed, spawn_key=(t_index, b_index)).generate_state(1)[0])
            records.append(simulate_counts(min(abs(amp) ** 2, 1.0), cfg.photon.n_bar,
                                           eta, cfg.counting.pulses, 0.0, seed,
                                           basis_id=label))
        rho = reconstruct(records, pset)
        f_abs = fidelity(rho, DensityMatrix(state.density_matrix()))
        assert [r.counts for r in records] == [r.counts for r in got["records"]]
        assert got["f_abs"] == f_abs
        assert got["eta"] == eta

    @pytest.mark.parametrize("kind", ["ideal", "hologram"])
    def test_readout_sign_on_amplitudes_is_exact(self, kind):
        # projecting the decohered spin wave and negating the d amplitudes
        # gives the amplitudes of the read-out (negated) field, bit for bit
        cfg = small_cfg(grid=README_GRID, counting={"poisson": False},
                        source={"kind": kind, "input_waist": 5.0e-4, "focal": 0.5}, **SENSITIVE)
        wave = _store(cfg)[1]
        for t_s in (0.0, 2e-5):
            assert np.array_equal(_retrieved_amplitudes(cfg, wave, t_s),
                                  _amplitudes(cfg, read(_decohere(cfg, wave, t_s)), t_s))

    @pytest.mark.parametrize("qudit", [QUBIT, QUTRIT], ids=["qubit", "qutrit"])
    def test_linear_projection_matches_project_and_couple(self, qudit):
        # psi^H decompose(f) against the synthesized-projector overlap, on a
        # field decohered by diffusion and magnetic dephasing
        cfg = small_cfg(qudit=dict(qudit), grid={"n": 128, "extent": 3.2e-3}, **SENSITIVE)
        field = read(_decohere(cfg, _store(cfg)[1], 2e-5))
        a = _amplitudes(cfg, field)
        state = cfg.qudit.to_state()
        pset = ProjectionSet.qubit() if state.dim == 2 else ProjectionSet.qutrit()
        for _, psi in pset.projectors:
            ref = project_and_couple(field, QuditState(psi, l=state.l), cfg.qudit.waist)
            assert abs(np.vdot(psi, a) - ref) <= 1e-12 * abs(ref)


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
        count(polariton.diffraction_check, polariton)
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

    def test_decay_runs_one_forward_spectrum(self, monkeypatch, tmp_path):
        # an ideal source: two forward n x n passes per campaign (the written
        # wave's spectrum, for the diffraction check), then per point with
        # t > 0 one rfft and one irfft of the K x n mode factors; no point
        # transforms an n x n array
        cfg = small_cfg(storage_times=[0.0, 1e-5, 2e-5, 3e-5], counting={"poisson": False},
                        **SENSITIVE)
        n, k = cfg.grid.n, cfg.qudit.l + 1
        calls = self.fft_calls(monkeypatch, cfg, tmp_path)
        assert calls == [("fft", (n, n))] * 2 + [("rfft", (k, n)), ("irfft", (k, n // 2 + 1))] * 3

    def test_hologram_decay_inverts_the_spectrum(self, monkeypatch, tmp_path):
        # a hologram's far field has no factors: one centered transform for
        # the lens, the two forward passes of the spectrum, and two n x n
        # inverse passes per point with t > 0
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
        field = read(_decohere(cfg, wave, t_s))
        expected = _amplitudes(cfg, field.with_values(field.values * factor))
        got = _amplitudes(cfg, field, t_s)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


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

        a_l, a_r = _amplitudes(cfg, read(_decohere(cfg, _store(cfg)[1], 4e-5)))
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
        with pytest.warns(UserWarning):
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
        a = decompose(field, 1, 3, cfg.qudit.waist) / focal_basis_phases((1, 0, -1))
        a_hat = a / np.linalg.norm(a)
        c = cfg.qudit.to_state().coeffs
        assert f_abs >= 0.99
        assert f_abs == pytest.approx(abs(np.vdot(c, a_hat)), abs=1e-9)

    def test_scan_honours_decoherence(self, tmp_path):
        cfg = small_cfg(qudit=dict(QUBIT), counting={"poisson": False},
                        storage_times=[2e-5], **SENSITIVE)
        res = run_interference_scan(cfg, out=tmp_path / "s")
        assert res.summary[0][2] < 0.9999

        wave = diffuse(write(_input_field(cfg)[0], cfg.memory), cfg.memory, 2e-5)
        wave = magnetic_dephase(wave, cfg.magnetic, 2e-5)
        a = decompose(read(wave), 2, 2, cfg.qudit.waist)
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
], ids=["eta0", "zero-l", "zero-coeffs", "nan-n_bar", "zero-pulses",
        "hologram-input-waist", "qudit-waist", "meridian-hologram", "counting-n_bar",
        "str-seed", "float-seed", "negative-seed", "float-beta_points",
        "float-gamma_points", "float-l", "grid-center-3", "nan-storage-time",
        "inf-storage-time", "nan-gamma", "inf-focal", "magnetic-center-3", "huge-l",
        "anchor-overflow", "qutrit-bloch-angles", "mapping-storage-times", "huge-grid-n",
        "bool-storage-time", "bool-coeff", "bool-anchor", "eta0-without-tau",
        "eta0-tau-and-anchors", "coeffs-and-bloch-angles", "negative-acquisition",
        "noiseless-bg_rate"])
def test_config_faults_exit_2(tmp_path, capsys, subcommand, changes):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({**README_CONFIG, **changes}))
    assert cli_main([subcommand, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
