"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured value and runtime budget."""

import time

import numpy as np
from oracles import direct_gaussian_convolution, overlap

from oamem.bounds import PhotonStatistics, classical_limit, poisson_weighted_limit, threshold_band
from oamem.config import parse_config
from oamem.decoherence import EfficiencyModel, diffuse, qutrit_nodal_shift
from oamem.fieldgrid import GridSpec, TransverseField
from oamem.harness import (run_interference_scan, run_meridian_sweep,
                           run_storage_decay)
from oamem.measurement import CountRecord, simulate_counts
from oamem.modes import QuditState, qubit_state, qutrit_state, synthesize
from oamem.polariton import MemoryParams, read, write
from oamem.tomography import DensityMatrix, ProjectionSet, fidelity, probabilities, reconstruct

RB85 = 85 * 1.66053906892e-27
ETA_MODEL = EfficiencyModel.from_anchors()


def report(name, value, budget_s, elapsed_s, passed):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {value} (runtime {elapsed_s * 1e3:.1f} ms, "
          f"budget {budget_s * 1e3:.0f} ms)")
    assert passed, f"{name}: {value}"
    assert elapsed_s < budget_s, f"{name} exceeded runtime budget: {elapsed_s:.3f}s"


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_criterion_1_single_photon_limit():
    poisson_weighted_limit(1e-6)  # warm-up outside the timed region
    value, elapsed = timed(lambda: poisson_weighted_limit(1e-6))
    report("1 classical bound, single-photon limit", f"{value:.8f}",
           1e-3, elapsed, abs(value - 2.0 / 3.0) < 1e-6)


def test_criterion_2_table_limit():
    # The printed 87.00% limit is the quantum-classical threshold's upper
    # bound over n_bar = 1.6 +/- 0.4 (its tabulated definition); the band
    # center at n_bar = 1.6 sits near 0.856 and is reported alongside.
    def compute():
        eta = ETA_MODEL(500e-6)
        upper = threshold_band(PhotonStatistics(1.6, 0.4), eta)[1]
        center = classical_limit(1.6, eta).f_classical
        return eta, upper, center

    (eta, upper, center), elapsed = timed(compute)
    report("2 classical bound vs tabulated 87.00%",
           f"band upper {upper:.4f} (center {center:.4f}) at eta(500us)={eta:.4f}",
           1.0, elapsed, 0.865 <= upper <= 0.875)


def test_criterion_3_quantum_beating():
    def compute():
        t_s = 400e-6
        eta = ETA_MODEL(t_s)
        pulses = int(np.ceil(1e4 / (1.6 * eta)))  # >= 1e4 detections per basis
        cfg = parse_config({
            "seed": 20260809,
            "grid": {"n": 256, "extent": 3.2e-3},
            "qudit": {"dim": 3, "l": 1, "waist": 250e-6,
                      "coeffs": [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]},
            "storage_times": [t_s],
            "counting": {"pulses": pulses, "poisson": True},
            "photon": {"n_bar": 1.6, "uncertainty": 0.4},
        })
        row = run_storage_decay(cfg, out="/tmp/oamem_acceptance_c3").summary[0]
        return row[3], row[6]  # f_abs, band_high

    (f_abs, band_high), elapsed = timed(compute)
    report("3 quantum beating at 400 us",
           f"fidelity {f_abs:.4f} vs band high {band_high:.4f}",
           120.0, elapsed, f_abs >= band_high + 0.01)


def test_criterion_4_diffusion_oracle():
    def compute():
        grid = GridSpec(128, 0.9e-3)
        dp = MemoryParams(temperature=100e-6, mass=RB85)
        f = synthesize(qutrit_state(1, 1, 1, l=1), 80e-6, grid)
        s = TransverseField(grid, f.values, f.wavelength)
        errs = []
        for t_s in (100e-6, 500e-6):
            spectral = diffuse(s, dp, t_s).values
            direct = direct_gaussian_convolution(f.values, grid.pitch, dp.sigma(t_s))
            errs.append(np.sqrt(np.sum(np.abs(spectral - direct) ** 2)
                                / np.sum(np.abs(direct) ** 2)))
        return max(errs)

    worst, elapsed = timed(compute)
    report("4 spectral vs real-space diffusion", f"rel L2 {worst:.2e}",
           10.0, elapsed, worst < 1e-6)


def test_criterion_5_dark_lines():
    def compute():
        grid = GridSpec(512, 3.2e-3)
        dp = MemoryParams(temperature=100e-6, mass=RB85)
        params = MemoryParams()
        w0 = 250e-6
        qubit = write(synthesize(qubit_state(np.pi / 2, 0.0, l=2), w0, grid), params)
        qubit_after = diffuse(qubit, dp, 500e-6)
        diag = np.abs(np.diagonal(qubit_after.values)) ** 2
        dark = diag.max() / (np.abs(qubit_after.values) ** 2).max()
        qutrit = write(synthesize(qutrit_state(1, 1, 1, l=1), w0, grid), params)
        shift = qutrit_nodal_shift(qutrit, diffuse(qutrit, dp, 500e-6))
        return dark, shift

    (dark, shift), elapsed = timed(compute)
    report("5 dark-line invariance", f"qubit axis {dark:.2e}, qutrit shift {shift * 1e6:.2f} um",
           10.0, elapsed, dark < 1e-6 and shift < 0)


def test_criterion_6_storage_reversibility(rng):
    def compute():
        grid = GridSpec(256, 3.2e-3)
        params = MemoryParams()
        worst = 1.0
        for _ in range(20):
            dim = int(rng.choice([2, 3]))
            state = QuditState(rng.normal(size=dim) + 1j * rng.normal(size=dim), l=1)
            f = synthesize(state, 250e-6, grid)
            worst = min(worst, abs(overlap(f, read(write(f, params)))))
        return worst

    worst, elapsed = timed(compute)
    report("6 storage reversibility", f"min overlap {worst:.12f}",
           5.0, elapsed, worst >= 1 - 1e-10)


def test_criterion_7_tomography_round_trip(rng):
    def compute():
        worst = 1.0
        for pset in (ProjectionSet.qubit(), ProjectionSet.qutrit()):
            for _ in range(100):
                rho_true = DensityMatrix.pure(rng.normal(size=pset.dim)
                                              + 1j * rng.normal(size=pset.dim))
                records = [CountRecord(lab, counts=p) for lab, p in
                           zip(pset.labels, probabilities(rho_true, pset))]
                worst = min(worst, fidelity(reconstruct(records, pset), rho_true))
        pset = ProjectionSet.qutrit()
        fids = []
        for seed in range(15):
            rho_true = DensityMatrix.pure(rng.normal(size=3) + 1j * rng.normal(size=3))
            probs = probabilities(rho_true, pset)
            records = [simulate_counts(p, 1.0, 1.0, 10 ** 5, 0.0, seed * 100 + i,
                                       basis_id=lab)
                       for i, (lab, p) in enumerate(zip(pset.labels, probs))]
            fids.append(fidelity(reconstruct(records, pset), rho_true))
        return worst, float(np.median(fids))

    (worst, median), elapsed = timed(compute)
    report("7 tomography round trip",
           f"noiseless min {worst:.6f}, poisson median {median:.4f}",
           60.0, elapsed, worst >= 0.9999 and median >= 0.99)


def test_criterion_8_measurement_reductions(tmp_path):
    def compute():
        scan_cfg = parse_config({
            "seed": 5,
            "qudit": {"dim": 2, "l": 2, "waist": 250e-6, "gamma": np.pi / 2, "beta": 0.0},
            "counting": {"poisson": False},
            "scan": {"beta_points": 12},
        })
        n0, _, vis, rms = run_interference_scan(scan_cfg, out=tmp_path / "scan").summary[0]
        meridian_cfg = parse_config({
            "seed": 5,
            "qudit": {"dim": 2, "l": 2, "waist": 250e-6, "gamma": 0.0, "beta": 0.0},
            "counting": {"poisson": False},
            "meridian": {"gamma_points": 13},
        })
        rows = run_meridian_sweep(meridian_cfg, out=tmp_path / "meridian").summary
        gamma_err = max(abs(r[3] - r[0]) for r in rows)
        return vis, rms / n0, gamma_err

    (vis, rms, gamma_err), elapsed = timed(compute)
    report("8 measurement reductions",
           f"V {vis:.6f}, shape RMS {rms:.2e}, meridian err {gamma_err:.2e}",
           10.0, elapsed, vis >= 0.999 and rms < 1e-9 and gamma_err < 1e-12)


def test_criterion_9_efficiency_ratio():
    value, elapsed = timed(lambda: ETA_MODEL(400e-6) / ETA_MODEL(10e-6))
    report("9 efficiency-ratio anchor", f"{value:.5f}",
           1e-3, elapsed, abs(value - 0.44) < 1e-3)


def test_criterion_10_determinism(tmp_path):
    def compute():
        cfg = parse_config({
            "seed": 31,
            "grid": {"n": 64, "extent": 3.2e-3},
            "qudit": {"dim": 3, "l": 1, "waist": 250e-6,
                      "coeffs": [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]},
            "storage_times": [0.0, 2e-4],
            "counting": {"pulses": 20000, "poisson": True},
        })
        run_storage_decay(cfg, out=tmp_path / "first")
        run_storage_decay(cfg, out=tmp_path / "second")
        first = {p.name: p.read_bytes() for p in sorted((tmp_path / "first").iterdir())}
        second = {p.name: p.read_bytes() for p in sorted((tmp_path / "second").iterdir())}
        return first == second

    identical, elapsed = timed(compute)
    report("10 campaign determinism", f"byte-identical {identical}",
           60.0, elapsed, identical)
