import csv

import numpy as np
import pytest

from oamem.config import parse_config
from oamem.errors import ConfigError, DomainError, FitDegenerate, NoCounts
from oamem.harness import _retrieve, _store, run_interference_scan
from oamem.measurement import (CountRecord, fit_visibility, polar_retrieve, simulate_counts,
                               subtract_background, write_count_records, write_csv)
from oamem.modes import qubit_state

BETAS = [2 * np.pi * i / 12 for i in range(12)]
BALANCED = {"dim": 2, "l": 2, "waist": 250e-6, "gamma": np.pi / 2, "beta": 0.0}


def scan_config(qudit=BALANCED, counting=None):
    """A 64-pixel equator scan at t = 0 without decoherence."""
    return parse_config({"seed": 5, "grid": {"n": 64, "extent": 3.2e-3}, "qudit": qudit,
                         "counting": counting or {"poisson": False},
                         "storage_times": [0.0], "decoherence": {"diffusion": False}})


def scan_records(tmp_path, qudit=BALANCED, counting=None):
    """scan.csv rows of :func:`scan_config`."""
    run_interference_scan(scan_config(qudit, counting), out=tmp_path)
    with open(tmp_path / "scan.csv", newline="") as fh:
        return list(csv.DictReader(fh))


class TestSimulateCounts:
    def test_zero_probability_zero_counts(self):
        rec = simulate_counts(0.0, 1.0, 1.0, 10 ** 4, 0.0, seed=3)
        assert rec.counts == 0

    def test_deterministic_for_seed(self):
        a = simulate_counts(0.37, 2.0, 0.5, 10 ** 5, 1e-3, seed=99)
        b = simulate_counts(0.37, 2.0, 0.5, 10 ** 5, 1e-3, seed=99)
        assert (a.counts, a.background) == (b.counts, b.background)

    def test_mean_within_five_sigma(self):
        pulses, rate = 10 ** 6, 0.01
        rec = simulate_counts(0.01, 1.0, 1.0, pulses, 0.0, seed=11)
        mean = pulses * rate
        assert abs(rec.counts - mean) < 5 * np.sqrt(mean)

    def test_poisson_mean_and_variance(self):
        # 1e5 independent draws at lam = 5
        lam = 5.0
        draws = np.array([simulate_counts(0.05, 1.0, 1.0, 100, 0.0, seed=s).counts
                          for s in range(100000)])
        assert draws.mean() == pytest.approx(lam, abs=5 * np.sqrt(lam / draws.size))
        var_tol = 5 * lam * np.sqrt(2.0 / draws.size)
        assert draws.var() == pytest.approx(lam, abs=5 * var_tol)

    def test_rejects_bad_probability(self):
        with pytest.raises(DomainError):
            simulate_counts(1.5, 1.0, 1.0, 100, 0.0, seed=0)
        with pytest.raises(DomainError):
            simulate_counts(0.5, 1.0, 1.1, 100, 0.0, seed=0)


class TestInterferenceScan:
    """The equator scan of the campaign runner, on its noiseless records."""

    def test_ideal_curve_shape(self, tmp_path):
        for row in scan_records(tmp_path):
            beta = float(row["beta_or_label"])
            assert float(row["counts"]) == pytest.approx((1 + np.cos(beta)) / 2, abs=1e-12)

    def test_twelve_points_per_period(self, tmp_path):
        betas = [float(row["beta_or_label"]) for row in scan_records(tmp_path)]
        assert len(betas) == 12
        assert np.allclose(np.diff(betas), np.pi / 6)

    def test_pole_state_flat(self, tmp_path):
        # a pole state has no fringe: every equator projector couples 1/2,
        # and the visibility fit refuses the flat curve
        pole = dict(BALANCED, gamma=0.0)
        with pytest.raises(FitDegenerate, match="no fringe"):
            scan_records(tmp_path, qudit=pole)
        cfg = scan_config(pole)
        a = _retrieve(cfg, _store(cfg)[1], 0.0)
        for beta in BETAS:
            psi = np.array([1.0, np.exp(1j * beta)]) / np.sqrt(2.0)
            assert abs(np.vdot(psi, a)) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_qutrit_rejected(self, tmp_path):
        qutrit = {"dim": 3, "l": 1, "waist": 250e-6, "coeffs": [[1, 0], [1, 0], [1, 0]]}
        with pytest.raises(ConfigError, match="requires a qubit"):
            scan_records(tmp_path, qudit=qutrit)

    def test_poisson_deterministic(self, tmp_path):
        counting = {"pulses": 10 ** 4, "poisson": True}
        a = scan_records(tmp_path / "a", counting=counting)
        b = scan_records(tmp_path / "b", counting=counting)
        assert [r["counts"] for r in a] == [r["counts"] for r in b]


class TestFitVisibility:
    def test_ideal_data_unit_visibility(self):
        records = [CountRecord(f"b{i}", (1 + np.cos(b)) / 2, beta=b)
                   for i, b in enumerate(BETAS)]
        fit = fit_visibility(records)
        assert fit.visibility == pytest.approx(1.0, abs=1e-12)
        assert abs(fit.delta) < 1e-12

    def test_recovers_offset(self):
        delta = 0.02
        records = [CountRecord(f"b{i}", 500.0 * (1 + delta + np.cos(b)), beta=b)
                   for i, b in enumerate(BETAS)]
        fit = fit_visibility(records)
        assert fit.delta == pytest.approx(delta, abs=1e-10)
        assert fit.visibility == pytest.approx(1 / 1.02, abs=1e-10)

    def test_scale_invariance(self):
        base = [CountRecord(f"b{i}", 100.0 * (1.03 + np.cos(b)), beta=b)
                for i, b in enumerate(BETAS)]
        scaled = [CountRecord(r.basis_id, 7.5 * r.counts, beta=r.beta) for r in base]
        fa, fb = fit_visibility(base), fit_visibility(scaled)
        assert fb.delta == pytest.approx(fa.delta, rel=1e-10)
        assert fb.visibility == pytest.approx(fa.visibility, rel=1e-10)

    def test_noisy_visibility_plausible(self):
        # Poisson noise at experimental scale lands in the high-90s range
        records = [CountRecord(f"b{i}", simulate_counts((1 + np.cos(b)) / 2, 50.0, 0.04,
                                                        3 * 10 ** 4, 0.0, seed=i).counts,
                               beta=b)
                   for i, b in enumerate(BETAS)]
        fit = fit_visibility(records)
        assert 0.9 < fit.visibility <= 1.0

    @pytest.mark.parametrize("phase", [0.7, -2.66, np.pi])
    def test_shifted_fringe_keeps_contrast(self, phase):
        # a fringe moved along beta is fitted with its phase, not read as
        # lost contrast
        delta = 0.05
        records = [CountRecord(f"b{i}", 200.0 * (1 + delta + np.cos(b - phase)), beta=b)
                   for i, b in enumerate(BETAS)]
        fit = fit_visibility(records)
        assert fit.n0 == pytest.approx(200.0, rel=1e-12)
        assert fit.delta == pytest.approx(delta, abs=1e-12)
        assert fit.visibility == pytest.approx(1 / (1 + delta), rel=1e-12)
        assert np.exp(1j * fit.phase) == pytest.approx(np.exp(1j * phase), abs=1e-12)
        assert fit.residual_rms < 1e-10

    def test_no_modulation_degenerate(self):
        records = [CountRecord(f"b{i}", 0.0, beta=b) for i, b in enumerate(BETAS)]
        with pytest.raises(FitDegenerate):
            fit_visibility(records)

    def test_rounding_level_modulation_degenerate(self):
        # a fringe amplitude at the rounding level of the mean is no fringe
        records = [CountRecord(f"b{i}", 0.5 + 1e-17 * np.cos(b), beta=b)
                   for i, b in enumerate(BETAS)]
        with pytest.raises(FitDegenerate, match="no fringe"):
            fit_visibility(records)

    def test_small_real_modulation_fits(self):
        # well above the rounding level, a faint fringe is still a fringe
        records = [CountRecord(f"b{i}", 0.5 + 1e-9 * np.cos(b), beta=b)
                   for i, b in enumerate(BETAS)]
        assert fit_visibility(records).n0 == pytest.approx(1e-9, rel=1e-6)

    def test_too_few_betas(self):
        records = [CountRecord("a", 1.0, beta=0.0),
                   CountRecord("b", 0.5, beta=np.pi / 2),
                   CountRecord("c", 0.0, beta=np.pi)]
        with pytest.raises(FitDegenerate):
            fit_visibility(records)

    def test_degenerate_design(self):
        # four distinct betas but only two cosine values and no modulation
        records = [CountRecord(str(i), 1.0, beta=b)
                   for i, b in enumerate([np.pi / 2, -np.pi / 2, np.pi / 2, -np.pi / 2])]
        with pytest.raises(FitDegenerate):
            fit_visibility(records)


class TestPolarRetrieve:
    def test_balanced(self):
        assert polar_retrieve(1000, 1000) == pytest.approx(np.pi / 2)

    def test_three_to_one(self):
        assert polar_retrieve(3000, 1000) == pytest.approx(2 * np.pi / 3)

    def test_poles(self):
        assert polar_retrieve(0, 123) == 0.0
        assert polar_retrieve(123, 0) == pytest.approx(np.pi)

    def test_no_counts(self):
        with pytest.raises(NoCounts):
            polar_retrieve(0, 0)

    def test_identity_on_noiseless_meridian(self):
        for gamma_w in np.linspace(0.05, np.pi - 0.05, 9):
            s = qubit_state(gamma_w, 0.0, l=2)
            n_l, n_r = abs(s.coeffs[0]) ** 2, abs(s.coeffs[1]) ** 2
            assert polar_retrieve(n_r, n_l) == pytest.approx(gamma_w, abs=1e-12)

    def test_deviation_variance_shrinks_with_pulses(self):
        gammas = np.linspace(np.pi / 6, 5 * np.pi / 6, 11)

        def sweep_variance(pulses):
            devs = []
            for k, gamma_w in enumerate(gammas):
                s = qubit_state(gamma_w, 0.0, l=2)
                rec_l = simulate_counts(abs(s.coeffs[0]) ** 2, 1.0, 1.0, pulses, 0.0,
                                        seed=1000 + k)
                rec_r = simulate_counts(abs(s.coeffs[1]) ** 2, 1.0, 1.0, pulses, 0.0,
                                        seed=2000 + k)
                devs.append(polar_retrieve(rec_r.counts, rec_l.counts) - gamma_w)
            return np.var(devs)

        assert sweep_variance(2 * 10 ** 5) < sweep_variance(2 * 10 ** 2)


class TestBackgroundSubtraction:
    def test_subtract_clamps_and_flags(self):
        records = [CountRecord("a", 100, background=30),
                   CountRecord("b", 10, background=25)]
        net = subtract_background(records)
        assert net[0].counts == 70 and not net[0].clamped
        assert net[1].counts == 0 and net[1].clamped


def test_count_record_csv_round_trip(tmp_path):
    records = [
        CountRecord("beta_00", 120, background=4, acquisition=300.0, beta=0.0),
        CountRecord("L", 55, background=1, acquisition=1200.0),
    ]
    path = tmp_path / "records.csv"
    write_count_records(path, records)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert float(back[0]["beta_or_label"]) == 0.0
    assert float(back[0]["counts"]) == 120
    assert back[1]["basis_id"] == back[1]["beta_or_label"] == "L"
    assert float(back[1]["acquisition_s"]) == 1200.0


def test_write_csv_number_formats(tmp_path):
    # a str as itself, a bool or an int as its digits, any other number
    # as the repr of its float
    path = tmp_path / "formats.csv"
    write_csv(path, ["str", "true", "false", "int", "int64", "float", "float64"],
              [["L+iR", True, False, -7, np.int64(12), 0.1, np.float64(1e-17)],
               ["", True, False, 0, np.int64(-3), 2.0, np.float64(-0.0)]])
    assert path.read_bytes() == (b"str,true,false,int,int64,float,float64\r\n"
                                 b"L+iR,1,0,-7,12,0.1,1e-17\r\n"
                                 b",1,0,0,-3,2.0,-0.0\r\n")


def test_count_record_rejects_negative():
    with pytest.raises(ValueError):
        CountRecord("a", -1)
