import numpy as np
import pytest

from oamem.errors import (DimMismatch, DomainError, FitDegenerate, MissingBasis,
                          NoCounts)
from oamem.measurement import (CountRecord, CountingConfig, TransmittanceTable,
                               correct_transmittance, fit_visibility,
                               interference_scan, polar_retrieve,
                               read_count_records, simulate_counts,
                               subtract_background, write_count_records)
from oamem.modes import qubit_state, qutrit_state

BETAS = [2 * np.pi * i / 12 for i in range(12)]


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
    def test_ideal_curve_shape(self):
        state = qubit_state(np.pi / 2, 0.0, l=2)
        records = interference_scan(state, 2, BETAS, None)
        for rec in records:
            assert rec.counts == pytest.approx((1 + np.cos(rec.beta)) / 2, abs=1e-12)

    def test_twelve_points_per_period(self):
        records = interference_scan(qubit_state(np.pi / 2, 0.0, l=2), 2, BETAS, None)
        assert len(records) == 12
        assert np.allclose(np.diff([r.beta for r in records]), np.pi / 6)

    def test_pole_state_flat(self):
        records = interference_scan(qubit_state(0.0, 0.0, l=2), 2, BETAS, None)
        assert all(r.counts == pytest.approx(0.5, abs=1e-12) for r in records)

    def test_qutrit_rejected(self):
        with pytest.raises(DimMismatch):
            interference_scan(qutrit_state(1, 1, 1, l=1), 1, BETAS, None)

    def test_charge_mismatch_rejected(self):
        with pytest.raises(DimMismatch):
            interference_scan(qubit_state(0.3, 0.0, l=2), 3, BETAS, None)

    def test_poisson_deterministic(self):
        cfg = CountingConfig(n_bar=10.0, efficiency=0.5, pulses=10 ** 4)
        state = qubit_state(np.pi / 2, 0.0, l=2)
        a = interference_scan(state, 2, BETAS, cfg, seeds=list(range(12)))
        b = interference_scan(state, 2, BETAS, cfg, seeds=list(range(12)))
        assert [r.counts for r in a] == [r.counts for r in b]


class TestFitVisibility:
    def test_ideal_data_unit_visibility(self):
        records = interference_scan(qubit_state(np.pi / 2, 0.0, l=2), 2, BETAS, None)
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
        cfg = CountingConfig(n_bar=50.0, efficiency=0.04, pulses=3 * 10 ** 4)
        records = interference_scan(qubit_state(np.pi / 2, 0.0, l=2), 2, BETAS,
                                    cfg, seeds=list(range(12)))
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


class TestBackgroundAndTransmittance:
    def test_subtract_clamps_and_flags(self):
        records = [CountRecord("a", 100, background=30),
                   CountRecord("b", 10, background=25)]
        net = subtract_background(records)
        assert net[0].counts == 70 and not net[0].clamped
        assert net[1].counts == 0 and net[1].clamped

    def test_uniform_table_identity(self):
        records = [CountRecord("a", 100.0), CountRecord("b", 60.0)]
        table = TransmittanceTable({"a": 0.8, "b": 0.8})
        out = correct_transmittance(records, table)
        assert [r.counts for r in out] == [100.0, 60.0]

    def test_half_transmittance_doubles(self):
        records = [CountRecord("a", 100.0), CountRecord("b", 50.0)]
        table = TransmittanceTable({"a": 1.0, "b": 0.5})
        out = correct_transmittance(records, table)
        assert out[0].counts == 100.0
        assert out[1].counts == 100.0

    def test_missing_basis(self):
        with pytest.raises(MissingBasis):
            correct_transmittance([CountRecord("zz", 5.0)],
                                  TransmittanceTable({"a": 1.0}))

    def test_subtract_then_correct_order(self):
        # correction divides counts and background alike, so the documented
        # order (subtract, then correct) agrees with the reverse
        records = [CountRecord("a", 100.0, background=10.0),
                   CountRecord("b", 80.0, background=10.0)]
        table = TransmittanceTable({"a": 1.0, "b": 0.5})
        first = correct_transmittance(subtract_background(records), table)
        second = subtract_background(correct_transmittance(records, table))
        assert [r.counts for r in first] == [r.counts for r in second]

    def test_rejects_bad_table(self):
        with pytest.raises(ValueError):
            TransmittanceTable({"a": 1.5})


def test_count_record_csv_round_trip(tmp_path):
    records = [
        CountRecord("beta_00", 120, background=4, acquisition=300.0, beta=0.0),
        CountRecord("L", 55, background=1, acquisition=1200.0),
    ]
    path = tmp_path / "records.csv"
    write_count_records(path, records)
    back = read_count_records(path)
    assert back[0].beta == 0.0
    assert back[0].counts == 120
    assert back[1].basis_id == "L"
    assert back[1].beta is None
    assert back[1].acquisition == 1200.0


def test_count_record_rejects_negative():
    with pytest.raises(ValueError):
        CountRecord("a", -1)
