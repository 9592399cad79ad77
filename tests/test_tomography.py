import numpy as np
import pytest

from oamem.errors import DimMismatch, InsufficientData, NoCounts, NotPSD
from oamem.measurement import CountRecord, simulate_counts
from oamem.tomography import (QUBIT_PROJECTORS, DensityMatrix, ProjectionSet, _least_squares,
                              export_density_csv, fidelity, probabilities, reconstruct,
                              resample_records, tomography_report)


def random_pure(rng, dim):
    return DensityMatrix.pure(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def haar_unitary(rng, dim):
    """Haar-random unitary: QR of a complex Gaussian matrix, with the phases
    of R's diagonal moved into Q so the draw is uniform (Mezzadri 2007)."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def records_from_probs(pset, probs, scale=1.0):
    return [CountRecord(lab, counts=scale * p) for lab, p in zip(pset.labels, probs)]


def sampled_records(pset, probs, detections, seed):
    return [simulate_counts(p, 1.0, 1.0, detections, 0.0, seed=seed * 100 + i,
                            basis_id=lab)
            for i, (lab, p) in enumerate(zip(pset.labels, probs))]


class TestProjectionSets:
    def test_qubit_labels(self):
        assert ProjectionSet.qubit().labels == ("L", "R", "L+R", "L+iR", "L-R")

    def test_qutrit_labels(self):
        assert ProjectionSet.qutrit().labels == (
            "L", "G", "R", "G-L", "G+R", "G+iL", "G-iR", "L+iR", "L-R")

    def test_projectors_normalized(self):
        for pset in (ProjectionSet.qubit(), ProjectionSet.qutrit()):
            for _, psi in pset.projectors:
                assert np.linalg.norm(psi) == pytest.approx(1.0)

    def test_design_matrix_ranks(self):
        # the full sets pin the state; three qubit projectors leave it open
        for pset in (ProjectionSet.qubit(), ProjectionSet.qutrit()):
            probs = probabilities(DensityMatrix.maximally_mixed(pset.dim), pset)
            reconstruct(records_from_probs(pset, probs), pset)
        short = ProjectionSet(2, QUBIT_PROJECTORS[:3])
        with pytest.raises(InsufficientData, match="does not determine"):
            reconstruct(records_from_probs(short, [1.0, 0.0, 0.5]), short)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.5], [0.1, 0.5]], dtype=complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSD):
            DensityMatrix(np.diag([1.2, -0.2]).astype(complex))

    def test_rejects_large_dims(self):
        with pytest.raises(DimMismatch):
            DensityMatrix(np.eye(4, dtype=complex) / 4)


class TestProbabilities:
    def test_pole_state(self):
        pset = ProjectionSet.qubit()
        p = probabilities(DensityMatrix.pure([1, 0]), pset)
        assert p == pytest.approx([1.0, 0.0, 0.5, 0.5, 0.5])

    def test_maximally_mixed(self):
        pset = ProjectionSet.qubit()
        p = probabilities(DensityMatrix.maximally_mixed(2), pset)
        assert p == pytest.approx([0.5] * 5)

    def test_circular_state(self):
        pset = ProjectionSet.qubit()
        p = dict(zip(pset.labels, probabilities(DensityMatrix.pure([1, 1j]), pset)))
        assert p["L+iR"] == pytest.approx(1.0)
        assert p["L-R"] == pytest.approx(0.5)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            probabilities(DensityMatrix.maximally_mixed(3), ProjectionSet.qubit())


class TestReconstruct:
    @pytest.mark.parametrize("pset", [ProjectionSet.qubit(), ProjectionSet.qutrit()],
                             ids=["qubit", "qutrit"])
    def test_noiseless_round_trip(self, pset, rng):
        for _ in range(100):
            rho_true = random_pure(rng, pset.dim)
            records = records_from_probs(pset, probabilities(rho_true, pset))
            rho = reconstruct(records, pset)
            assert fidelity(rho, rho_true) >= 0.9999

    def test_recovers_projection_basis_states(self):
        pset = ProjectionSet.qubit()
        for _, psi in pset.projectors:
            rho_true = DensityMatrix.pure(psi)
            records = records_from_probs(pset, probabilities(rho_true, pset))
            assert fidelity(reconstruct(records, pset), rho_true) >= 0.9999

    def test_poisson_counts_high_fidelity(self, rng):
        pset = ProjectionSet.qutrit()
        rho_true = DensityMatrix.pure([1, 1, 1])
        probs = probabilities(rho_true, pset)
        fids = [fidelity(reconstruct(sampled_records(pset, probs, 10 ** 5, seed), pset),
                         rho_true)
                for seed in range(10)]
        assert np.median(fids) >= 0.99

    def test_consistency_counts_to_infinity(self, rng):
        pset = ProjectionSet.qutrit()
        rho_true = random_pure(rng, 3)
        probs = probabilities(rho_true, pset)
        dists = []
        for detections in (10 ** 3, 10 ** 5, 10 ** 7):
            d = [0.5 * np.abs(np.linalg.eigvalsh(
                    reconstruct(sampled_records(pset, probs, detections, seed), pset).matrix
                    - rho_true.matrix)).sum()
                 for seed in range(5)]
            dists.append(np.median(d))
        assert dists[0] > dists[1] > dists[2]

    def test_missing_record(self):
        pset = ProjectionSet.qubit()
        records = records_from_probs(pset, probabilities(DensityMatrix.pure([1, 0]), pset))
        with pytest.raises(InsufficientData):
            reconstruct(records[:-1], pset)

    def test_zero_reference_counts(self):
        pset = ProjectionSet.qubit()
        records = [CountRecord(lab, counts=0.0) for lab in pset.labels]
        with pytest.raises(NoCounts):
            reconstruct(records, pset)

    def test_linear_inversion_missing_record(self):
        pset = ProjectionSet.qutrit()
        records = records_from_probs(pset, probabilities(DensityMatrix.pure([1, 1, 1]), pset))
        with pytest.raises(InsufficientData):
            _least_squares(records[1:], pset)

    def test_linear_inversion_zero_reference_counts(self):
        pset = ProjectionSet.qubit()
        records = [CountRecord(lab, counts=0.0) for lab in pset.labels]
        with pytest.raises(NoCounts):
            _least_squares(records, pset)

    def test_ml_refinement_close_to_linear(self, rng):
        pset = ProjectionSet.qubit()
        rho_true = random_pure(rng, 2)
        probs = probabilities(rho_true, pset)
        records = sampled_records(pset, probs, 10 ** 4, seed=5)
        f_lin = fidelity(reconstruct(records, pset), rho_true)
        f_ml = fidelity(reconstruct(records, pset, max_likelihood=True), rho_true)
        assert f_ml >= f_lin - 0.02

    def test_psd_projection_bound(self, rng):
        # clipping negative mass mu and renormalizing moves the state by
        # exactly 2 mu in trace norm, and at most that in squared fidelity
        pset = ProjectionSet.qubit()
        rho_true = random_pure(rng, 2)
        probs = probabilities(rho_true, pset)
        records = sampled_records(pset, probs, 200, seed=3)
        raw = _least_squares(records, pset)[1]
        vals = np.linalg.eigvalsh(raw)
        mu = float(np.abs(vals[vals < 0]).sum())
        rho = reconstruct(records, pset)
        tn = 0.5 * np.abs(np.linalg.eigvalsh(rho.matrix - raw)).sum()
        assert tn <= mu + 1e-12
        psi = rho_true.matrix  # pure projector
        f_raw = float(np.real(np.trace(psi @ raw)))
        f_proj = float(np.real(np.trace(psi @ rho.matrix)))
        assert abs(f_proj - f_raw) <= 2 * mu + 1e-12


class TestFidelity:
    def test_self_unity(self, rng):
        rho = random_pure(rng, 3)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_zero(self):
        assert fidelity(DensityMatrix.pure([1, 0]), DensityMatrix.pure([0, 1])) == 0.0

    def test_mixed_vs_pure(self):
        f = fidelity(DensityMatrix.maximally_mixed(2), DensityMatrix.pure([1, 0]))
        assert f == pytest.approx(1 / np.sqrt(2), rel=1e-12)

    def test_symmetric(self, rng):
        a, b = random_pure(rng, 3), DensityMatrix.maximally_mixed(3)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)

    def test_unitary_invariance(self, rng):
        a, b = random_pure(rng, 3), random_pure(rng, 3)
        u = haar_unitary(np.random.default_rng(7), 3)
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)
        ua = DensityMatrix(u @ a.matrix @ u.conj().T)
        ub = DensityMatrix(u @ b.matrix @ u.conj().T)
        assert fidelity(ua, ub) == pytest.approx(fidelity(a, b), abs=1e-10)

    def test_squared_convention(self, rng):
        # squared, the fidelity to a pure state is the transition probability
        a, b = random_pure(rng, 2), random_pure(rng, 2)
        assert fidelity(a, b) ** 2 == pytest.approx(
            np.real(np.trace(a.matrix @ b.matrix)), rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            fidelity(DensityMatrix.maximally_mixed(2), DensityMatrix.maximally_mixed(3))

    def test_pure_reference_shortcut(self, rng):
        rho = DensityMatrix.maximally_mixed(3)
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        direct = np.sqrt(np.real(psi.conj() @ rho.matrix @ psi))
        assert fidelity(rho, DensityMatrix.pure(psi)) == pytest.approx(direct, rel=1e-10)


def test_resample_deterministic():
    records = [CountRecord("L", 100), CountRecord("R", 50)]
    a = resample_records(records, seed=4)
    b = resample_records(records, seed=4)
    assert [r.counts for r in a] == [r.counts for r in b]


def test_exports(tmp_path, rng):
    pset = ProjectionSet.qubit()
    rho = random_pure(rng, 2)
    path = tmp_path / "rho.csv"
    export_density_csv(rho, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "row,col,re,im"
    assert len(lines) == 5
    probs = probabilities(rho, pset)
    records = records_from_probs(pset, probs, scale=1000)
    report = tomography_report(pset, records, probs, rho, 0.998)
    assert "fidelity = 0.998" in report
    assert "L+iR" in report


def test_report_prints_no_sign_of_rounding_noise():
    # reconstructed rho keeps imaginary parts of about 1e-17 on its diagonal;
    # their sign must not reach the report
    pset = ProjectionSet.qubit()
    base = np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]], dtype=complex)
    reports = []
    for noise in (1e-17, -1e-17):
        rho = DensityMatrix(base + np.diag([1j * noise, -1j * noise]))
        probs = probabilities(rho, pset)
        reports.append(tomography_report(pset, records_from_probs(pset, probs, 1000),
                                         probs, rho, 0.99))
    assert reports[0] == reports[1]
    assert "+0.700000+0.000000j  +0.100000-0.200000j" in reports[0]


def test_design_built_once_per_projection_set():
    assert ProjectionSet.qubit() is ProjectionSet.qubit()
    basis, rows, determined = ProjectionSet.qutrit().design
    assert ProjectionSet.qutrit().design[1] is rows
    assert determined and rows.shape == (9, 8) and not rows.flags.writeable
    assert not ProjectionSet(2, QUBIT_PROJECTORS[:3]).design[2]
