import numpy as np
import pytest
from oracles import pure_density, uhlmann_fidelity

from oamem.errors import DimMismatch, InsufficientData, NoCounts, NotPSD
from oamem.measurement import CountRecord, simulate_counts
from oamem.tomography import (PROJECTION_SETS, QUBIT_PROJECTORS, QUTRIT_PROJECTORS,
                              DensityMatrix, ProjectionSet, _born, _least_squares,
                              export_density_csv, fidelity, probabilities, reconstruct,
                              tomography_report)


def random_ket(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_pure(rng, dim):
    return pure_density(random_ket(rng, dim))


def random_mixed(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = z @ z.conj().T
    return DensityMatrix(m / np.trace(m).real)


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
        assert PROJECTION_SETS[2].labels == ("L", "R", "L+R", "L+iR", "L-R")

    def test_qutrit_labels(self):
        assert PROJECTION_SETS[3].labels == (
            "L", "G", "R", "G-L", "G+R", "G+iL", "G-iR", "L+iR", "L-R")

    def test_tables_open_with_the_basis_in_basis_order(self):
        # pole_labels reads the first dim labels, so those kets must be the
        # basis vectors: [L, R] for a qubit, [L, G, R] for a qutrit
        for pset, poles in ((PROJECTION_SETS[2], ("L", "R")),
                            (PROJECTION_SETS[3], ("L", "G", "R"))):
            kets = np.array([psi for _, psi in pset.projectors[:pset.dim]])
            assert np.array_equal(kets, np.eye(pset.dim))
            assert pset.pole_labels == poles

    def test_projectors_normalized(self):
        for pset in (PROJECTION_SETS[2], PROJECTION_SETS[3]):
            for _, psi in pset.projectors:
                assert np.linalg.norm(psi) == pytest.approx(1.0)

    def test_design_matrix_ranks(self):
        # the full sets pin the state; three qubit projectors leave it open
        for pset in (PROJECTION_SETS[2], PROJECTION_SETS[3]):
            probs = probabilities(DensityMatrix(np.eye(pset.dim) / pset.dim), pset)
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
        pset = PROJECTION_SETS[2]
        p = probabilities(pure_density([1, 0]), pset)
        assert p == pytest.approx([1.0, 0.0, 0.5, 0.5, 0.5])

    def test_maximally_mixed(self):
        pset = PROJECTION_SETS[2]
        p = probabilities(DensityMatrix(np.eye(2) / 2), pset)
        assert p == pytest.approx([0.5] * 5)

    def test_circular_state(self):
        pset = PROJECTION_SETS[2]
        p = dict(zip(pset.labels, probabilities(pure_density([1, 1j]), pset)))
        assert p["L+iR"] == pytest.approx(1.0)
        assert p["L-R"] == pytest.approx(0.5)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            probabilities(DensityMatrix(np.eye(3) / 3), PROJECTION_SETS[2])


class TestReconstruct:
    @pytest.mark.parametrize("pset", [PROJECTION_SETS[2], PROJECTION_SETS[3]],
                             ids=["qubit", "qutrit"])
    def test_noiseless_round_trip(self, pset, rng):
        for _ in range(100):
            psi = random_ket(rng, pset.dim)
            records = records_from_probs(pset, probabilities(pure_density(psi), pset))
            rho = reconstruct(records, pset)
            assert fidelity(rho, psi) >= 0.9999

    def test_recovers_projection_basis_states(self):
        pset = PROJECTION_SETS[2]
        for _, psi in pset.projectors:
            rho_true = pure_density(psi)
            records = records_from_probs(pset, probabilities(rho_true, pset))
            assert fidelity(reconstruct(records, pset), psi) >= 0.9999

    def test_poisson_counts_high_fidelity(self, rng):
        pset = PROJECTION_SETS[3]
        psi = np.ones(3) / np.sqrt(3)
        probs = probabilities(pure_density(psi), pset)
        fids = [fidelity(reconstruct(sampled_records(pset, probs, 10 ** 5, seed), pset), psi)
                for seed in range(10)]
        assert np.median(fids) >= 0.99

    def test_consistency_counts_to_infinity(self, rng):
        pset = PROJECTION_SETS[3]
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
        pset = PROJECTION_SETS[2]
        records = records_from_probs(pset, probabilities(pure_density([1, 0]), pset))
        with pytest.raises(InsufficientData):
            reconstruct(records[:-1], pset)

    def test_zero_reference_counts(self):
        pset = PROJECTION_SETS[2]
        records = [CountRecord(lab, counts=0.0) for lab in pset.labels]
        with pytest.raises(NoCounts):
            reconstruct(records, pset)

    def test_linear_inversion_missing_record(self):
        pset = PROJECTION_SETS[3]
        records = records_from_probs(pset, probabilities(pure_density([1, 1, 1]), pset))
        with pytest.raises(InsufficientData):
            _least_squares(records[1:], pset)

    def test_linear_inversion_zero_reference_counts(self):
        pset = PROJECTION_SETS[2]
        records = [CountRecord(lab, counts=0.0) for lab in pset.labels]
        with pytest.raises(NoCounts):
            _least_squares(records, pset)

    def test_ml_refinement_close_to_linear(self, rng):
        pset = PROJECTION_SETS[2]
        psi = random_ket(rng, 2)
        probs = probabilities(pure_density(psi), pset)
        records = sampled_records(pset, probs, 10 ** 4, seed=5)
        f_lin = fidelity(reconstruct(records, pset), psi)
        f_ml = fidelity(reconstruct(records, pset, max_likelihood=True), psi)
        assert f_ml >= f_lin - 0.02

    def test_psd_projection_bound(self, rng):
        # clipping negative mass mu and renormalizing moves the state by
        # exactly 2 mu in trace norm, and at most that in squared fidelity
        pset = PROJECTION_SETS[2]
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
        psi = random_ket(rng, 3)
        assert fidelity(pure_density(psi), psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_zero(self):
        assert fidelity(pure_density([1, 0]), np.array([0, 1])) == 0.0

    def test_mixed_vs_pure(self):
        f = fidelity(DensityMatrix(np.eye(2) / 2), np.array([1, 0]))
        assert f == pytest.approx(1 / np.sqrt(2), rel=1e-12)

    def test_symmetric(self, rng):
        # between two pure states the fidelity is |<a|b>| either way round
        a, b = random_ket(rng, 3), random_ket(rng, 3)
        assert fidelity(pure_density(a), b) == pytest.approx(
            fidelity(pure_density(b), a), abs=1e-12)
        assert fidelity(pure_density(a), b) == pytest.approx(abs(np.vdot(a, b)), abs=1e-12)

    def test_unitary_invariance(self, rng):
        rho, psi = random_mixed(rng, 3), random_ket(rng, 3)
        u = haar_unitary(np.random.default_rng(7), 3)
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)
        urho = DensityMatrix(u @ rho.matrix @ u.conj().T)
        assert fidelity(urho, u @ psi) == pytest.approx(fidelity(rho, psi), abs=1e-10)

    def test_squared_convention(self, rng):
        # squared, the fidelity to a pure state is the transition probability
        rho, psi = random_mixed(rng, 2), random_ket(rng, 2)
        assert fidelity(rho, psi) ** 2 == pytest.approx(
            np.real(np.trace(rho.matrix @ np.outer(psi, psi.conj()))), rel=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            fidelity(DensityMatrix(np.eye(2) / 2), np.ones(3) / np.sqrt(3))

    def test_pure_reference_shortcut(self, rng):
        rho = DensityMatrix(np.eye(3) / 3)
        psi = random_ket(rng, 3)
        direct = np.sqrt(np.real(psi.conj() @ rho.matrix @ psi))
        assert fidelity(rho, psi) == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_equals_the_uhlmann_oracle(self, dim, rng):
        for _ in range(200):
            rho, psi = random_mixed(rng, dim), random_ket(rng, dim)
            expected = uhlmann_fidelity(rho.matrix, np.outer(psi, psi.conj()))
            assert abs(fidelity(rho, psi) - expected) <= 1e-12


def test_exports(tmp_path, rng):
    pset = PROJECTION_SETS[2]
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
    pset = PROJECTION_SETS[2]
    base = np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]], dtype=complex)
    reports = []
    for noise in (1e-17, -1e-17):
        rho = DensityMatrix(base + np.diag([1j * noise, -1j * noise]))
        probs = probabilities(rho, pset)
        reports.append(tomography_report(pset, records_from_probs(pset, probs, 1000),
                                         probs, rho, 0.99))
    assert reports[0] == reports[1]
    assert "+0.700000+0.000000j  +0.100000-0.200000j" in reports[0]


def test_design_built_once_per_projection_set(monkeypatch):
    assert PROJECTION_SETS[2] is PROJECTION_SETS[2]
    basis, inverse = PROJECTION_SETS[3].design
    assert PROJECTION_SETS[3].design[1] is inverse
    assert basis.shape == (8, 3, 3) and inverse.shape == (8, 9)
    assert not basis.flags.writeable and not inverse.flags.writeable
    with pytest.raises(InsufficientData, match="does not determine"):
        ProjectionSet(2, QUBIT_PROJECTORS[:3]).design
    # a fresh set inverts its design once, however many records it reconstructs
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda a: calls.append(a) or pinv(a))
    pset = ProjectionSet(3, QUTRIT_PROJECTORS)
    probs = probabilities(DensityMatrix(np.eye(3) / 3), pset)
    for _ in range(3):
        reconstruct(records_from_probs(pset, probs), pset)
    assert len(calls) == 1


@pytest.mark.parametrize("pset", [PROJECTION_SETS[2], PROJECTION_SETS[3]],
                         ids=["qubit", "qutrit"])
def test_design_rows_are_born_traces(pset):
    basis, _ = pset.design
    rows = _born(pset.kets, basis)
    for psi, row in zip(pset.kets, rows):
        proj = np.outer(psi, psi.conj())
        expected = [np.real(np.trace(op @ proj)) for op in basis]
        assert np.max(np.abs(row - expected)) <= 1e-15


@pytest.mark.parametrize("pset", [PROJECTION_SETS[2], PROJECTION_SETS[3]],
                         ids=["qubit", "qutrit"])
def test_cached_inverse_matches_lstsq_on_poisson_counts(pset, rng):
    basis, _ = pset.design
    rows = _born(pset.kets, basis)
    for seed in range(20):
        probs = probabilities(random_mixed(rng, pset.dim), pset)
        freqs, raw = _least_squares(sampled_records(pset, probs, 2000, seed), pset)
        coeffs, *_ = np.linalg.lstsq(rows, freqs - 1.0 / pset.dim, rcond=None)
        expected = np.eye(pset.dim) / pset.dim + np.tensordot(coeffs, basis, axes=1)
        assert np.max(np.abs(raw - expected)) <= 1e-13


def test_reconstruct_solves_no_least_squares(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("reconstruct called np.linalg.lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    pset = ProjectionSet(3, QUTRIT_PROJECTORS)  # its design is built under the patch too
    psi = np.array([1, 1j, -1]) / np.sqrt(3)
    rho = reconstruct(records_from_probs(pset, probabilities(pure_density(psi), pset)),
                      pset)
    assert fidelity(rho, psi) == pytest.approx(1.0, abs=1e-12)
