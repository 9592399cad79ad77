import numpy as np
import pytest
from oracles import read_pgm

from oamem.errors import InvalidCharge
from oamem.fieldgrid import GridSpec, TransverseField
from oamem.holography import (PhaseHologram, export_pgm_hologram, focal_basis_phases,
                              fraunhofer, project_and_couple, qubit_hologram, qutrit_hologram)
from oamem.modes import LGModeSpec, QuditState, decompose, lg_field, qubit_state, synthesize

LAMBDA = 795e-9
FOCAL = 0.5
W_IN = 1e-3


@pytest.fixture(scope="module")
def slm_grid():
    return GridSpec(512, 8e-3)


@pytest.fixture(scope="module")
def gaussian_in(slm_grid):
    return lg_field(LGModeSpec(0, W_IN), slm_grid, LAMBDA)


class TestQubitHologram:
    def test_l2_sector_pattern(self, grid):
        h = qubit_hologram(2, grid)
        _, phi = grid.polar()
        expected = np.where(np.cos(2 * phi) >= 0, 0.0, np.pi)
        assert np.array_equal(h.phase, expected)
        assert set(np.unique(h.phase)) <= {0.0, np.pi}

    def test_l1_half_planes(self, grid):
        h = qubit_hologram(1, grid)
        x, _ = grid.mesh()
        # cos(phi) > 0 on the right half plane
        assert np.all(h.phase[(x > 1e-9)] == 0.0)
        assert np.all(h.phase[(x < -1e-9)] == np.pi)

    def test_rejects_zero_charge(self, grid):
        with pytest.raises(InvalidCharge):
            qubit_hologram(0, grid)


class TestPhaseHologram:
    @pytest.mark.parametrize("value", [np.pi / 2, 1e-6, np.pi + 1e-6])
    def test_rejects_non_binary_phase(self, grid, value):
        phase = np.zeros((grid.n, grid.n))
        phase[3, 5] = value
        with pytest.raises(ValueError, match="0 or pi"):
            PhaseHologram(grid, phase)

    def test_wraps_a_binary_phase(self, grid):
        phase = np.where(grid.mesh()[0] > 0, 2.0 * np.pi, -np.pi)
        h = PhaseHologram(grid, phase)
        assert set(np.unique(h.phase)) == {0.0, np.pi}


class TestQutritHologram:
    def test_sign_rule(self, grid):
        w0 = 300e-6
        h = qutrit_hologram(1, w0, grid)
        x, _ = grid.mesh()
        arg = 1.0 + 2.0 * np.sqrt(2.0) * x / w0
        assert np.all(h.phase[arg > 0] == 0.0)
        assert np.all(h.phase[arg < 0] == np.pi)
        assert set(np.unique(h.phase)) <= {0.0, np.pi}

    def test_boundary_is_vertical_line(self, grid):
        w0 = 300e-6
        h = qutrit_hologram(1, w0, grid)
        xs = grid.xs()
        boundary = -w0 / (2 * np.sqrt(2))
        for row in (0, grid.n // 2, grid.n - 1):
            cross = xs[np.argmax(h.phase[row, :] == 0.0)]
            assert abs(cross - boundary) <= grid.pitch

    def test_rejects_other_charges(self, grid):
        with pytest.raises(InvalidCharge):
            qutrit_hologram(2, 300e-6, grid)


class TestFraunhofer:
    def test_gaussian_waist_mapping(self, gaussian_in):
        far = fraunhofer(gaussian_in, FOCAL)
        xs = far.grid.xs()
        row = np.abs(far.values[far.grid.n // 2, :])
        mask = row > row.max() * 1e-3
        slope = np.polyfit(xs[mask] ** 2, np.log(row[mask]), 1)[0]
        expected = LAMBDA * FOCAL / (np.pi * W_IN)
        assert np.sqrt(-1.0 / slope) == pytest.approx(expected, rel=1e-4)

    def test_norm_conserved(self, gaussian_in):
        far = fraunhofer(gaussian_in, FOCAL)
        assert far.norm() == pytest.approx(gaussian_in.norm(), rel=1e-12)

    def test_double_transform_is_parity(self, grid, rng):
        v = rng.normal(size=(grid.n, grid.n)) + 1j * rng.normal(size=(grid.n, grid.n))
        f = TransverseField(grid, v, LAMBDA)
        out = fraunhofer(fraunhofer(f, FOCAL), FOCAL)
        assert out.grid.extent == pytest.approx(grid.extent)
        expected = np.roll(v[::-1, ::-1], 1, axis=(0, 1))
        assert np.max(np.abs(out.values - expected)) < 1e-10 * np.max(np.abs(v))

    def test_rejects_bad_focal(self, gaussian_in):
        with pytest.raises(ValueError):
            fraunhofer(gaussian_in, 0.0)


class TestBinaryMaskDiffraction:
    """Far-field mode content of the hard 0/pi masks."""

    def test_qubit_mask_feeds_the_qubit(self, slm_grid, gaussian_in):
        # square-wave azimuthal fundamental times the best Gaussian->LG2
        # radial overlap: (8/pi^2) * (27/32) ~ 0.6839 of the power
        far = fraunhofer(qubit_hologram(2, slm_grid).imprint(gaussian_in), FOCAL)
        w_t = np.sqrt(3.0) * LAMBDA * FOCAL / (np.pi * W_IN)
        amp = project_and_couple(far, qubit_state(np.pi / 2, 0.0, l=2), w_t)
        assert abs(amp) ** 2 == pytest.approx(27.0 / (4.0 * np.pi ** 2), abs=5e-3)
        assert abs(amp) ** 2 > 0.65

    def test_qubit_mask_dark_for_gaussian(self, slm_grid, gaussian_in):
        # symmetry-forced zero; pixels straddling the sector boundaries
        # leave a small grid residual
        far = fraunhofer(qubit_hologram(2, slm_grid).imprint(gaussian_in), FOCAL)
        g_amp = project_and_couple(far, QuditState([0, 1, 0], l=2),
                                   LAMBDA * FOCAL / (np.pi * W_IN))
        assert abs(g_amp) ** 2 < 1e-6

    def test_qutrit_mask_content(self, slm_grid, gaussian_in):
        far = fraunhofer(qutrit_hologram(1, W_IN, slm_grid).imprint(gaussian_in), FOCAL)
        w_t = LAMBDA * FOCAL / (np.pi * W_IN)
        c = decompose(far, 1, 3, w_t)
        assert abs(c[0] - c[2]) < 1e-10  # L/R equality is symmetry-forced
        assert all(abs(ci) > 0.1 for ci in c)

    def test_qutrit_mask_nodal_line_after_phase_correction(self, slm_grid, gaussian_in):
        # the lens multiplies each |l| family by (-i)^|l|; in the corrected
        # basis the coefficients are real, and on the centre row the l = 1
        # qutrit c_G + (c_L + c_R) sqrt(2) x / w_t (times a Gaussian) is dark
        # at x0 = -c_G w_t / (sqrt(2) (c_L + c_R)); the mask was cut for the
        # equal qutrit, dark at -w_t / (2 sqrt(2)), and the binary mask's
        # projection lies close to it
        far = fraunhofer(qutrit_hologram(1, W_IN, slm_grid).imprint(gaussian_in), FOCAL)
        w_t = LAMBDA * FOCAL / (np.pi * W_IN)
        c = (decompose(far, 1, 3, w_t)
             / focal_basis_phases((1, 0, -1)))
        assert np.max(np.abs(c.imag)) < 1e-6
        c = c.real / np.linalg.norm(c.real)
        x0 = -c[1] * w_t / (np.sqrt(2.0) * (c[0] + c[2]))
        # the far field samples w_t with 2.5 pixels; resynthesize on a grid
        # fine enough to place the dark line, and search it within w_t of the
        # axis, where the Gaussian keeps the intensity above e^-2 of its peak
        fine = GridSpec(256, 10 * w_t)
        resynth = synthesize(QuditState(c, l=1), w_t, fine, LAMBDA)
        xs = fine.xs()
        inten = np.abs(resynth.values[fine.n // 2, :]) ** 2
        node = xs[np.argmin(np.where(np.abs(xs) < w_t, inten, np.inf))]
        assert abs(node - x0) <= fine.pitch
        assert abs(node + w_t / (2.0 * np.sqrt(2.0))) < 0.1 * w_t

    def test_l2_pattern_fourfold_symmetric(self, slm_grid, gaussian_in):
        far = fraunhofer(qubit_hologram(2, slm_grid).imprint(gaussian_in), FOCAL)
        inten = np.abs(far.values) ** 2
        n = slm_grid.n
        idx = np.arange(n)
        # rotation about the q = 0 sample; pixels straddling the mask's
        # sector boundaries set the symmetry floor
        quarter = inten[((n - idx) % n)[None, :], idx[:, None]]
        assert np.max(np.abs(inten - quarter)) < 1e-3 * inten.max()
        # a real mask's far-field intensity is inversion symmetric exactly
        half = inten[((n - idx) % n)[:, None], ((n - idx) % n)[None, :]]
        assert np.max(np.abs(inten - half)) < 1e-12 * inten.max()


class TestProjectAndCouple:
    def test_self_projection_unity(self, grid, rng):
        state = QuditState(rng.normal(size=3) + 1j * rng.normal(size=3), l=1)
        f = synthesize(state, 200e-6, grid)
        assert abs(project_and_couple(f, state, 200e-6)) ** 2 == pytest.approx(1.0, abs=1e-8)

    def test_orthogonal_projection_zero(self, grid):
        f = synthesize(qubit_state(0.0, 0.0, l=2), 200e-6, grid)  # |L>
        amp = project_and_couple(f, qubit_state(np.pi, 0.0, l=2), 200e-6)  # |R>
        assert abs(amp) ** 2 < 1e-8

    def test_beta_scan_interference(self, grid):
        f = synthesize(qubit_state(np.pi / 2, 0.0, l=2), 200e-6, grid)
        for beta in np.linspace(0, 2 * np.pi, 7):
            target = qubit_state(np.pi / 2, beta, l=2)
            p = abs(project_and_couple(f, target, 200e-6)) ** 2
            assert p == pytest.approx((1 + np.cos(beta)) / 2, abs=1e-8)

    def test_incompatible_geometry_rejected(self, grid):
        # the projection mode is built on the field's own grid, so the
        # geometric failure mode is a mode that cannot fit it
        from oamem.errors import GridTooSmall
        f = synthesize(qubit_state(0.3, 0.0, l=2), 200e-6, grid)
        with pytest.raises(GridTooSmall):
            project_and_couple(f, qubit_state(0.3, 0.0, l=2), grid.extent)

    def test_born_rule_consistency(self, grid, rng):
        # field-space projections agree with mode-space Born probabilities
        from oamem.tomography import PROJECTION_SETS, DensityMatrix, probabilities
        for dim, pset in ((2, PROJECTION_SETS[2]), (3, PROJECTION_SETS[3])):
            state = QuditState(rng.normal(size=dim) + 1j * rng.normal(size=dim), l=1)
            f = synthesize(state, 200e-6, grid)
            born = probabilities(DensityMatrix.pure(state.coeffs), pset)
            for (label, psi), expected in zip(pset.projectors, born):
                amp = project_and_couple(f, QuditState(psi, l=1), 200e-6)
                assert abs(amp) ** 2 == pytest.approx(expected, abs=1e-6), label


def test_hologram_pgm_mapping(tmp_path, grid):
    h = qubit_hologram(2, grid)
    path = tmp_path / "holo.pgm"
    export_pgm_hologram(h, path)
    img = read_pgm(path)
    assert set(np.unique(img)) == {0, 255}
    assert np.array_equal(img == 255, h.phase == np.pi)
