import numpy as np
import pytest
from oracles import lg_amplitude

from oamem.errors import DimMismatch, GridTooSmall
from oamem.fieldgrid import GridSpec, TransverseField, inner_product
from oamem.holography import fraunhofer, qubit_hologram
from oamem.modes import (LGModeSpec, QuditState, basis_charges, decompose, lg_field,
                         qubit_state, qutrit_state, state_from_field, synthesize)

W0 = 200e-6


class TestLGModeSpec:
    def test_rejects_bad_waist(self):
        with pytest.raises(ValueError):
            LGModeSpec(1, -1e-4)


class TestLGField:
    def test_fundamental_gaussian_constant_phase(self, grid):
        f = lg_field(LGModeSpec(0, W0), grid)
        phases = np.angle(f.values[np.abs(f.values) > 1e-6 * np.abs(f.values).max()])
        assert np.ptp(phases) < 1e-9

    def test_l2_null_at_origin(self, grid):
        f = lg_field(LGModeSpec(2, W0), grid)
        n = grid.n
        assert abs(f.values[n // 2, n // 2]) == 0.0

    def test_l2_phase_winds_4pi(self, grid):
        f = lg_field(LGModeSpec(2, W0), grid)
        angles = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        idx_x = (np.round(W0 * np.cos(angles) / grid.pitch).astype(int) + grid.n // 2)
        idx_y = (np.round(W0 * np.sin(angles) / grid.pitch).astype(int) + grid.n // 2)
        phases = np.angle(f.values[idx_y, idx_x])
        winding = np.sum(np.angle(np.exp(1j * np.diff(np.append(phases, phases[0])))))
        assert winding == pytest.approx(4 * np.pi, rel=1e-6)

    def test_unit_norm(self, grid):
        f = lg_field(LGModeSpec(1, W0), grid)
        assert abs(inner_product(f, f) - 1.0) < 1e-10

    def test_orthonormal_family(self, wide_grid):
        modes = {l: lg_field(LGModeSpec(l, W0), wide_grid) for l in range(-3, 4)}
        for l1, a in modes.items():
            for l2, b in modes.items():
                expected = 1.0 if l1 == l2 else 0.0
                assert abs(inner_product(a, b) - expected) < 1e-8

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmall):
            lg_field(LGModeSpec(3, W0), GridSpec(64, 2e-3))

    @pytest.mark.parametrize("l", range(-3, 4))
    def test_matches_polar_form(self, wide_grid, l):
        # the separable build equals r^|l| e^{i l phi} exp(-r^2/w0^2) on the grid
        grid = GridSpec(wide_grid.n, wide_grid.extent, center=(3e-4, -2e-4))
        r, phi = grid.polar()
        ref = lg_amplitude(l, W0, r, phi)
        ref = ref / np.sqrt(np.sum(np.abs(ref) ** 2) * grid.pixel_area)
        got = lg_field(LGModeSpec(l, W0), grid).values
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestQuditState:
    def test_normalizes(self):
        s = QuditState(np.array([3.0, 4.0]), l=1)
        assert np.linalg.norm(s.coeffs) == pytest.approx(1.0)

    def test_rejects_bad_length(self):
        with pytest.raises(DimMismatch):
            QuditState(np.ones(4), l=1)

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            QuditState(np.zeros(2), l=1)

    def test_rejects_zero_charge(self):
        with pytest.raises(ValueError):
            QuditState(np.array([1.0, 0.0]), l=0)

    def test_charges_ordering(self):
        assert qutrit_state(1, 1, 1, l=2).charges() == (2, 0, -2)
        assert qubit_state(0.3, 0.1, l=3).charges() == (3, -3)


class TestQubitState:
    def test_pole(self):
        s = qubit_state(0.0, 0.0, l=2)
        assert np.allclose(s.coeffs, [1.0, 0.0])

    def test_equal_superposition(self):
        s = qubit_state(np.pi / 2, 0.0, l=2)
        assert np.allclose(s.coeffs, np.array([1.0, 1.0]) / np.sqrt(2))

    def test_circular(self):
        s = qubit_state(np.pi / 2, np.pi / 2, l=2)
        assert np.allclose(s.coeffs, np.array([1.0, 1.0j]) / np.sqrt(2))


class TestSynthesize:
    def test_overlap_recovers_coefficients(self, grid, rng):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        state = QuditState(v, l=1)
        f = synthesize(state, W0, grid)
        for coeff, charge in zip(state.coeffs, state.charges()):
            mode = lg_field(LGModeSpec(charge, W0), grid)
            assert abs(inner_product(mode, f) - coeff) < 1e-8

    def test_pure_g_is_gaussian(self, grid):
        f = synthesize(qutrit_state(0, 1, 0, l=1), W0, grid)
        ref = lg_field(LGModeSpec(0, W0), grid)
        assert np.max(np.abs(f.values - ref.values)) < 1e-12 * np.abs(ref.values).max()

    def test_four_petals_with_pi_phase_flips(self, grid):
        # |L> + |R> at l=2 is ~ cos(2 phi): four lobes, adjacent lobes out of phase
        f = synthesize(qubit_state(np.pi / 2, 0.0, l=2), W0, grid)
        angles = np.linspace(0, 2 * np.pi, 360, endpoint=False)
        ix = (np.round(W0 * np.cos(angles) / grid.pitch).astype(int) + grid.n // 2)
        iy = (np.round(W0 * np.sin(angles) / grid.pitch).astype(int) + grid.n // 2)
        ring = f.values[iy, ix]
        signs = np.sign(ring.real[np.abs(ring.real) > 0.2 * np.abs(ring.real).max()])
        flips = np.count_nonzero(np.diff(signs))
        assert flips == 4
        inten = np.abs(ring) ** 2
        bright = [inten[np.argmin(np.abs(angles - a))] for a in
                  (0.0, np.pi / 2, np.pi, 3 * np.pi / 2)]
        dark = [inten[np.argmin(np.abs(angles - a))] for a in
                (np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4)]
        assert min(bright) > 100 * max(dark)

    def test_linear(self, grid, rng):
        a = QuditState(rng.normal(size=2) + 1j * rng.normal(size=2), l=2)
        b = QuditState(rng.normal(size=2) + 1j * rng.normal(size=2), l=2)
        alpha, beta = 0.6 - 0.2j, 0.3 + 0.5j
        combo = QuditState(alpha * a.coeffs + beta * b.coeffs, l=2)
        scale = np.linalg.norm(alpha * a.coeffs + beta * b.coeffs)
        lhs = synthesize(combo, W0, grid).values * scale
        rhs = (alpha * synthesize(a, W0, grid).values
               + beta * synthesize(b, W0, grid).values)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_propagates_grid_too_small(self):
        with pytest.raises(GridTooSmall):
            synthesize(qubit_state(0.1, 0.0, l=3), W0, GridSpec(64, 2e-3))

    @pytest.mark.parametrize("dim, l", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1)],
                             ids=["qubit-l1", "qubit-l2", "qubit-l3", "qubit-l4", "qutrit"])
    def test_equals_sum_of_sampled_modes(self, wide_grid, rng, dim, l):
        # one folded K x K synthesis against the coefficient-weighted modes
        state = QuditState(rng.normal(size=dim) + 1j * rng.normal(size=dim), l=l)
        expected = sum(c * lg_field(LGModeSpec(charge, W0), wide_grid).values
                       for c, charge in zip(state.coeffs, state.charges()))
        got = synthesize(state, W0, wide_grid).values
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_state_from_field_round_trip(grid, rng):
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    state = QuditState(v, l=1)
    recovered = state_from_field(synthesize(state, W0, grid), 1, 3, W0)
    # global phase fixed by construction here, compare directly
    assert np.max(np.abs(recovered.coeffs - state.coeffs)) < 1e-8


class TestSeparableProjection:
    """decompose contracts 1-D mode factors; the reference samples each mode."""

    @staticmethod
    def reference(f, l, dim, w0):
        return np.array([inner_product(lg_field(LGModeSpec(c, w0), f.grid, f.wavelength), f)
                         for c in basis_charges(dim, l)])

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("l", [1, 2, 3, 4])
    def test_random_field_off_centre_grid(self, rng, l, dim):
        grid = GridSpec(128, 3.2e-3, center=(2.0e-4, -1.5e-4))
        values = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
        f = TransverseField(grid, values, 795e-9)
        got, ref = decompose(f, l, dim, 120e-6), self.reference(f, l, dim, 120e-6)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    def test_hologram_focal_field(self):
        grid = GridSpec(128, 8e-3)
        gauss = lg_field(LGModeSpec(0, 1e-3), grid)
        f = fraunhofer(qubit_hologram(2, grid).imprint(gauss), 0.5)
        got, ref = decompose(f, 2, 2, 155e-6), self.reference(f, 2, 2, 155e-6)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    def test_grid_too_small(self, rng):
        grid = GridSpec(64, 2e-3)
        f = TransverseField(grid, rng.normal(size=(64, 64)) + 0j, 795e-9)
        with pytest.raises(GridTooSmall):
            decompose(f, 3, 2, W0)
