import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from oracles import (field_norm, longitudinal_slices, monte_carlo_drift_factor, overlap,
                     slice_readout, sorted_diffraction_phase)

from oamem.config import parse_config
from oamem.decoherence import diffuse, longitudinal_drift_factor
from oamem.fieldgrid import GridSpec, TransverseField, stack_rows
from oamem.harness import _check_diffraction, _input_field
from oamem.modes import (LGModeSpec, QuditState, lg_field, qubit_state, spectral_power,
                         spectral_x99, synthesize)
from oamem.polariton import (DIFFRACTION_PHASE_LIMIT, SPEED_OF_LIGHT, MemoryParams,
                             diffraction_check, group_velocity, mixing_angle, read, write)

W0 = 250e-6
GOLDEN = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
# waves with factors for the diffraction check: |l| = 1-4 qubits, a qutrit, a tight focus
FACTORED_CASES = [
    *(pytest.param(qubit_state(1.1, 0.4, l=l), 200e-6, 6.4e-3, id=f"qubit-l{l}")
      for l in (1, 2, 3, 4)),
    pytest.param(QuditState([0.8, 0.5j, -0.3 + 0.2j], l=1), 200e-6, 6.4e-3, id="qutrit"),
    pytest.param(qubit_state(1.1, 0.4, l=1), 1e-5, 1.6e-4, id="tight-focus")]


def golden_configs() -> dict:
    """Every golden-gate config of ``tools/golden.py`` by name."""
    spec = importlib.util.spec_from_file_location("golden", GOLDEN)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return golden.configs()


def mode_q2(charges, weights, w0: float) -> float:
    """The closed-form squared 99 % radius of sum_i weights[i] LG_{charges[i],0} of waist w0."""
    return 2.0 * spectral_x99(charges, weights) / w0 ** 2


def assert_matches_the_sorted_spectrum(q2: float, f: TransverseField) -> None:
    """Asserts that sqrt(q2) is within one q_pitch of the oracle's 99 % radius on ``f``."""
    p = MemoryParams()
    oracle = sorted_diffraction_phase(f.values, f.grid.pitch, p.diameter, p.k_s)
    assert abs(math.sqrt(q2) - math.sqrt(oracle * p.k_s / p.diameter)) <= f.grid.q_pitch


class TestMixingAngle:
    def test_balanced(self):
        p = MemoryParams(omega_c=1e8, g2n=1e16)
        assert mixing_angle(p) == pytest.approx(np.pi / 4)

    def test_strong_coupling_limit(self):
        p = MemoryParams(omega_c=1e12, g2n=1e16)
        assert mixing_angle(p) < 1e-3

    def test_sixty_degrees(self):
        # g^2 N = 3 Omega^2 -> arctan(sqrt 3) = pi/3
        p = MemoryParams(omega_c=1e8, g2n=3e16)
        assert mixing_angle(p) == pytest.approx(np.pi / 3)

    def test_coupling_off(self):
        p = MemoryParams(omega_c=0.0)
        assert mixing_angle(p) == np.pi / 2


class TestGroupVelocity:
    def test_approaches_c(self):
        p = MemoryParams(omega_c=1e12, g2n=1e16)
        assert group_velocity(p) == pytest.approx(SPEED_OF_LIGHT, rel=1e-6)

    def test_zero_at_cutoff(self):
        p = MemoryParams(omega_c=0.0)
        assert group_velocity(p) == 0.0

    def test_half_c(self):
        p = MemoryParams(omega_c=1e8, g2n=1e16)
        assert group_velocity(p) == pytest.approx(SPEED_OF_LIGHT / 2)

    def test_monotone_in_omega(self):
        vs = [group_velocity(MemoryParams(omega_c=om)) for om in (1e7, 5e7, 2e8)]
        assert vs[0] < vs[1] < vs[2]


class TestMemoryParams:
    def test_collinear_wave_vector_vanishes(self):
        assert MemoryParams(alpha=0.0).delta_k == 0.0

    def test_two_degree_wave_vector(self):
        p = MemoryParams(alpha=np.radians(2.0))
        assert p.delta_k == pytest.approx(-4814.52, rel=1e-4)
        assert p.delta_k * 2e-3 == pytest.approx(-9.629, rel=1e-3)

    def test_delta_k_nonpositive(self):
        for alpha in (0.0, 0.01, 0.1):
            assert MemoryParams(alpha=alpha).delta_k <= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryParams(lambda_s=-1.0)
        with pytest.raises(ValueError):
            MemoryParams(alpha=-0.1)
        with pytest.raises(ValueError, match="Rabi"):
            MemoryParams(omega_c=-1.0)


class TestWriteRead:
    def test_round_trip_random_states(self, grid, rng):
        p = MemoryParams()
        for _ in range(20):
            dim = rng.choice([2, 3])
            state = QuditState(rng.normal(size=dim) + 1j * rng.normal(size=dim), l=1)
            f = synthesize(state, W0, grid)
            f2 = read(write(f, p))
            assert abs(overlap(f, f2)) >= 1 - 1e-10
            assert abs(field_norm(f2) - field_norm(f)) < 1e-12

    def test_write_stores_full_norm(self, grid):
        p = MemoryParams()
        f = lg_field(LGModeSpec(1, W0), grid)
        assert field_norm(write(f, p)) == pytest.approx(field_norm(f), rel=1e-12)

    def test_collinear_profile_phase_constant(self):
        p = MemoryParams(alpha=0.0)
        _, weight, phase = longitudinal_slices(p.diameter, p.delta_k)
        assert np.allclose((weight * phase).imag, 0.0)

    def test_angled_profile_phase_winds(self):
        p = MemoryParams(alpha=np.radians(2.0))
        _, _, phase = longitudinal_slices(p.diameter, p.delta_k)
        total = np.angle(phase[-1] / phase[0])
        expected = -p.delta_k * p.diameter  # coherence carries exp(-i dk z)
        assert np.angle(np.exp(1j * (total - expected))) == pytest.approx(0.0, abs=1e-9)

    def test_global_phase_leaves_intensity(self, grid):
        p = MemoryParams()
        f = lg_field(LGModeSpec(1, W0), grid)
        s = write(f, p)
        s2 = s.with_values(s.values * np.exp(1j * 0.7))
        assert np.allclose(np.abs(read(s2).values) ** 2,
                           np.abs(read(s).values) ** 2)

    def test_linearity(self, grid, rng):
        p = MemoryParams()
        a = synthesize(QuditState(rng.normal(size=2) + 0j, l=2), W0, grid)
        b = synthesize(QuditState(rng.normal(size=2) + 0j, l=2), W0, grid)
        combo = a.with_values(0.6 * a.values + 0.8j * b.values)
        lhs = read(write(combo, p)).values
        rhs = 0.6 * read(write(a, p)).values + 0.8j * read(write(b, p)).values
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))


class TestLongitudinalDrift:
    """The slice oracle: atoms drifting along z dephase the readout."""

    def test_collinear_immune_to_drift(self, rng):
        p = MemoryParams(alpha=0.0)
        z, weight, phase = longitudinal_slices(p.diameter, p.delta_k)
        moved = z + rng.normal(0, 2e-4, z.shape)
        assert abs(slice_readout(moved, weight, phase, p.delta_k)) == pytest.approx(1.0,
                                                                                   rel=1e-12)

    def test_angled_loses_amplitude_under_spread(self, rng):
        p = MemoryParams(alpha=np.radians(2.0))
        z, weight, phase = longitudinal_slices(p.diameter, p.delta_k)
        moved = z + rng.normal(0, 2e-4, z.shape)
        assert abs(slice_readout(moved, weight, phase, p.delta_k)) < 0.99

    def test_uniform_drift_is_global_phase(self):
        p = MemoryParams(alpha=np.radians(2.0))
        z, weight, phase = longitudinal_slices(p.diameter, p.delta_k)
        assert abs(slice_readout(z + 1e-4, weight, phase, p.delta_k)) == pytest.approx(
            1.0, rel=1e-12)

    def test_unmoved_slices_read_out_exactly(self):
        p = MemoryParams(alpha=np.radians(2.0))
        z, weight, phase = longitudinal_slices(p.diameter, p.delta_k)
        assert abs(slice_readout(z, weight, phase, p.delta_k) - 1.0) < 1e-15

    @pytest.mark.parametrize("t_s", [5e-4, 2e-3, 4e-3])
    def test_analytic_factor_matches_slice_oracle(self, t_s):
        # sigma = 49, 198 and 396 um: factors 0.97, 0.63 and 0.16 at 2 degrees
        p = MemoryParams(alpha=np.radians(2.0))
        rng = np.random.default_rng(int(t_s * 1e6))
        mean, stderr = monte_carlo_drift_factor(p.delta_k, p.diameter, p.sigma(t_s),
                                                4000, rng)
        assert abs(mean - longitudinal_drift_factor(p, t_s)) <= 3.0 * stderr

    def test_collinear_factor_exactly_one(self, rng):
        p = MemoryParams(alpha=0.0)
        mean, stderr = monte_carlo_drift_factor(p.delta_k, p.diameter, p.sigma(4e-3),
                                                100, rng)
        assert mean == 1.0 and stderr == 0.0
        assert longitudinal_drift_factor(p, 4e-3) == 1.0


class TestDiffractionCheck:
    def test_stored_mode_within_budget(self):
        value = diffraction_check(MemoryParams(), mode_q2((1,), (1.0,), 200e-6))
        assert value == pytest.approx(0.0829, abs=0.01)
        assert value < 0.1

    def test_small_waist_flagged(self):
        with pytest.warns(UserWarning, match="diffraction phase"):
            assert diffraction_check(MemoryParams(), mode_q2((1,), (1.0,), 1e-5)) > 0.1

    def test_warns_at_the_limit_only(self):
        p = MemoryParams()
        q2 = DIFFRACTION_PHASE_LIMIT * p.k_s / p.diameter
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert diffraction_check(p, 0.99 * q2) == pytest.approx(0.099, rel=1e-12)
        with pytest.warns(UserWarning, match=r"diffraction phase q\^2 D / k_s = 0.101 >= 0.1;"):
            diffraction_check(p, 1.01 * q2)

    @pytest.mark.parametrize("case", ["l0", "l1", "l-2", "l3", "tight-focus", "off-centre"])
    def test_matches_sorted_spectrum_oracle(self, wide_grid, case):
        # the closed-form radius of one mode against the centered FFT of its
        # samples with every pixel sorted by |q|; the grid's centre enters neither
        if case.startswith("l"):
            l, w0, g = int(case[1:]), 200e-6, wide_grid
        elif case == "tight-focus":
            l, w0, g = 1, 1e-5, GridSpec(256, 1.6e-4)
        else:
            l, w0, g = 1, 100e-6, GridSpec(64, 2e-3, center=(3e-4, -1e-4))
        assert_matches_the_sorted_spectrum(mode_q2((l,), (1.0,), w0),
                                           lg_field(LGModeSpec(l, w0), g))

    @pytest.mark.parametrize("state, w0, extent", FACTORED_CASES)
    def test_factored_equals_spectral(self, state, w0, extent):
        # the closed form of the superposed modes of a wave with factors
        # against the sorted spectrum of its samples
        f = synthesize(state, w0, GridSpec(256, extent))
        assert f.factors is not None
        assert_matches_the_sorted_spectrum(mode_q2(state.charges(), state.coeffs, w0), f)

    def test_closed_form_matches_the_sorted_spectrum_on_golden_configs(self):
        # each golden config at n = 256, through the harness: a hologram's far
        # field against the oracle on its focal-plane grid (0.16 % apart in
        # q^2), an ideal source's modes up to 2.7 % apart in q^2 at 3.2 mm;
        # all within 0.11 q_pitch
        configs = golden_configs()
        assert len(configs) == 13
        p = MemoryParams()
        for data in configs.values():
            cfg = parse_config({**data, "grid": {**data["grid"], "n": 256}})
            q2 = _check_diffraction(cfg) * p.k_s / p.diameter
            assert_matches_the_sorted_spectrum(q2, _input_field(cfg)[0])

    def test_bisected_radius_holds_99_percent(self):
        # the mixture's power at the returned x is 0.99 within 1e-12: on the
        # modes of every golden config and factored case, and at |l| = 400
        cases = [((0,), (1.0,)), ((400, -400), (0.6, 0.8j))]
        for data in golden_configs().values():
            state = parse_config(data).qudit.to_state()
            cases.append((state.charges(), state.coeffs))
        for param in FACTORED_CASES:
            state = param.values[0]
            cases.append((state.charges(), state.coeffs))
        for charges, weights in cases:
            x = spectral_x99(charges, weights)
            assert abs(spectral_power(charges, weights, x) - 0.99) <= 1e-12, charges
        # a hologram's Gaussian: P(1, x) = 1 - exp(-x), so x99 = ln(100)
        assert spectral_x99((0,), (1.0,)) == pytest.approx(math.log(100.0), rel=1e-14)

    def test_mixture_share_is_the_power_weighted_mean(self):
        # P(|l| + 1, x) written out for |l| = 0, 1, 2, weighted by |c|^2
        x = 2.5
        p1, p2, p3 = (1.0 - math.exp(-x) * sum(x ** j / math.factorial(j) for j in range(k))
                      for k in (1, 2, 3))
        assert spectral_power((0, -1), (0.6, 0.8j), x) == pytest.approx(0.36 * p1 + 0.64 * p2,
                                                                          rel=1e-14)
        assert spectral_power((2, 1, -2), (0.5, 0.5j, -0.5), x) == pytest.approx(
            (2 * p3 + p2) / 3, rel=1e-14)

    def test_high_charge_stays_finite(self):
        # x^j / j! alone would overflow from |l| of about 150 on
        x = spectral_x99((400,), (1.0,))
        assert math.isfinite(x) and 401 < x < 500
        assert math.isfinite(mode_q2((400,), (1.0,), 1e-3))


class TestFactors:
    def test_write_keeps_the_factors(self, grid):
        f = synthesize(QuditState(np.array([1.0, 0.5j]), l=2), W0, grid)
        factors = f.factors
        wave = write(f, MemoryParams())
        assert wave is f and wave.factors is factors and wave.samples is None
        assert np.array_equal(stack_rows(wave.factors.row_blocks(), grid.n), wave.values)

    def test_write_keeps_the_samples(self, grid):
        # a sampled field, such as a hologram's far field, is written uncopied
        f = TransverseField(grid, lg_field(LGModeSpec(1, W0), grid).values, 795e-9)
        samples = f.samples
        wave = write(f, MemoryParams())
        assert wave is f and wave.samples is samples and wave.factors is None
        assert read(wave) is wave

    def test_new_values_drop_the_factors(self, grid):
        f = lg_field(LGModeSpec(1, W0), grid)
        assert f.factors is not None
        assert f.with_values(f.values).factors is None
        assert write(f, MemoryParams()).with_values(f.values).factors is None


def test_read_after_diffusion_is_field_convolution(grid):
    # storing, expanding, and reading equals blurring the input directly,
    # checked against the dense real-space convolution oracle
    from oracles import direct_gaussian_convolution
    p = MemoryParams(temperature=100e-6, mass=85 * 1.66053906892e-27)
    f = synthesize(QuditState(np.array([1.0, 1.0]), l=2), W0, grid)
    t_s = 3e-4
    retrieved = read(diffuse(write(f, p), p, t_s))
    expected = direct_gaussian_convolution(f.values, grid.pitch, p.sigma(t_s))
    err = np.sqrt(np.sum(np.abs(retrieved.values - expected) ** 2)
                  / np.sum(np.abs(expected) ** 2))
    assert err < 1e-6
