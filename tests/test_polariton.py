import pickle

import numpy as np
import pytest
from oracles import (longitudinal_slices, monte_carlo_drift_factor, overlap, slice_readout,
                     sorted_diffraction_phase)

from oamem.decoherence import diffuse, longitudinal_drift_factor
from oamem.fieldgrid import GridSpec, TransverseField
from oamem.modes import LGModeSpec, QuditState, lg_field, synthesize
from oamem.polariton import (SPEED_OF_LIGHT, MemoryParams, diffraction_check, group_velocity,
                             mixing_angle, read, write)

W0 = 250e-6


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
            assert abs(f2.norm() - f.norm()) < 1e-12

    def test_write_stores_full_norm(self, grid):
        p = MemoryParams()
        f = lg_field(LGModeSpec(1, W0), grid)
        assert write(f, p).norm() == pytest.approx(f.norm(), rel=1e-12)

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
    def test_plane_wave_negligible(self, grid):
        s = TransverseField(grid, np.ones((grid.n, grid.n)), 795e-9)
        assert diffraction_check(MemoryParams(), s) < 1e-3

    def test_stored_mode_within_budget(self, grid):
        s = write(lg_field(LGModeSpec(1, 200e-6), grid), MemoryParams())
        value = diffraction_check(MemoryParams(), s)
        assert value == pytest.approx(0.0829, abs=0.01)
        assert value < 0.1

    def test_small_waist_flagged(self):
        g = GridSpec(256, 1.6e-4)
        s = TransverseField(g, lg_field(LGModeSpec(1, 1e-5), g).values, 795e-9)
        assert diffraction_check(MemoryParams(), s) > 0.1

    def test_write_warns_on_tight_focus(self):
        g = GridSpec(256, 1.6e-4)
        f = lg_field(LGModeSpec(1, 1e-5), g)
        with pytest.warns(UserWarning, match="diffraction phase"):
            write(f, MemoryParams())

    @pytest.mark.parametrize("case", ["l0", "l1", "l-2", "l3", "tight-focus",
                                      "off-centre", "zero"])
    def test_matches_sorted_spectrum_oracle(self, wide_grid, rng, case):
        # shell binning of the cached spectrum against the centered FFT
        # with every pixel sorted by |q|
        p = MemoryParams()
        if case.startswith("l"):
            values = lg_field(LGModeSpec(int(case[1:]), 200e-6), wide_grid).values
            g = wide_grid
        elif case == "tight-focus":
            g = GridSpec(256, 1.6e-4)
            values = lg_field(LGModeSpec(1, 1e-5), g).values
        elif case == "off-centre":
            g = GridSpec(64, 2e-3, center=(3e-4, -1e-4))
            values = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        else:
            g = wide_grid
            values = np.zeros((g.n, g.n))
        got = diffraction_check(p, TransverseField(g, values, 795e-9))
        expected = sorted_diffraction_phase(values, g.pitch, p.diameter, p.k_s)
        assert abs(got - expected) <= 1e-12 * expected

    def test_reuses_the_cached_spectrum(self, grid, monkeypatch):
        s = write(lg_field(LGModeSpec(1, 200e-6), grid), MemoryParams())
        spectrum = s.spectrum

        def no_fft(*args, **kwargs):
            raise AssertionError("diffraction_check ran a transform")

        monkeypatch.setattr(np.fft, "fft", no_fft)
        monkeypatch.setattr(np.fft, "fft2", no_fft)
        diffraction_check(MemoryParams(), s)
        assert s.spectrum is spectrum


class TestSpinWavePickle:
    """A spin wave is a TransverseField; unpickling keeps its arrays read-only."""

    @pytest.mark.parametrize("cached", [False, True], ids=["values", "values+spectrum"])
    def test_unpickled_arrays_are_read_only(self, grid, cached):
        wave = TransverseField(grid, lg_field(LGModeSpec(1, W0), grid).values, 795e-9)
        if cached:
            wave.spectrum
        copy = pickle.loads(pickle.dumps(wave))
        assert not copy.values.flags.writeable
        assert np.array_equal(copy.values, wave.values)
        assert ("spectrum" in vars(copy)) == cached
        assert not copy.spectrum.flags.writeable

    def test_unpickled_factors_are_read_only(self, grid):
        wave = write(lg_field(LGModeSpec(2, W0), grid), MemoryParams())
        copy = pickle.loads(pickle.dumps(wave))
        for name in ("rows", "mix"):
            assert not getattr(copy.factors, name).flags.writeable
            assert np.array_equal(getattr(copy.factors, name), getattr(wave.factors, name))
        assert not copy.values.flags.writeable


class TestFactors:
    def test_write_keeps_the_negated_factors(self, grid):
        f = synthesize(QuditState(np.array([1.0, 0.5j]), l=2), W0, grid)
        wave = write(f, MemoryParams())
        assert np.array_equal(wave.factors.array(), wave.values)
        assert np.array_equal(wave.values, -f.values)

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
