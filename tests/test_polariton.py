import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import (histogram_first_shell, longitudinal_slices, monte_carlo_drift_factor,
                     overlap, slice_readout, sorted_diffraction_phase)

from oamem.config import parse_config
from oamem.decoherence import diffuse, longitudinal_drift_factor
from oamem.fieldgrid import BLOCK_ROWS, FoldedPower, GridSpec, TransverseField, stack_rows
from oamem.harness import _input_field
from oamem.modes import LGModeSpec, QuditState, lg_field, qubit_state, synthesize
from oamem.polariton import (SPEED_OF_LIGHT, MemoryParams, _first_shell, diffraction_check,
                             group_velocity, mixing_angle, read, write)

W0 = 250e-6
GOLDEN = Path(__file__).resolve().parents[1] / "tools" / "golden.py"
# the diffraction check's cases of a wave with factors: |l| = 1-4 qubits, a qutrit, a tight focus
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


def assert_quarter_equals_the_block_fold(f: TransverseField) -> None:
    """Asserts that ``f``'s quarter plane is a sampled copy's within 1e-13 of its largest entry."""
    plain = TransverseField(f.grid, f.values, f.wavelength)
    got, want = f.quarter_power(), plain.quarter_power()
    assert got.shape == want.shape == (f.grid.n // 2 + 1,) * 2
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)


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

    @staticmethod
    def no_fft(*args, **kwargs):
        raise AssertionError("diffraction_check ran a transform")

    def test_reuses_the_cached_spectrum(self, grid, monkeypatch):
        # a wave without factors, the only kind that caches its spectrum
        f = lg_field(LGModeSpec(1, 200e-6), grid)
        s = write(TransverseField(grid, f.values, f.wavelength), MemoryParams())
        spectrum = s.spectrum
        monkeypatch.setattr(np.fft, "fft", self.no_fft)
        monkeypatch.setattr(np.fft, "fft2", self.no_fft)
        diffraction_check(MemoryParams(), s)
        assert s.spectrum is spectrum

    def test_factors_need_no_spectrum(self, grid, monkeypatch):
        # a wave with factors transforms its K x n rows only, one pass per
        # axis, and neither write nor the check caches an n x n spectrum
        s = write(lg_field(LGModeSpec(2, W0), grid), MemoryParams())
        assert "spectrum" not in vars(s)
        shapes, fft = [], np.fft.fft

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted)
        monkeypatch.setattr(np.fft, "fft2", self.no_fft)
        tracemalloc.start()
        try:
            diffraction_check(MemoryParams(), s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shapes == [(3, grid.n)] * 2
        assert "spectrum" not in vars(s)
        # nor builds a block of one: the peak stays below one (BLOCK_ROWS, n)
        # complex block (about 0.75 of one here, most of it the quarter plane)
        assert peak < BLOCK_ROWS * grid.n * 16

    @pytest.mark.parametrize("state, w0, extent", [
        *(pytest.param(qubit_state(1.1, 0.4, l=l), 200e-6, 6.4e-3, id=f"qubit-l{l}")
          for l in (1, 2, 3, 4)),
        pytest.param(QuditState([0.8, 0.5j, -0.3 + 0.2j], l=1), 200e-6, 6.4e-3, id="qutrit"),
        pytest.param(qubit_state(1.1, 0.4, l=1), 1e-5, 1.6e-4, id="tight-focus")])
    def test_factored_equals_spectral(self, state, w0, extent):
        # the spectrum built block by block from the K row transforms lands
        # on the same 99 % shell as the cached n x n spectrum of the samples
        g = GridSpec(256, extent)
        f = synthesize(state, w0, g)
        plain = TransverseField(g, f.values, f.wavelength)
        assert f.factors is not None and plain.factors is None
        p = MemoryParams()
        assert diffraction_check(p, f) == diffraction_check(p, plain)

    @pytest.mark.parametrize("state, w0, extent", FACTORED_CASES)
    def test_factored_quarter_equals_the_block_fold(self, state, w0, extent):
        # the quarter plane contracted from the folded products of the 1-D
        # row spectra against |S|^2 of the cached n x n spectrum, folded one
        # block of rows at a time
        f = synthesize(state, w0, GridSpec(256, extent))
        assert f.factors is not None
        assert_quarter_equals_the_block_fold(f)

    def test_factored_quarter_equals_the_block_fold_on_golden_configs(self):
        # a hologram's far field has no factors, so both sides take the block fold
        configs = golden_configs()
        assert len(configs) == 13
        factored = 0
        for data in configs.values():
            f = _input_field(parse_config(data))[0]
            factored += f.factors is not None
            assert_quarter_equals_the_block_fold(f)
        assert factored == 7

    def test_folded_rows_give_the_shell_of_the_plane_on_golden_configs(self, monkeypatch):
        # a factored wave gives the check its total from the folded rows and
        # only leading blocks, none of them the whole plane; the shell equals
        # the histogram's of the whole plane at 0.5, 0.99 and 0.999999
        widths = []
        block = FoldedPower.__getitem__

        def spy(self, key):
            got = block(self, key)
            widths.append(len(got))
            return got

        for name, data in golden_configs().items():
            f = _input_field(parse_config(data))[0]
            folded, quarter = f.folded_power(), f.quarter_power()
            assert isinstance(folded, FoldedPower) == (f.factors is not None), name
            if f.factors is not None:
                assert folded.sum() == pytest.approx(quarter.sum(), rel=1e-13)
            with monkeypatch.context() as patch:
                patch.setattr(FoldedPower, "__getitem__", spy)
                for fraction in (0.5, 0.99, 0.999999):
                    expected = histogram_first_shell(quarter, fraction)
                    assert _first_shell(folded, fraction) == expected, (name, fraction)
        assert widths and max(widths) < len(quarter)

    def test_bisected_shell_equals_the_shell_histogram_on_golden_configs(self):
        # the 99 % shell, from the histogram of the leading block that a doubled
        # block bounds, against every pixel's shell binned by np.bincount: on the
        # written wave of every golden-gate config at 0.99, and at 0.5, 0.99 and
        # 0.999999 on edge planes: energy just past a doubled block's corner, only
        # at the origin or the far corner, and random and peaked planes of 17-257
        for name, data in golden_configs().items():
            quarter = _input_field(parse_config(data))[0].quarter_power()
            expected = histogram_first_shell(quarter, 0.99)
            assert expected is not None, name
            assert _first_shell(quarter.copy(), 0.99) == expected, name
        empty = np.zeros((5, 5))
        assert _first_shell(empty, 0.99) is None and histogram_first_shell(empty, 0.99) is None
        planes = {}
        for name, spots in (("past-corner", [(7, 7), (0, 9)]), ("origin", [(0, 0)]),
                            ("far-corner", [(16, 16)])):
            planes[name] = np.zeros((17, 17))
            for spot in spots:
                planes[name][spot] = 1.0
        rng = np.random.default_rng(5)
        for size in (17, 33, 64, 100, 129, 200, 257):
            k = np.arange(size)
            planes[f"random-{size}"] = rng.random((size, size))
            planes[f"peaked-{size}"] = (rng.random((size, size))
                                        * np.exp(-(k[:, None] ** 2 + k ** 2) / (0.02 * size ** 2)))
        for name, quarter in planes.items():
            for fraction in (0.5, 0.99, 0.999999):
                expected = histogram_first_shell(quarter, fraction)
                assert _first_shell(quarter, fraction) == expected, (name, fraction)


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
