from dataclasses import replace

import numpy as np
import pytest
from oracles import direct_gaussian_convolution, overlap

from oamem.decoherence import (EfficiencyModel, MagneticModel, _larmor_map, decohere, diffuse,
                               longitudinal_drift_factor, magnetic_dephase, qutrit_nodal_shift)
from oamem.errors import NodalLineNotFound, NonFiniteField
from oamem.fieldgrid import GridSpec, TransverseField
from oamem.modes import LGModeSpec, lg_field, qubit_state, qutrit_state, synthesize
from oamem.polariton import BOLTZMANN, MemoryParams, read, write

RB85 = 85 * 1.66053906892e-27
W0 = 250e-6


@pytest.fixture
def diffusion():
    return MemoryParams(temperature=100e-6, mass=RB85)


def stored(field):
    return write(field, MemoryParams())


class TestDiffuse:
    def test_zero_time_identity(self, grid, diffusion):
        s = stored(lg_field(LGModeSpec(1, W0), grid))
        s2 = diffuse(s, diffusion, 0.0)
        assert np.array_equal(s2.values, s.values)

    def test_sigma_value(self, diffusion):
        # 100 uK, 85 u, 500 us: one-axis spread just under 50 um
        assert diffusion.sigma(500e-6) == pytest.approx(49.45e-6, rel=1e-3)

    def test_gaussian_radius_growth(self, diffusion):
        g = GridSpec(256, 2.4e-3)
        w = 200e-6
        s = stored(lg_field(LGModeSpec(0, w), g))
        t_s = 500e-6
        s2 = diffuse(s, diffusion, t_s)
        xs = g.xs()
        row = np.abs(s2.values[g.n // 2, :])
        mask = row > row.max() * 1e-3
        slope = np.polyfit(xs[mask] ** 2, np.log(row[mask]), 1)[0]
        sigma = diffusion.sigma(t_s)
        assert np.sqrt(-1.0 / slope) == pytest.approx(np.sqrt(w ** 2 + 2 * sigma ** 2),
                                                      rel=1e-6)

    @pytest.mark.parametrize("t_s", [100e-6, 500e-6])
    def test_matches_direct_convolution(self, diffusion, t_s):
        # acceptance-grade oracle: dense separable convolution, no FFT
        g = GridSpec(128, 0.9e-3)
        f = synthesize(qutrit_state(1.0, 1.0, 1.0, l=1), 80e-6, g)
        s = TransverseField(g, f.values, f.wavelength)
        blurred = diffuse(s, diffusion, t_s)
        expected = direct_gaussian_convolution(f.values, g.pitch, diffusion.sigma(t_s))
        err = np.sqrt(np.sum(np.abs(blurred.values - expected) ** 2)
                      / np.sum(np.abs(expected) ** 2))
        assert err < 1e-6

    def test_spectral_contraction(self, grid, diffusion):
        s = stored(synthesize(qubit_state(np.pi / 2, 0.3, l=2), W0, grid))
        before = np.abs(np.fft.fft2(s.values))
        after = np.abs(np.fft.fft2(diffuse(s, diffusion, 2e-4).values))
        assert np.all(after <= before + 1e-12 * before.max())

    def test_zero_frequency_preserved(self, grid, diffusion):
        # unit-mass kernel: the q = 0 component never decays
        s = stored(lg_field(LGModeSpec(0, W0), grid))
        before = np.fft.fft2(s.values)[0, 0]
        after = np.fft.fft2(diffuse(s, diffusion, 2e-4).values)[0, 0]
        assert after == pytest.approx(before, rel=1e-9)

    def test_sequential_variance_composition(self, grid, diffusion):
        # kernel product rule: blur(t1) then blur(t2) equals one blur with
        # sigma^2 = sigma1^2 + sigma2^2
        s = stored(synthesize(qubit_state(np.pi / 3, 1.0, l=2), W0, grid))
        t1, t2 = 2e-4, 3.5e-4
        seq = diffuse(diffuse(s, diffusion, t1), diffusion, t2)
        sigma_eq = np.sqrt(diffusion.sigma(t1) ** 2 + diffusion.sigma(t2) ** 2)
        t_eq = sigma_eq / np.sqrt(BOLTZMANN * diffusion.temperature / diffusion.mass)
        merged = diffuse(s, diffusion, t_eq)
        assert np.max(np.abs(seq.values - merged.values)) < 1e-12 * np.max(np.abs(s.values))

    def test_rejects_negative_time(self, grid, diffusion):
        s = stored(lg_field(LGModeSpec(1, W0), grid))
        with pytest.raises(ValueError):
            diffuse(s, diffusion, -1e-6)

    @pytest.mark.parametrize("l, factored", [
        pytest.param(l, factored, id=f"factored-{l}" if factored else str(l))
        for factored in (False, True) for l in (0, 1, 2)])
    def test_lg_amplitude_closed_form(self, diffusion, l, factored):
        # the blur multiplies |F(q)|^2 ~ q^2|l| exp(-q^2 w0^2 / 2) by
        # exp(-q^2 sigma^2 / 2), so <LG_l|blurred LG_l> = (1 + sigma^2/w0^2)^-(|l|+1),
        # on the spectral path (a plain wave) and on the mode factors
        g = GridSpec(512, 3.2e-3)
        f = lg_field(LGModeSpec(l, W0), g)
        s = TransverseField(g, f.values, f.wavelength, f.factors if factored else None)
        for t_s in (0.3e-3, 1e-3, 2e-3):
            amp = np.vdot(f.values, diffuse(s, diffusion, t_s).values) * g.pixel_area
            expected = (1.0 + diffusion.sigma(t_s) ** 2 / W0 ** 2) ** -(abs(l) + 1)
            assert abs(amp - expected) <= 1e-12 * expected

    def test_matches_full_kernel(self, grid, diffusion):
        # the separable kernel on the cached spectrum is the n x n kernel
        s = stored(synthesize(qutrit_state(1.0, 0.5j, 1.0, l=1), W0, grid))
        sigma = diffusion.sigma(3e-4)
        q = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.pitch)
        qx, qy = np.meshgrid(q, q)
        expected = np.fft.ifft2(np.fft.fft2(s.values) * np.exp(-0.5 * (qx ** 2 + qy ** 2)
                                                              * sigma ** 2))
        got = diffuse(s, diffusion, 3e-4).values
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("state", [
        *(pytest.param(qubit_state(1.1, 0.4, l=l), id=f"qubit-l{l}") for l in (1, 2, 3, 4)),
        pytest.param(qutrit_state(0.8, 0.5j, -0.3 + 0.2j, l=2), id="qutrit")])
    def test_factored_equals_spectral(self, wide_grid, diffusion, state):
        # the blur of the K mode factors against the 2-D spectral path on the
        # same samples
        f = synthesize(state, 200e-6, wide_grid)
        s = TransverseField(wide_grid, f.values, f.wavelength, f.factors)
        assert s.factors.rows.shape == (max(abs(c) for c in state.charges()) + 1, wide_grid.n)
        plain = TransverseField(wide_grid, s.values, s.wavelength)
        for t_s in (1e-4, 5e-4, 1e-3, 2e-3):
            spectral = diffuse(plain, diffusion, t_s).values
            got = diffuse(s, diffusion, t_s)
            assert got.factors is None
            assert np.max(np.abs(got.values - spectral)) <= 1e-13 * np.max(np.abs(spectral))

    def test_spectrum_cached_and_read_only(self, grid, diffusion):
        s = stored(synthesize(qubit_state(np.pi / 3, 1.0, l=2), W0, grid))
        spectrum = s.spectrum
        assert s.spectrum is spectrum
        assert not spectrum.flags.writeable
        assert np.array_equal(spectrum, np.fft.fft2(s.values))
        before = spectrum.copy()
        diffuse(s, diffusion, 1e-4)
        diffuse(s, diffusion, 5e-4)
        assert np.array_equal(s.spectrum, before)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryParams(temperature=0.0)


class TestDarkLines:
    def test_qubit_nodal_axis_survives(self, diffusion):
        # reflection-odd pattern: the diagonal zeros are symmetry-protected
        g = GridSpec(512, 3.2e-3)
        s = stored(synthesize(qubit_state(np.pi / 2, 0.0, l=2), W0, g))
        s2 = diffuse(s, diffusion, 500e-6)
        inten = np.abs(s2.values) ** 2
        diag = np.abs(np.diagonal(s2.values)) ** 2
        assert diag.max() < 1e-6 * inten.max()

    def test_qutrit_dark_line_moves_left(self, diffusion):
        g = GridSpec(512, 3.2e-3)
        before = stored(synthesize(qutrit_state(1, 1, 1, l=1), W0, g))
        t_s = 500e-6
        after = diffuse(before, diffusion, t_s)
        shift = qutrit_nodal_shift(before, after)
        x0 = -W0 / (2 * np.sqrt(2))
        expected = x0 * 2 * diffusion.sigma(t_s) ** 2 / W0 ** 2
        assert shift < 0
        assert shift == pytest.approx(expected, rel=0.05)

    def test_identity_shift_zero(self, diffusion):
        g = GridSpec(512, 3.2e-3)
        s = stored(synthesize(qutrit_state(1, 1, 1, l=1), W0, g))
        assert qutrit_nodal_shift(s, s) == 0.0

    def test_qubit_pattern_shift_within_pixel(self, diffusion):
        g = GridSpec(512, 3.2e-3)
        before = stored(synthesize(qubit_state(np.pi / 2, 0.0, l=2), W0, g))
        after = diffuse(before, diffusion, 500e-6)
        assert abs(qutrit_nodal_shift(before, after)) <= g.pitch

    def test_no_node_raises(self, grid):
        s = stored(lg_field(LGModeSpec(0, W0), grid))
        with pytest.raises(NodalLineNotFound):
            qutrit_nodal_shift(s, s)


class TestDecohere:
    def test_equals_the_channels_in_turn(self, grid, diffusion):
        # one array for both channels, the same numbers as blur, then phase
        s = stored(synthesize(qutrit_state(1, 0.5, 1j, l=1), W0, grid))
        mdl = MagneticModel(guiding_b=2e-5, sensitivity=5e9, center=(3e-4, -2e-4))
        for t_s in (0.0, 1e-5, 2e-4):
            both = decohere(s, t_s, diffusion, mdl)
            assert np.array_equal(both.values,
                                  magnetic_dephase(diffuse(s, diffusion, t_s), mdl, t_s).values)
        assert decohere(s, 0.0, diffusion, mdl) is s
        assert decohere(s, 1e-4) is s

    def test_overflowing_phase_raises_before_cos(self, grid):
        s = stored(lg_field(LGModeSpec(1, W0), grid))
        mdl = MagneticModel(sensitivity=1e307, guiding_b=1.0)
        with pytest.raises(NonFiniteField, match="field values must be finite: the Larmor"):
            decohere(s, 1e5, magnetic=mdl)


class TestMagneticDephase:
    def test_clock_states_identity(self, grid):
        s = stored(synthesize(qubit_state(np.pi / 2, 0.0, l=2), W0, grid))
        mdl = MagneticModel(trap_gradient=0.1, guiding_b=9.7e-5,
                            sensitivity=0.0, second_order=0.0)
        s2 = magnetic_dephase(s, mdl, 1e-4)
        assert np.max(np.abs(s2.values - s.values)) == 0.0

    def test_uniform_field_is_global_phase(self, grid):
        s = stored(synthesize(qubit_state(np.pi / 2, 0.0, l=2), W0, grid))
        mdl = MagneticModel(trap_gradient=0.0, guiding_b=1e-4, sensitivity=1e9)
        s2 = magnetic_dephase(s, mdl, 1e-5)
        ratio = s2.values[s.values != 0] / s.values[s.values != 0]
        assert np.max(np.abs(ratio - ratio[0])) < 1e-9

    def test_linear_ramp_matches_characteristic_function(self, grid):
        # phase kappa*x on a Gaussian: |<f|f e^{i kappa x}>| = exp(-kappa^2 w^2/8)
        kappa = 3.0e4

        class Ramp(MagneticModel):
            def field_at(self, x, y):
                return kappa * x

        mdl = Ramp(sensitivity=1.0)
        f = lg_field(LGModeSpec(0, W0), grid)
        s2 = magnetic_dephase(stored(f), mdl, 1.0)
        ov = abs(overlap(read(s2), f))
        assert ov == pytest.approx(np.exp(-(kappa * W0) ** 2 / 8.0), rel=1e-6)

    @staticmethod
    def reference(s, mdl, t_s):
        x, y = s.grid.mesh()
        return s.values * np.exp(1j * mdl.angular_shift(x, y) * t_s)

    def test_matches_mesh_phase(self, grid):
        s = stored(synthesize(qutrit_state(1, 0.5, 1j, l=1), W0, grid))
        mdl = MagneticModel(guiding_b=2e-5, sensitivity=5e9, second_order=3e12,
                            center=(3e-4, -2e-4))
        for t_s in (1e-5, 2e-4):
            expected = self.reference(s, mdl, t_s)
            got = magnetic_dephase(s, mdl, t_s).values
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_field_at_subclass_matches_mesh_phase(self, grid):
        # a map that ignores y comes back as one row and is broadcast
        class Ramp(MagneticModel):
            def field_at(self, x, y):
                return 3.0e4 * x

        s = stored(synthesize(qubit_state(np.pi / 2, 0.3, l=2), W0, grid))
        mdl = Ramp(sensitivity=1.0)
        assert _larmor_map(mdl, grid)[0].shape == (1, grid.n)
        expected = self.reference(s, mdl, 0.7)
        got = magnetic_dephase(s, mdl, 0.7).values
        assert got.shape == (grid.n, grid.n)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_alternating_models_and_grids(self):
        # the one-entry cache must never hand one model's or grid's map to another
        near = MagneticModel(guiding_b=0.0, sensitivity=4.4e10, center=(1e-4, 0.0))
        far = MagneticModel(guiding_b=0.0, sensitivity=4.4e10, center=(-4e-4, 3e-4))
        grids = [GridSpec(64, 3.2e-3), GridSpec(64, 3.2e-3, center=[2e-4, -1e-4])]
        waves = [stored(synthesize(qubit_state(np.pi / 2, 0.0, l=1), W0, g)) for g in grids]
        for _ in range(2):
            for s in waves:
                for mdl in (near, far):
                    expected = self.reference(s, mdl, 3e-5)
                    got = magnetic_dephase(s, mdl, 3e-5).values
                    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_larmor_map_read_only(self, grid):
        mdl = MagneticModel(sensitivity=5e9, center=[3e-4, 0.0])
        assert mdl.center == (3e-4, 0.0)
        omega, _ = _larmor_map(mdl, grid)
        assert not omega.flags.writeable
        assert _larmor_map(mdl, grid)[0] is omega

    def test_zero_time_returns_wave(self, grid):
        s = stored(lg_field(LGModeSpec(1, W0), grid))
        assert magnetic_dephase(s, MagneticModel(sensitivity=5e9), 0.0) is s

    def test_magnitudes_preserved(self, grid, rng):
        s = stored(synthesize(qutrit_state(1, 0.5, 1, l=1), W0, grid))
        mdl = MagneticModel(trap_gradient=0.2, ambient_fraction=0.05,
                            guiding_b=0.0, sensitivity=4.4e10)
        s2 = magnetic_dephase(s, mdl, 1e-4)
        assert np.max(np.abs(np.abs(s2.values) - np.abs(s.values))) \
            < 1e-12 * np.abs(s.values).max()

    def test_unguided_dephasing_dominates_early(self, grid, diffusion):
        # ambient field at 5% of the trap, magnetically sensitive coherence:
        # the pattern distorts long before diffusion matters
        f = synthesize(qubit_state(np.pi / 2, 0.0, l=2), W0, grid)
        s = stored(f)
        t_s = 40e-6
        sensitive = MagneticModel(trap_gradient=0.1, ambient_fraction=0.05,
                                  guiding_b=0.0, sensitivity=2 * np.pi * 0.7e6 / 1e-4)
        dephased = abs(overlap(read(magnetic_dephase(s, sensitive, t_s)), f)) ** 2
        blurred = abs(overlap(read(diffuse(s, diffusion, t_s)), f)) ** 2
        assert dephased < 0.9
        assert blurred > 0.99


class TestEfficiencyModel:
    def test_anchor_ratio(self):
        em = EfficiencyModel.from_anchors()
        assert em(400e-6) / em(10e-6) == pytest.approx(0.44, abs=1e-3)

    def test_anchors_reproduced(self):
        em = EfficiencyModel.from_anchors()
        assert em(10e-6) == pytest.approx(0.1074, rel=1e-12)
        assert em(400e-6) == pytest.approx(0.0473, rel=1e-12)

    def test_two_point_solution(self):
        em = EfficiencyModel.from_anchors()
        assert em.tau == pytest.approx(475.6e-6, rel=1e-3)
        assert em(500e-6) == pytest.approx(0.0383, abs=5e-4)

    def test_zero_time_gives_eta0(self):
        em = EfficiencyModel(eta0=0.25, tau=1e-4)
        assert em(0.0) == 0.25

    def test_validation(self):
        with pytest.raises(ValueError):
            EfficiencyModel(eta0=1.5, tau=1e-4)
        with pytest.raises(ValueError):
            EfficiencyModel(eta0=0.1, tau=-1.0)
        with pytest.raises(ValueError):
            EfficiencyModel.from_anchors((10e-6, 0.05), (400e-6, 0.10))
        with pytest.raises(ValueError):
            EfficiencyModel(eta0=0.1, tau=1e-4)(-1e-6)


class TestLongitudinalDrift:
    def test_collinear_unity(self, diffusion):
        assert longitudinal_drift_factor(diffusion, 1e-3) == 1.0

    def test_formula(self, diffusion):
        p = replace(diffusion, alpha=np.radians(2.0))
        dk = p.delta_k
        assert dk == pytest.approx(-4814.5, rel=1e-4)
        t_s = 5e-4
        sigma = p.sigma(t_s)
        expected = np.exp(-0.5 * (dk * sigma) ** 2)
        assert longitudinal_drift_factor(p, t_s) == pytest.approx(expected)
