import importlib.util
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from oracles import NodalLineNotFound, direct_gaussian_convolution, overlap, qutrit_nodal_shift

from oamem.config import parse_config
from oamem.decoherence import (PHASE_RANK_DIVISOR, EfficiencyModel, MagneticModel, _dephased,
                               _larmor_map, _phase_terms, _probe_shift, decohere,
                               diffuse, longitudinal_drift_factor, magnetic_dephase)
from oamem.errors import NonFiniteField
from oamem.fieldgrid import GridSpec, TransverseField, stack_rows
from oamem.harness import _channels, _store
from oamem.modes import LGModeSpec, QuditState, decompose, lg_field, qubit_state, synthesize
from oamem.polariton import BOLTZMANN, MemoryParams, read, write

RB85 = 85 * 1.66053906892e-27
W0 = 250e-6
# magnetically sensitive coherence in an off-axis ambient quadrupole with no
# guiding field: a cone of Larmor phase, the hardest map for a low rank
CONE = MagneticModel(trap_gradient=0.1, ambient_fraction=0.05, guiding_b=0.0,
                     sensitivity=4.4e10, center=(3e-4, 4e-4))
WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def workload_configs(**changes):
    """The benchmark workloads at seeds 1-3, each with ``changes``, parsed."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return {f"{name}-s{seed}": parse_config({**make(seed)[1], **changes})
            for name, make in workloads.WORKLOADS.items() for seed in (1, 2, 3)}


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
        f = synthesize(QuditState([1.0, 1.0, 1.0], l=1), 80e-6, g)
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
        s = stored(synthesize(QuditState([1.0, 0.5j, 1.0], l=1), W0, grid))
        sigma = diffusion.sigma(3e-4)
        q = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.pitch)
        qx, qy = np.meshgrid(q, q)
        expected = np.fft.ifft2(np.fft.fft2(s.values) * np.exp(-0.5 * (qx ** 2 + qy ** 2)
                                                              * sigma ** 2))
        got = diffuse(s, diffusion, 3e-4).values
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("state", [
        *(pytest.param(qubit_state(1.1, 0.4, l=l), id=f"qubit-l{l}") for l in (1, 2, 3, 4)),
        pytest.param(QuditState([0.8, 0.5j, -0.3 + 0.2j], l=2), id="qutrit")])
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
            # decohere returns the blurred wave as it is held: still factored
            assert got.factors is not None and "values" not in vars(got)
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
        before = stored(synthesize(QuditState([1, 1, 1], l=1), W0, g))
        t_s = 500e-6
        after = diffuse(before, diffusion, t_s)
        shift = qutrit_nodal_shift(before, after)
        x0 = -W0 / (2 * np.sqrt(2))
        expected = x0 * 2 * diffusion.sigma(t_s) ** 2 / W0 ** 2
        assert shift < 0
        assert shift == pytest.approx(expected, rel=0.05)

    def test_identity_shift_zero(self, diffusion):
        g = GridSpec(512, 3.2e-3)
        s = stored(synthesize(QuditState([1, 1, 1], l=1), W0, g))
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
    @staticmethod
    def in_turn(s, diffusion):
        mdl = MagneticModel(guiding_b=2e-5, sensitivity=5e9, center=(3e-4, -2e-4))
        for t_s in (0.0, 1e-5, 2e-4):
            # the blurred wave stacked into samples, so the phase in turn is
            # the dense phase, whatever form decohere keeps
            b = diffuse(s, diffusion, t_s)
            yield (decohere(s, t_s, diffusion, mdl).values,
                   magnetic_dephase(TransverseField(b.grid, b.values, b.wavelength),
                                    mdl, t_s).values)
        assert decohere(s, 0.0, diffusion, mdl) is s
        assert decohere(s, 1e-4) is s

    def test_equals_the_channels_in_turn(self, grid, diffusion):
        # one call for both channels, the numbers of blur, then phase; the
        # factored wave keeps its blurred factors under a low-rank phase,
        # where the phase in turn goes on the blurred samples, so the two
        # agree to the low-rank phase's error
        s = stored(synthesize(QuditState([1, 0.5, 1j], l=1), W0, grid))
        for both, turns in self.in_turn(s, diffusion):
            assert np.max(np.abs(both - turns)) <= 1e-12 * np.max(np.abs(turns))

    def test_equals_the_channels_in_turn_bit_for_bit_on_samples(self, grid, diffusion):
        f = synthesize(QuditState([1, 0.5, 1j], l=1), W0, grid)
        s = stored(TransverseField(grid, f.values, f.wavelength))
        for both, turns in self.in_turn(s, diffusion):
            assert np.array_equal(both, turns)

    @staticmethod
    def waves(case):
        """(stored wave, t_s, diffusion, magnetic) of each decoherence call of ``case``."""
        if case == "dense-cone":
            g = GridSpec(64, 3.2e-3)
            s = stored(synthesize(QuditState([1.0, 0.5j, -0.3], l=1), W0, g))
            for t_s in (0.0, 1e-5, 2e-5, 1e-3):
                yield s, t_s, MemoryParams(temperature=100e-6, mass=RB85), CONE
            return
        source = {"kind": "hologram", "input_waist": 5e-4, "focal": 0.5}
        configs = workload_configs(**({"source": source} if case == "hologram" else {}))
        for name, cfg in configs.items():
            if case == "hologram" and not name.endswith("-s1"):
                continue
            wave = _store(cfg)[1]
            for t_s in cfg.storage_times:
                yield wave, t_s, *_channels(cfg)

    @pytest.mark.parametrize("case", ["low-rank", "dense-cone", "hologram"])
    def test_values_equal_the_dense_channels(self, case):
        # render reads the values that a decohered wave builds on first read;
        # they match the blur and phase applied pixel by pixel to the stored
        # samples (fft2 times the Gaussian kernel, then exp(i dOmega t_s) on
        # the mesh), on a factored wave under a low-rank phase (the benchmark
        # workloads), a factored wave streamed through the dense phase (the
        # cone at n = 64) and a hologram's sampled far field
        for s, t_s, diffusion, mdl in self.waves(case):
            assert (s.samples is not None) == (case == "hologram")
            got = decohere(s, t_s, diffusion, mdl)
            if t_s == 0.0:
                assert got is s
                continue
            assert (got.factors is not None) == (case == "low-rank")
            assert (got.stream is not None) == (case != "low-rank")
            grid = s.grid
            q = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.pitch)
            k = np.exp(-0.5 * q ** 2 * diffusion.sigma(t_s) ** 2)
            want = np.fft.ifft2(np.fft.fft2(s.values) * k[:, None] * k[None, :])
            want *= np.exp(1j * mdl.angular_shift(*grid.mesh()) * t_s)
            assert np.max(np.abs(got.values - want)) <= 1e-12 * np.max(np.abs(want))

    def test_overflowing_phase_raises_before_cos(self, grid):
        s = stored(lg_field(LGModeSpec(1, W0), grid))
        mdl = MagneticModel(sensitivity=1e307, guiding_b=1.0)
        with pytest.raises(NonFiniteField, match="field values must be finite: the Larmor"):
            decohere(s, 1e5, magnetic=mdl)

    @pytest.mark.parametrize("held", ["factored", "sampled"])
    def test_map_overflowing_on_the_last_column_raises(self, grid, held):
        # dOmega overflows on the grid's last column alone, which the low-rank
        # phase's probe columns hold and the dense phase's map blocks meet:
        # either raises naming the Larmor phase and t_s, before any numpy
        # warning (turned into an error here)
        edge = grid.xs()[-1]

        class LastColumn(MagneticModel):
            def field_at(self, x, y):
                return np.where(x == edge, 1e200, 2e-5) + 0.0 * y

        s = stored(synthesize(QuditState([1.0, 0.5j, -0.3], l=1), W0, grid))
        if held == "sampled":
            s = TransverseField(grid, s.values, s.wavelength)
        mdl = LastColumn(sensitivity=5e9, second_order=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteField, match=r"field values must be finite: the Larmor "
                                                     r"phase dOmega t_s reaches inf rad at "
                                                     r"t_s = 0\.0001 s"):
                decohere(s, 1e-4, magnetic=mdl).values


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
        # one factor c for every pixel, read at the brightest one
        peak = np.argmax(np.abs(s.values))
        c = s2.values.flat[peak] / s.values.flat[peak]
        assert abs(c) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(s2.values - c * s.values)) < 1e-12 * np.max(np.abs(s.values))

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
        s = stored(synthesize(QuditState([1, 0.5, 1j], l=1), W0, grid))
        mdl = MagneticModel(guiding_b=2e-5, sensitivity=5e9, second_order=3e12,
                            center=(3e-4, -2e-4))
        for t_s in (1e-5, 2e-4):
            expected = self.reference(s, mdl, t_s)
            got = magnetic_dephase(s, mdl, t_s).values
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_field_at_subclass_matches_mesh_phase(self, grid):
        # a map that ignores y is broadcast over the rows of the whole mesh
        class Ramp(MagneticModel):
            def field_at(self, x, y):
                return 3.0e4 * x

        s = stored(synthesize(qubit_state(np.pi / 2, 0.3, l=2), W0, grid))
        mdl = Ramp(sensitivity=1.0)
        assert np.array_equal(_larmor_map(mdl, grid), mdl.angular_shift(*grid.mesh()))
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

    def test_larmor_map_filled_in_blocks_equals_the_mesh_map(self, grid):
        # filled 64 rows at a time, the map holds the numbers of one
        # evaluation on the whole mesh; so do the probe lines of the
        # low-rank phase, whose peak is max |dOmega| on them
        mdl = MagneticModel(guiding_b=2e-5, sensitivity=5e9, second_order=3e12,
                            center=(3e-4, -2e-4))
        omega = _larmor_map(mdl, grid)
        expected = mdl.angular_shift(*grid.mesh())
        assert np.array_equal(omega, expected)
        probes, shift, peak = _probe_shift(mdl, grid)
        assert np.array_equal(shift, [expected[probes], expected[:, probes].T])
        assert peak == np.max(np.abs(shift))

    def test_larmor_map_of_y_alone_fills_the_mesh(self, grid):
        class Column(MagneticModel):
            def field_at(self, x, y):
                return -3.0e4 * y

        s = stored(synthesize(qubit_state(np.pi / 2, 0.3, l=2), W0, grid))
        mdl = Column(sensitivity=1.0)
        omega = _larmor_map(mdl, grid)
        assert np.array_equal(omega, mdl.angular_shift(*grid.mesh()))
        # the probe columns, the first and the last among them, hold every y
        assert _probe_shift(mdl, grid)[2] == np.max(np.abs(3.0e4 * grid.ys()))
        expected = self.reference(s, mdl, 0.7)
        got = magnetic_dephase(s, mdl, 0.7).values
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_nan_in_the_larmor_map_raises(self, grid):
        class Hole(MagneticModel):
            def field_at(self, x, y):
                return np.where((x > 0) & (y > 0), np.nan, 1.0e-4 + 0.0 * x * y)

        s = stored(lg_field(LGModeSpec(1, W0), grid))
        with pytest.raises(NonFiniteField, match="the Larmor phase"):
            decohere(s, 1e-5, magnetic=Hole(sensitivity=5e9))

    def test_larmor_map_read_only(self, grid):
        mdl = MagneticModel(sensitivity=5e9, center=[3e-4, 0.0])
        assert mdl.center == (3e-4, 0.0)
        omega = _larmor_map(mdl, grid)
        assert not omega.flags.writeable
        assert _larmor_map(mdl, grid) is omega

    def test_zero_time_returns_wave(self, grid):
        s = stored(lg_field(LGModeSpec(1, W0), grid))
        assert magnetic_dephase(s, MagneticModel(sensitivity=5e9), 0.0) is s

    def test_magnitudes_preserved(self, grid, rng):
        s = stored(synthesize(QuditState([1, 0.5, 1], l=1), W0, grid))
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


class TestLowRankPhase:
    """exp(i dOmega t) as sum_r u_r(y) v_r(x), by adaptive cross approximation."""

    @staticmethod
    def max_error(mdl, grid, t_s):
        u, v = _phase_terms(mdl, grid, t_s)
        dense = np.exp(1j * mdl.angular_shift(*grid.mesh()) * t_s)
        return np.max(np.abs(u.T @ v - dense)), len(u)

    def test_workload_maps_within_1e_12(self):
        # every storage time of both benchmark workloads, seeds 1-3, n = 512
        for name, cfg in workload_configs().items():
            for t_s in cfg.storage_times[1:]:
                err, rank = self.max_error(cfg.magnetic, cfg.grid, t_s)
                assert err <= 1e-12, (name, t_s)
                assert rank <= 12, (name, t_s)

    @pytest.mark.parametrize("t_s", [1e-5, 2e-5, 4e-5, 1e-4, 2e-4])
    def test_cone_within_1e_12(self, t_s):
        # up to 121 rad of phase with its apex on the grid
        err, rank = self.max_error(CONE, GridSpec(512, 3.2e-3), t_s)
        assert err <= 1e-12
        assert rank < 512 // PHASE_RANK_DIVISOR

    def test_ramp_has_rank_one(self, grid):
        class Ramp(MagneticModel):
            def field_at(self, x, y):
                return 3.0e4 * x

        err, rank = self.max_error(Ramp(sensitivity=1.0), grid, 0.7)
        assert rank == 1
        assert err <= 1e-12

    def test_terms_are_read_only_and_cached(self, grid):
        mdl = MagneticModel(guiding_b=2e-5, sensitivity=5e9, center=(3e-4, -2e-4))
        u, v = _phase_terms(mdl, grid, 1e-4)
        assert not u.flags.writeable and not v.flags.writeable
        assert _phase_terms(mdl, grid, 1e-4)[0] is u

    def test_long_cone_falls_back_to_the_dense_phase(self, grid):
        # past n // PHASE_RANK_DIVISOR terms the point takes the dense phase
        # of the Larmor map, block by block, bit for bit
        t_s = 1e-3
        assert _phase_terms(CONE, grid, t_s) is None
        s = stored(synthesize(QuditState([1.0, 0.5j, -0.3], l=1), W0, grid))
        wave = decohere(s, t_s, magnetic=CONE)
        assert wave.factors is None
        dense = stack_rows(_dephased(s.row_blocks(), grid, CONE, t_s), grid.n)
        assert np.array_equal(stack_rows(wave.row_blocks(), grid.n).view(np.float64),
                              dense.view(np.float64))
        plain = TransverseField(grid, dense, s.wavelength)
        assert np.array_equal(decompose(wave, 1, 3, W0), decompose(plain, 1, 3, W0))
        mesh = s.values * np.exp(1j * CONE.angular_shift(*grid.mesh()) * t_s)
        assert np.max(np.abs(dense - mesh)) <= 1e-12 * np.max(np.abs(mesh))

    def test_factored_wave_stays_factored(self, grid, diffusion):
        mdl = MagneticModel(guiding_b=2e-5, sensitivity=5e9, center=(3e-4, -2e-4))
        s = stored(synthesize(QuditState([1.0, 0.5j, -0.3], l=1), W0, grid))
        wave = decohere(s, 2e-4, diffusion, mdl)
        rank = len(_phase_terms(mdl, grid, 2e-4)[0])
        assert wave.factors.rows.shape == (2 * rank, grid.n)
        assert "values" not in vars(wave)

    def test_sampled_wave_asks_for_no_terms(self, grid, monkeypatch):
        # a hologram's far field keeps the dense phase, so no terms are built
        import oamem.decoherence as decoherence

        def refuse(*args):
            raise AssertionError("a sampled wave built low-rank terms")

        monkeypatch.setattr(decoherence, "_phase_terms", refuse)
        f = synthesize(qubit_state(1.1, 0.4, l=2), W0, grid)
        s = stored(TransverseField(grid, f.values, f.wavelength))
        decohere(s, 1e-4, magnetic=MagneticModel(sensitivity=5e9))


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
