import pickle

import numpy as np
import pytest
from oracles import csv_writer_export, field_norm, lg_amplitude, read_pgm

from oamem.errors import GridMismatch, NonFiniteField
from oamem.fieldgrid import (BLOCK_ROWS, GridSpec, Separable, TransverseField, export_csv,
                             export_pgm, inner_product, stack_rows, transform_to_spectrum)
from oamem.modes import LGModeSpec, QuditState, lg_field, synthesize

LAMBDA = 795e-9


def random_field(grid, rng):
    v = rng.normal(size=(grid.n, grid.n)) + 1j * rng.normal(size=(grid.n, grid.n))
    return TransverseField(grid, v, LAMBDA)


def spectrum_norm(s, grid):
    """sqrt(sum |S|^2 dq^2) of a spectrum on the q grid of ``grid``."""
    return float(np.sqrt(np.sum(np.abs(s) ** 2) * (2.0 * np.pi / grid.extent) ** 2))


class TestGridSpec:
    def test_pitch_uniform(self):
        g = GridSpec(64, 1e-3)
        assert g.pitch == pytest.approx(1e-3 / 64)
        assert np.allclose(np.diff(g.xs()), g.pitch)
        assert np.allclose(np.diff(g.ys()), g.pitch)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            GridSpec(8, 1e-3)

    def test_rejects_grid_beyond_4096(self):
        assert GridSpec(4096, 1e-3).n == 4096
        with pytest.raises(ValueError, match="n <= 4096"):
            GridSpec(8192, 1e-3)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec(100, 1e-3)

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            GridSpec(64, 0.0)

    def test_center_offsets_coordinates(self):
        g = GridSpec(64, 1e-3, center=(1e-4, -2e-4))
        assert g.xs()[32] == pytest.approx(1e-4)
        assert g.ys()[32] == pytest.approx(-2e-4)


class TestSpectralTransform:
    def test_impulse_gives_flat_magnitude(self):
        g = GridSpec(64, 1e-3)
        v = np.zeros((64, 64), dtype=complex)
        v[32, 32] = 1.0
        s = transform_to_spectrum(TransverseField(g, v, LAMBDA))
        mags = np.abs(s)
        assert np.allclose(mags, mags[0, 0], rtol=1e-12)

    def test_gaussian_pair_waist(self):
        # amplitude exp(-r^2/w^2) transforms to exp(-q^2 w^2 / 4), 1/e radius 2/w
        g = GridSpec(128, 2e-3)
        w = 300e-6
        x, y = g.mesh()
        f = TransverseField(g, np.exp(-(x ** 2 + y ** 2) / w ** 2), LAMBDA)
        s = transform_to_spectrum(f)
        q = (np.arange(g.n) - g.n // 2) * 2.0 * np.pi / g.extent
        row = np.abs(s[64, :])
        mask = row > row.max() * 1e-3
        slope = np.polyfit(q[mask] ** 2, np.log(row[mask]), 1)[0]
        assert np.sqrt(-1.0 / slope) == pytest.approx(2.0 / w, rel=1e-3)
        assert spectrum_norm(s, g) == pytest.approx(field_norm(f), rel=1e-12)

    def test_norm_conserved_on_random_fields(self, rng):
        for n, extent in [(16, 1e-3), (64, 5e-4), (256, 8e-3)]:
            f = random_field(GridSpec(n, extent), rng)
            s = transform_to_spectrum(f)
            assert abs(spectrum_norm(s, f.grid) - field_norm(f)) / field_norm(f) < 1e-12

    def test_matches_direct_sum_on_offcenter_grid(self, rng):
        # S(q) = (1 / 2 pi) sum f(x, y) exp(-i (qx x + qy y)) dx^2 over the
        # physical pixel coordinates, one q at a time
        g = GridSpec(16, 2e-3, center=(3e-4, -1e-4))
        f = random_field(g, rng)
        x, y = g.mesh()
        q = (np.arange(g.n) - g.n // 2) * 2.0 * np.pi / g.extent
        direct = np.array([[np.sum(f.values * np.exp(-1j * (qx * x + qy * y)))
                            for qx in q] for qy in q]) * g.pixel_area / (2.0 * np.pi)
        s = transform_to_spectrum(f)
        assert np.max(np.abs(s - direct)) < 1e-12 * np.max(np.abs(direct))


class TestInnerProduct:
    def test_self_product_is_squared_norm(self, grid, rng):
        f = random_field(grid, rng)
        ip = inner_product(f, f)
        assert ip.imag == pytest.approx(0.0, abs=1e-12 * abs(ip))
        assert ip.real == pytest.approx(field_norm(f) ** 2, rel=1e-12)

    def test_conjugate_symmetry(self, grid, rng):
        a, b = random_field(grid, rng), random_field(grid, rng)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))

    def test_azimuthal_orthogonality(self, grid):
        a = lg_field(LGModeSpec(1, 200e-6), grid)
        b = lg_field(LGModeSpec(-1, 200e-6), grid)
        assert abs(inner_product(a, b)) < 1e-10

    def test_cauchy_schwarz(self, grid, rng):
        for _ in range(5):
            a, b = random_field(grid, rng), random_field(grid, rng)
            assert abs(inner_product(a, b)) <= field_norm(a) * field_norm(b) * (1 + 1e-12)

    def test_sesquilinear(self, grid, rng):
        a, b, c = (random_field(grid, rng) for _ in range(3))
        alpha, beta = 0.3 - 1.2j, -0.7 + 0.4j
        combo = b.with_values(alpha * b.values + beta * c.values)
        lhs = inner_product(a, combo)
        rhs = alpha * inner_product(a, b) + beta * inner_product(a, c)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_grid_mismatch_raises(self, rng):
        a = random_field(GridSpec(64, 1e-3), rng)
        b = random_field(GridSpec(64, 2e-3), rng)
        with pytest.raises(GridMismatch):
            inner_product(a, b)


def test_grid_refinement_convergence():
    # discrete norm of the analytically normalized mode converges fast
    w0 = 200e-6
    norms = {}
    for n in (128, 256):
        g = GridSpec(n, 3.2e-3)
        r, phi = g.polar()
        amp = lg_amplitude(2, w0, r, phi)
        norms[n] = np.sqrt(np.sum(np.abs(amp) ** 2) * g.pixel_area)
    assert abs(norms[256] - norms[128]) < 1e-6


def test_field_values_immutable(grid, rng):
    f = random_field(grid, rng)
    with pytest.raises(ValueError):
        f.values[0, 0] = 1.0


class TestExport:
    def test_pgm_roundtrip(self, tmp_path, grid):
        f = lg_field(LGModeSpec(1, 200e-6), grid)
        path = tmp_path / "field.pgm"
        export_pgm(f, path)
        img = read_pgm(path)
        assert img.shape == (grid.n, grid.n)
        assert img.max() == 65535
        peak = np.unravel_index(np.argmax(f.intensity()), img.shape)
        assert img[peak] == 65535

    def test_pgm_deterministic(self, tmp_path, grid):
        f = lg_field(LGModeSpec(1, 200e-6), grid)
        export_pgm(f, tmp_path / "a.pgm")
        export_pgm(f, tmp_path / "b.pgm")
        assert (tmp_path / "a.pgm").read_bytes() == (tmp_path / "b.pgm").read_bytes()

    def test_csv_columns(self, tmp_path):
        g = GridSpec(16, 1e-3)
        f = TransverseField(g, np.ones((16, 16)) * (1 + 2j), LAMBDA)
        path = tmp_path / "field.csv"
        export_csv(f, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,re,im"
        assert len(lines) == 1 + 16 * 16
        x, y, re, im = (float(tok) for tok in lines[1].split(","))
        assert (re, im) == (1.0, 2.0)

    @pytest.mark.parametrize("source", ["samples", "factors"])
    def test_csv_bytes_match_csv_writer(self, tmp_path, rng, source):
        # an off-centre grid of 80 rows, so that a block is short, with
        # coordinates and values of every sign and magnitude
        g = GridSpec(128, 2e-3, center=(3.7e-4, -1.1e-4))
        if source == "factors":
            f = synthesize(QuditState([0.8, 0.5j, -0.3 + 0.2j], l=1), 150e-6, g, LAMBDA)
        else:
            f = random_field(g, rng)
            f = f.with_values(f.values * np.logspace(-300, 300, g.n))
        export_csv(f, tmp_path / "got.csv")
        csv_writer_export(f, tmp_path / "expected.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


class TestFactoredField:
    """A separable field holds only its factors and builds its values when read."""

    @pytest.fixture
    def field(self, grid):
        return synthesize(QuditState([0.8, 0.5j, -0.3 + 0.2j], l=1), 200e-6, grid, LAMBDA)

    def test_holds_no_samples(self, field):
        assert field.samples is None and "values" not in vars(field)

    def test_values_are_the_factors_array_read_only_and_cached(self, field):
        values = field.values
        assert np.array_equal(values, stack_rows(field.factors.row_blocks(), field.grid.n))
        f = field.factors
        dense = np.einsum("jy,jk,kx->yx", f.rows, f.mix, f.xrows)
        assert np.max(np.abs(values - dense)) <= 1e-13 * np.max(np.abs(dense))
        assert not values.flags.writeable
        assert field.values is values

    def test_row_blocks_equal_values(self, field):
        blocks = list(field.row_blocks())
        assert all(len(b) == BLOCK_ROWS for b in blocks[:-1])
        assert np.array_equal(np.concatenate(blocks), field.values)

    def test_samples_passed_with_factors_are_dropped(self, field, grid):
        f = TransverseField(grid, np.zeros((grid.n, grid.n)), LAMBDA, field.factors)
        assert f.samples is None
        assert np.array_equal(f.values, field.values)

    def test_needs_samples_or_factors(self, grid):
        with pytest.raises(ValueError, match="samples or factors"):
            TransverseField(grid, None, LAMBDA)

    def test_factor_rows_must_match_grid(self, field):
        with pytest.raises(ValueError, match="do not match grid"):
            TransverseField(GridSpec(2 * field.grid.n, field.grid.extent), None, LAMBDA,
                            field.factors)

    @pytest.mark.parametrize("part", ["rows", "mix"])
    def test_non_finite_factors_raise(self, field, part):
        rows, mix = np.array(field.factors.rows), np.array(field.factors.mix)
        {"rows": rows, "mix": mix}[part][0, 0] = np.nan
        with pytest.raises(NonFiniteField):
            Separable(rows, mix, field.factors.xrows)

    def test_overflowing_values_raise_when_built(self, field, grid):
        # finite factors whose product overflows: the values are checked
        # when they are built
        huge = TransverseField(grid, None, LAMBDA,
                               Separable(field.factors.rows * 1e200, field.factors.mix * 1e200,
                                         field.factors.xrows))
        with pytest.raises(NonFiniteField):
            huge.values

    def test_pickle_round_trip(self, field):
        copy = pickle.loads(pickle.dumps(field))
        assert copy.samples is None and "values" not in vars(copy)
        assert np.array_equal(copy.values, field.values)


class TestPhasedFactors:
    """Distinct, complex y-rows and x-rows: Y^T M X, as a low-rank phase leaves them."""

    @pytest.fixture
    def base(self, grid):
        return synthesize(QuditState([1.0, 0.5j, -0.3 + 0.2j], l=1), 250e-6, grid)

    @pytest.fixture
    def terms(self, grid, rng):
        # a rank-3 map of modulus about 1, complex on both axes
        u = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(3, grid.n))) / 3
        v = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(3, grid.n)))
        return u, v

    @staticmethod
    def close(got, want, rtol=1e-13):
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))

    def test_phased_array_is_the_product(self, base, terms):
        u, v = terms
        phased = base.factors.phased(u, v)
        assert phased.rows.shape == phased.xrows.shape == (2 * 3, base.grid.n)
        values = stack_rows(phased.row_blocks(), base.grid.n)
        self.close(values, base.values * (u.T @ v))
        assert np.array_equal(TransverseField(base.grid, None, LAMBDA, phased).values, values)

    def test_contract_equals_the_dense_contraction(self, base, terms, rng):
        phased = base.factors.phased(*terms)
        rows = rng.normal(size=(3, base.grid.n))
        field = TransverseField(base.grid, None, LAMBDA, phased)
        self.close(field.contract(rows), rows @ field.values @ rows.T)

    def test_filtered_equals_the_spectral_filter(self, base, terms):
        k1 = np.exp(-0.5 * (2 * np.pi * np.fft.fftfreq(base.grid.n, d=base.grid.pitch)) ** 2
                    * (40e-6) ** 2)
        phased = TransverseField(base.grid, None, LAMBDA, base.factors.phased(*terms))
        got = phased.filtered(k1)
        assert got.factors is not None
        want = np.fft.ifft2(np.fft.fft2(phased.values) * np.outer(k1, k1))
        self.close(got.values, want)

    def test_quarter_power_equals_the_folded_2d_transform(self, base, terms):
        # real rows on both axes, and distinct complex rows: |fft2|^2 of the
        # values, every pixel added at its (|i|, |j|) frequency magnitudes
        n = base.grid.n
        magnitudes = np.abs(np.fft.fftfreq(n, d=1.0 / n)).astype(np.intp)
        phased = TransverseField(base.grid, None, LAMBDA, base.factors.phased(*terms))
        for field in (base, phased):
            got = field.folded_power()[:, :]
            assert "spectrum" not in vars(field)
            want = np.zeros((n // 2 + 1, n // 2 + 1))
            power = np.abs(np.fft.fft2(field.values)) ** 2
            np.add.at(want, (magnitudes[:, None], magnitudes), power)
            self.close(got, want)

    def test_real_rows_on_both_axes_contract_as_their_samples(self, base):
        # an ideal source's field has the same real rows on both axes; its
        # factors contract to the numbers of its sampled copy's row blocks
        assert np.array_equal(base.factors.rows, base.factors.xrows)
        assert not base.factors.rows.imag.any()
        rows = np.random.default_rng(1).normal(size=(2, base.grid.n))
        plain = TransverseField(base.grid, base.values, LAMBDA)
        self.close(base.contract(rows), plain.contract(rows))


class TestStreamedField:
    def test_values_and_blocks_come_from_the_stream(self, grid, rng):
        values = random_field(grid, rng).values
        calls = []

        def stream():
            calls.append(1)
            buffer = np.empty((BLOCK_ROWS, grid.n), dtype=np.complex128)
            for start in range(0, grid.n, BLOCK_ROWS):
                # one buffer, overwritten by the next block
                buffer[:] = values[start:start + BLOCK_ROWS]
                yield buffer

        f = TransverseField(grid, np.zeros((grid.n, grid.n)), LAMBDA, stream=stream)
        assert f.samples is None and f.factors is None
        assert np.array_equal(f.values, values)
        assert not f.values.flags.writeable
        rows = rng.normal(size=(2, grid.n))
        plain = TransverseField(grid, values, LAMBDA)
        assert np.array_equal(f.contract(rows), plain.contract(rows))
        assert len(calls) == 2

    def test_non_finite_stream_raises_when_built(self, grid):
        f = TransverseField(grid, None, LAMBDA,
                            stream=lambda: iter([np.full((grid.n, grid.n), np.nan + 0j)]))
        with pytest.raises(NonFiniteField):
            f.values
