"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths they check: the convolution
oracle is a dense separable matrix product in real space (no FFT), the
longitudinal-drift oracle moves discrete atomic slices at random instead
of using the analytic Gaussian average, the photon-statistics oracles
are plain finite sums, the diffraction-phase oracle sorts every pixel of
a centered spectrum by |q|, and the field overlap and PGM reader work on
the raw arrays and bytes, and the CSV exporter writes through
``csv.writer`` one pixel at a time.  The dense amplitude reference projects a whole
read-out n x n field, where a campaign streams the decohered wave.  The
fidelity oracle is Uhlmann's general formula for two density matrices,
by eigendecomposition, where ``tomography.fidelity`` takes a pure
reference ket.  The noiseless-fidelity reference counts, reconstructs
and takes the fidelity of the reconstruction, where a campaign takes
the overlap of the retrieved amplitudes.  The nodal-line finder is an
analysis that only the tests run: no campaign locates a dark line, and
the dark-line tests measure its shift with it.  The count and log-gamma
references are numpy's own: ``numpy.random``'s Generator, and its C
``random_loggam`` called through ``ctypes``, where ``oamem.rng`` ports
them to Python.  The low-rank phase's probe certificate contracts each
probe line apart; its reference contracts both in one 4-D ``np.einsum``.
"""

import csv
import ctypes
import math

import numpy as np

from oamem.bounds import TAIL_EPS
from oamem.decoherence import longitudinal_drift_factor
from oamem.errors import DomainError
from oamem.fieldgrid import TransverseField
from oamem.holography import focal_basis_phases
from oamem.measurement import CountRecord
from oamem.modes import basis_charges, decompose
from oamem.tomography import PROJECTION_SETS, DensityMatrix, fidelity, reconstruct


def numpy_simulate_counts(prob: float, n_bar: float, eta: float, pulses: int,
                          bg_rate: float, seed: int, basis_id: str = "",
                          acquisition: float = 1.0) -> CountRecord:
    """``measurement.simulate_counts`` with its two draws from ``numpy.random``."""
    rng = np.random.default_rng(seed)
    counts = int(rng.poisson(pulses * (n_bar * eta * prob + bg_rate)))
    background = int(rng.poisson(pulses * bg_rate))
    return CountRecord(basis_id=basis_id, counts=counts, background=background,
                       acquisition=acquisition)


def numpy_loggam(x: float) -> float:
    """numpy's C ``random_loggam(x)``, which its Poisson sampler calls from lam = 10 on."""
    import numpy.random._generator as generator

    loggam = ctypes.CDLL(generator.__file__).random_loggam
    loggam.argtypes, loggam.restype = [ctypes.c_double], ctypes.c_double
    return loggam(x)


def direct_gaussian_convolution(values: np.ndarray, pitch: float, sigma: float) -> np.ndarray:
    """Linear (non-circular) convolution with a sampled unit-mass Gaussian.

    Separable kernel applied as K @ V @ K.T with
    K[i, j] = exp(-(x_i - x_j)^2 / (2 sigma^2)) * pitch / sqrt(2 pi sigma^2).
    """
    n = values.shape[0]
    x = np.arange(n) * pitch
    kernel = np.exp(-((x[:, None] - x[None, :]) ** 2) / (2.0 * sigma ** 2))
    kernel *= pitch / math.sqrt(2.0 * math.pi * sigma ** 2)
    return kernel @ values @ kernel.T


def sorted_diffraction_phase(values: np.ndarray, pitch: float, diameter: float,
                             k_s: float) -> float:
    """q99^2 D / k_s, with q99 the smallest |q| enclosing 99 % of the spectral energy.

    Centered 2-D FFT of the samples, every pixel's |q| ordered with argsort,
    and the cumulative energy searched in that order.
    """
    n = values.shape[0]
    spectrum = np.fft.fftshift(np.fft.fft2(np.fft.ifftshift(values), norm="ortho"))
    q = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(n, d=pitch))
    qx, qy = np.meshgrid(q, q)
    qr = np.hypot(qx, qy).ravel()
    order = np.argsort(qr)
    cum = np.cumsum((np.abs(spectrum) ** 2).ravel()[order])
    if cum[-1] == 0:
        return 0.0
    idx = int(np.searchsorted(cum, 0.99 * cum[-1]))
    q99 = qr[order[min(idx, qr.size - 1)]]
    return float(q99 ** 2 * diameter / k_s)


def overlap(a, b) -> complex:
    """Normalized projection <a|b> / (|a| |b|) of two fields' sample arrays."""
    return complex(np.vdot(a.values, b.values)
                   / (np.linalg.norm(a.values) * np.linalg.norm(b.values)))


def field_norm(f) -> float:
    """Physical L2 norm sqrt(sum |f|^2 * pixel_area) of a field's samples."""
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * f.grid.pixel_area))


def pure_density(vector) -> DensityMatrix:
    """The density matrix |v><v| of the normalized ket v of ``vector``."""
    v = np.asarray(vector, dtype=np.complex128)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


class NodalLineNotFound(Exception):
    """No intensity minimum below threshold along the search axis."""


def nodal_position(s) -> float:
    """x of the deepest interior intensity minimum along the center row.

    Refined with a parabolic fit through the three samples around the
    minimum; near a true zero the intensity is quadratic, so the vertex
    recovers the node to far better than a pixel.
    """
    n = s.grid.n
    row = np.abs(s.values[n // 2, :]) ** 2
    xs = s.grid.xs()
    peak = row.max()
    if peak == 0:
        raise NodalLineNotFound("empty pattern")
    mid, left, right = row[1:-1], row[:-2], row[2:]
    candidates = np.where((mid <= left) & (mid <= right))[0] + 1
    candidates = candidates[row[candidates] < 0.1 * peak]
    # a dark line separates two bright regions; numerical ripple in the
    # far tails must not qualify
    flanked = [i for i in candidates
               if row[:i].max(initial=0.0) > 0.1 * peak
               and row[i + 1:].max(initial=0.0) > 0.1 * peak]
    if not flanked:
        raise NodalLineNotFound("no local minimum below 10% of the peak")
    i = int(min(flanked, key=lambda j: row[j]))
    y0, y1, y2 = row[i - 1], row[i], row[i + 1]
    denom = y0 - 2.0 * y1 + y2
    offset = 0.0 if denom == 0 else 0.5 * (y0 - y2) / denom
    return float(xs[i] + offset * s.grid.pitch)


def qutrit_nodal_shift(before, after) -> float:
    """Signed displacement of the dark line along x, after minus before."""
    return nodal_position(after) - nodal_position(before)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Square-root fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)) of two density matrices.

    Eigenvalues of the inner matrix below 1e-13 of its largest are the
    eigensolver's noise, which the square root would inflate to ~1e-7.
    """
    root = _psd_sqrt(rho)
    inner = root @ sigma @ root
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    floor = max(vals.max(), 0.0) * 1e-13
    return float(np.sum(np.sqrt(vals[vals > floor])))


def dense_amplitudes(cfg, field, t_s: float = 0.0) -> np.ndarray:
    """Qudit amplitudes of a whole read-out ``field``, stored for t_s under ``cfg``.

    Projects every row of the field, then divides out a hologram's
    focal-plane phases (-i)^|l| and scales by the longitudinal drift
    factor at t_s, in the order of the campaign path.
    """
    q = cfg.qudit
    dense = TransverseField(field.grid, field.values, field.wavelength)
    a = decompose(dense, q.l, q.dim, q.waist)
    if cfg.source.kind == "hologram":
        a = a / focal_basis_phases(basis_charges(q.dim, q.l))
    if cfg.decoherence.longitudinal_drift:
        a = a * longitudinal_drift_factor(cfg.memory, t_s)
    return a


def worst_probe_entry_4d(exact: np.ndarray, w: np.ndarray, probes: np.ndarray):
    """``decoherence._worst_probe_entry`` with the terms on both lines from one 4-D einsum.

    The coefficients are [line, part, p, k] against the 2R parts of the
    terms on the other axis, [line, k, x].
    """
    r = w.shape[1]
    at_probes = w[:, :, probes].transpose(0, 2, 1)
    lines = w[::-1]
    coeffs = np.empty((2, 2, len(probes), 2 * r))
    coeffs[:, 0, :, :r] = coeffs[:, 1, :, r:] = at_probes.real
    coeffs[:, 1, :, :r] = at_probes.imag
    coeffs[:, 0, :, r:] = -at_probes.imag
    err = np.einsum("lcpk,lkx->lcpx", coeffs, np.concatenate((lines.real, lines.imag), axis=1))
    np.subtract(exact.real, err[:, 0], out=err[:, 0])
    np.subtract(exact.imag, err[:, 1], out=err[:, 1])
    size = np.einsum("lcpx,lcpx->lpx", err, err)
    line, p, k = np.unravel_index(np.argmax(size), size.shape)
    return float(size[line, p, k]), line, p, k, err[line, 0, p] + 1j * err[line, 1, p]


def reconstructed_fidelities(cfg, a: np.ndarray, reference: np.ndarray) -> tuple[float, float]:
    """f_abs and f_rel of noiseless counting of the retrieved amplitudes ``a``, the long way.

    One noiseless record min(|psi^H a|^2, 1) per projector of the qudit's
    set, linear inversion (``reconstruct``), and ``fidelity`` of the
    reconstructed rho against the configured ket and the unit ``reference``
    (the stored amplitudes).
    """
    pset = PROJECTION_SETS[cfg.qudit.dim]
    records = [CountRecord(basis_id=label, counts=min(abs(np.vdot(psi, a)) ** 2, 1.0))
               for label, psi in pset.projectors]
    rho = reconstruct(records, pset)
    return (fidelity(rho, cfg.qudit.to_state().coeffs),
            fidelity(rho, reference / np.linalg.norm(reference)))


def csv_writer_export(f, path) -> None:
    """Per-pixel (x, y, Re, Im) rows through ``csv.writer``, one pixel at a time.

    Rows follow ``GridSpec.mesh`` raveled: y outer, x inner.
    """
    x, y = f.grid.mesh()
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "re", "im"])
        for xi, yi, vi in zip(x.ravel(), y.ravel(), f.values.ravel()):
            w.writerow([repr(float(xi)), repr(float(yi)),
                        repr(float(vi.real)), repr(float(vi.imag))])


def read_pgm(path) -> np.ndarray:
    """Pixel values of a binary (P5) PGM file, as int64 rows."""
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic != b"P5":
            raise ValueError("not a binary PGM file")
        dims = fh.readline().split()
        width, height = int(dims[0]), int(dims[1])
        maxval = int(fh.readline())
        count = width * height
        nbytes = 2 * count if maxval > 255 else count
        raw = fh.read(nbytes)
    dtype = ">u2" if maxval > 255 else "u1"
    return np.frombuffer(raw, dtype=dtype).reshape(height, width).astype(np.int64)


def lg_amplitude(l: int, w0: float, r: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Analytically normalized continuum LG_{l,0} amplitude, in polar form."""
    c = math.sqrt(2.0 / (math.pi * math.factorial(abs(l)))) / w0
    radial = (np.sqrt(2.0) * r / w0) ** abs(l) * np.exp(-(r / w0) ** 2)
    return c * radial * np.exp(1j * l * phi)


Z_SAMPLES = 64


def longitudinal_slices(diameter: float, delta_k: float):
    """A stored spin wave along z as Z_SAMPLES slices across [0, D].

    Returns positions, Gaussian atomic-density weights (sigma = D/4,
    summing to 1) and the coherence phase exp(-i dk z) each slice
    carries right after writing.
    """
    z = np.linspace(0.0, diameter, Z_SAMPLES)
    w = np.exp(-((z - diameter / 2.0) ** 2) / (2.0 * (diameter / 4.0) ** 2))
    return z, w / w.sum(), np.exp(-1j * delta_k * z)


def slice_readout(z, weight, phase, delta_k: float):
    """Forward-readout amplitude sum_j w_j phase_j exp(+i dk z_j) / sum_j w_j.

    ``z`` holds the current slice positions (the last axis runs over
    slices); atoms carry their coherence phase when they move, so the
    amplitude is exactly 1 until slices drift along z with dk != 0.
    """
    return np.sum(weight * phase * np.exp(1j * delta_k * z), axis=-1) / np.sum(weight)


def monte_carlo_drift_factor(delta_k: float, diameter: float, sigma: float,
                             draws: int, rng: np.random.Generator) -> tuple[float, float]:
    """Mean readout amplitude and its standard error under ballistic drift.

    Each draw displaces every slice by an independent N(0, sigma^2) step.
    """
    z, weight, phase = longitudinal_slices(diameter, delta_k)
    moved = z + rng.normal(0.0, sigma, (draws, z.size))
    samples = slice_readout(moved, weight, phase, delta_k).real
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(draws))


def poisson_terms(n_bar: float, terms: int) -> list[float]:
    probs = [math.exp(-n_bar)]
    for n in range(1, terms + 1):
        probs.append(probs[-1] * n_bar / n)
    return probs


def poisson_tail(n_bar: float, k: int) -> float:
    """The Poisson mass at N >= k, each term from ``math.lgamma`` and the sum by ``math.fsum``.

    No running product or sum rounds, so the result stays within about
    1e-13 of the exact mass, relative, up to n_bar = 708; the terms run
    until they fall below 1e-30 past the mean.
    """
    terms, n = [], k
    while True:
        terms.append(math.exp(n * math.log(n_bar) - n_bar - math.lgamma(n + 1)))
        if n > n_bar and terms[-1] < 1e-30:
            return math.fsum(terms)
        n += 1


def brute_weighted_limit(n_bar: float, terms: int = 200) -> float:
    probs = poisson_terms(n_bar, terms)
    total = sum((n + 1) / (n + 2) * p for n, p in enumerate(probs) if n >= 1)
    return total / (1.0 - probs[0])


def poisson_weighted_limit(n_bar: float) -> float:
    """Average of (N+1)/(N+2) over the zero-truncated Poisson distribution.

    The memory's classical limit at unit efficiency.  The series runs
    until the remaining Poisson tail mass is below ``TAIL_EPS``.
    """
    if n_bar <= 0:
        raise DomainError("mean photon number must be positive")
    p0 = p = cumulative = math.exp(-n_bar)
    total, n = 0.0, 0
    while 1.0 - cumulative > TAIL_EPS:
        n += 1
        p *= n_bar / n
        cumulative += p
        total += (n + 1) / (n + 2) * p
    return total / (1.0 - p0)


def brute_nmin(n_bar: float, eta: float, terms: int = 200) -> int:
    probs = poisson_terms(n_bar, terms)
    budget = (1.0 - probs[0]) * eta
    for nm in range(terms):
        if sum(probs[nm + 1:]) <= budget:
            return nm
    return terms


def brute_classical_limit(n_bar: float, eta: float, terms: int = 400) -> float:
    probs = poisson_terms(n_bar, terms)
    nm = brute_nmin(n_bar, eta, terms)
    tail = sum(probs[nm + 1:])
    weighted = sum((n + 1) / (n + 2) * p for n, p in enumerate(probs) if n >= nm + 1)
    gamma = eta * (1.0 - probs[0]) - tail
    return ((nm + 1) / (nm + 2) * gamma + weighted) / (gamma + tail)
