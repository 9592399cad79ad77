"""Campaign runners: end-to-end pipelines with CSV persistence.

Every campaign is deterministic under its seed: per-record RNG streams
are derived from the master seed with fixed spawn keys, so a parallel
schedule cannot reorder draws, and all numeric output is formatted with
repr so reruns are byte-identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import classical_limit, threshold_band
from .config import ExperimentConfig, config_hash, sha256
from .decoherence import decohere, longitudinal_drift_factor
from .errors import ConfigError, DomainError, NoCounts, NonFiniteField
from .fieldgrid import TransverseField, export_csv, export_pgm
from .holography import (export_pgm_hologram, focal_basis_phases, fraunhofer,
                         qubit_hologram, qutrit_hologram)
from .measurement import (CountRecord, fit_visibility, polar_retrieve, simulate_counts,
                          subtract_background, write_count_records, write_csv)
from .modes import (LGModeSpec, QuditState, basis_charges, decompose, lg_field,
                    qubit_state, synthesize)
from .polariton import read, write
from .rng import generate_state
from .tomography import (PROJECTION_SETS, export_density_csv, fidelity, probabilities,
                         reconstruct, tomography_report)


@dataclass(frozen=True)
class CampaignResult:
    out_dir: Path
    files: tuple[str, ...]
    summary: tuple


def _finalize(cfg: ExperimentConfig, experiment: str, out_dir: Path,
              files: list[str], summary, rng_scheme: str) -> CampaignResult:
    """Write provenance.csv, then manifest.csv with the SHA-256 of every file.

    The digests come from :data:`oamem.config.sha256`, CPython's built-in
    SHA-256, so no campaign maps OpenSSL; it hashes at about 230 MB/s
    against OpenSSL's 1200, which costs ``render`` about 0.1 s on its
    22-27 MB of outputs at n = 512.
    """
    provenance = {
        "experiment": experiment,
        "seed": str(cfg.seed),
        "config_hash": config_hash(cfg),
        "package_version": __version__,
        "rng_scheme": rng_scheme,
    }
    prov_path = out_dir / "provenance.csv"
    write_csv(prov_path, ["key", "value"], sorted(provenance.items()))
    files = files + ["provenance.csv"]
    manifest_rows = [(name, sha256((out_dir / name).read_bytes()).hexdigest())
                     for name in sorted(files)]
    write_csv(out_dir / "manifest.csv", ["path", "sha256"], manifest_rows)
    return CampaignResult(out_dir=out_dir, files=tuple(sorted(files) + ["manifest.csv"]),
                          summary=tuple(summary))


def _out_dir(cfg: ExperimentConfig, override=None) -> Path:
    target = override or cfg.output_dir
    if target is None:
        raise ConfigError("no output directory configured")
    path = Path(target)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


def _input_field(cfg: ExperimentConfig):
    """Build the stored field per the configured source.

    Returns (field, hologram_or_None); the hologram path imprints the
    binary mask on a Gaussian and takes the single lens far field, so
    the returned field lives on the focal-plane grid.  A mask depends
    on the charge alone, not on the configured state: the qubit mask
    makes (|L> + |R>) / sqrt(2) whatever ``gamma`` and ``beta`` are,
    and the qutrit mask the equal qutrit whatever ``coeffs`` are.
    ``f_abs`` compares the retrieved state with the configured one and
    ``f_rel`` with the stored one.
    """
    if cfg.source.kind == "ideal":
        return synthesize(cfg.qudit.to_state(), cfg.qudit.waist, cfg.grid,
                          cfg.memory.lambda_s), None
    gauss = lg_field(LGModeSpec(0, cfg.source.input_waist), cfg.grid, cfg.memory.lambda_s)
    if cfg.qudit.dim == 2:
        holo = qubit_hologram(cfg.qudit.l, cfg.grid)
    else:
        holo = qutrit_hologram(cfg.qudit.l, cfg.source.input_waist, cfg.grid)
    return fraunhofer(holo.imprint(gauss), cfg.source.focal), holo


def _store(cfg: ExperimentConfig) -> tuple[np.ndarray, TransverseField]:
    """The part of a storage point that does not depend on t.

    Prepares the configured input field and writes it once.  Returns the
    stored state, :func:`_retrieve` at t = 0, where no channel acts, and
    the written spin wave, which :func:`_retrieve` reads at each storage
    time.
    """
    wave = write(_input_field(cfg)[0], cfg.memory)
    return _retrieve(cfg, wave, 0.0), wave


def _channels(cfg: ExperimentConfig) -> tuple:
    """The (diffusion, magnetic) arguments of the decoherence calls; drift: :func:`_retrieve`."""
    dc = cfg.decoherence
    return cfg.memory if dc.diffusion else None, cfg.magnetic if dc.magnetic else None


def _retrieve(cfg: ExperimentConfig, wave: TransverseField, t_s: float) -> np.ndarray:
    """Qudit amplitudes a of the field read out of the written ``wave`` after t_s.

    A ket psi couples |psi^H a|^2 of the field into the fiber.  Readout
    returns the wave as the field, so the projection reads the decohered
    wave as :func:`~oamem.decoherence.decohere` returns it, with no n x n
    array: an ideal source's wave, blurred or under a low-rank phase, as
    its 1-D factors, any other in row blocks.  Projection is linear, so
    the drift factor, one number for the whole field, goes on the d
    amplitudes, exactly.  A hologram's lens gave each focal-plane mode
    the phase (-i)^|l|; dividing it out puts a in the mask-plane
    convention of the configured state.  Raises NonFiniteField when an
    amplitude is not finite.
    """
    q = cfg.qudit
    a = decompose(decohere(wave, t_s, *_channels(cfg)), q.l, q.dim, q.waist)
    if cfg.source.kind == "hologram":
        a = a / focal_basis_phases(basis_charges(q.dim, q.l))
    if cfg.decoherence.longitudinal_drift:
        a = a * longitudinal_drift_factor(cfg.memory, t_s)
    if not np.all(np.isfinite(a)):
        raise NonFiniteField(f"field values must be finite: the retrieved mode "
                             f"amplitudes at t_s = {t_s:g} s are {a}")
    return a


def _transfer(cfg: ExperimentConfig, t_s: float) -> np.ndarray:
    """The memory's d x d transfer matrix T(t_s), for an ideal source.

    Write, decoherence, readout and projection are linear, so a prepared
    state c retrieves as T c.  Column j is :func:`_retrieve` of basis
    mode j, synthesized and written.  Raises ConfigError for a hologram
    source, whose stored field is not a synthesized mode and whose
    retrieval divides out the lens's focal phases.
    """
    if cfg.source.kind != "ideal":
        raise ConfigError(f"the transfer matrix needs an ideal source, "
                          f"not a {cfg.source.kind} source")
    q = cfg.qudit
    columns = []
    for e in np.eye(q.dim):
        mode = synthesize(QuditState(e, l=q.l), q.waist, cfg.grid, cfg.memory.lambda_s)
        columns.append(_retrieve(cfg, write(mode, cfg.memory), t_s))
    return np.stack(columns, axis=1)


def _count(cfg: ExperimentConfig, a: np.ndarray, eta: float, point: int, kets):
    """One record per (label, psi) projector of the retrieved amplitudes ``a``.

    Each record is a Poisson draw whose stream is seeded by the first word
    of SeedSequence(seed, spawn_key=(point, ket index)), or the noiseless
    probability |psi^H a|^2.
    """
    counting = cfg.counting
    records = []
    for k, (label, psi) in enumerate(kets):
        prob = min(abs(np.vdot(psi, a)) ** 2, 1.0)
        if counting.poisson:
            records.append(simulate_counts(prob, cfg.photon.n_bar, eta, counting.pulses,
                                           counting.bg_rate,
                                           generate_state(cfg.seed, (point, k))[0],
                                           basis_id=label, acquisition=counting.acquisition))
        else:
            records.append(CountRecord(basis_id=label, counts=prob,
                                       acquisition=counting.acquisition))
    if counting.poisson and counting.bg_rate > 0:
        records = subtract_background(records)
    return records


def _unit_amplitudes(a: np.ndarray) -> np.ndarray:
    """a / ||a||, the state that noiseless counting of ``a`` reconstructs.

    Noiseless records hold |psi^H a|^2 and are divided by the pole
    records' sum, ||a||^2, so linear inversion returns the pure state
    a a^H / ||a||^2.  Raises NoCounts, as :func:`reconstruct` does, when
    every pole probability |a_j|^2 is 0.
    """
    if not np.sum(np.abs(a) ** 2) > 0:
        raise NoCounts("pole-basis reference counts are zero")
    return a / np.linalg.norm(a)


def storage_point(cfg: ExperimentConfig, stored: tuple[np.ndarray, TransverseField],
                  t_index: int, t_s: float, keep_records: bool = False) -> dict:
    """One storage-and-tomography pass at a single storage time.

    ``stored`` is :func:`_store` of ``cfg``.  Chain: decohere -> read ->
    project (:func:`_retrieve`) -> count -> reconstruct (linear inversion
    through the projector set's one cached pseudo-inverse) -> fidelity.
    f_abs and f_rel are sqrt(<psi|rho|psi>) against the configured and
    the stored ket, so f_abs ** 2 is the transition probability.  With
    noiseless counting rho is the pure state of the retrieved amplitudes
    a (:func:`_unit_amplitudes`), so they are the overlaps |psi^H a| / ||a||,
    at most 1, taken from a; the count records and rho are then built
    only for ``keep_records``, where a file holds them.  Poisson counting
    always counts and reconstructs.
    At t_s = 0 the amplitudes are the stored state itself, which
    :func:`_store` already projected: no channel acts and the drift factor
    is exactly 1, so projecting again would give the same bytes.
    """
    reference, wave = stored
    state = cfg.qudit.to_state()
    pset = PROJECTION_SETS[state.dim]
    a = reference if t_s == 0.0 else _retrieve(cfg, wave, t_s)
    eta = _efficiency(cfg, t_s)
    point = {"t_s": t_s, "eta": eta, "pset": pset}
    if keep_records or cfg.counting.poisson:
        point["records"] = _count(cfg, a, eta, t_index, pset.projectors)
        point["rho"] = reconstruct(point["records"], pset)
    kets = (state.coeffs, _unit_amplitudes(reference))
    if cfg.counting.poisson:
        point["f_abs"], point["f_rel"] = (fidelity(point["rho"], psi) for psi in kets)
    else:
        unit = _unit_amplitudes(a)
        point["f_abs"], point["f_rel"] = (min(float(abs(np.vdot(psi, unit))), 1.0)
                                          for psi in kets)
    return point


def _efficiency(cfg: ExperimentConfig, t_s: float) -> float:
    """eta(t_s), the efficiency that counting and the classical bounds read.

    Raises DomainError, naming t_s and tau, when eta underflows to 0.
    """
    model = cfg.efficiency.to_model()
    eta = model(t_s)
    if eta == 0.0:
        raise DomainError(f"retrieval efficiency eta0 exp(-t_s / tau) underflows to 0 "
                          f"at t_s = {t_s:g} s, tau = {model.tau:g} s")
    return eta


def _bound_columns(cfg: ExperimentConfig, eta: float) -> list[float]:
    """f_classical, band_low and band_high at efficiency ``eta``."""
    return [classical_limit(cfg.photon.n_bar, eta).f_classical,
            *threshold_band(cfg.photon, eta)]


def _map_points(cfg: ExperimentConfig, parallel: int, keep_records: bool = False):
    """Every storage point (:func:`storage_point` with ``keep_records``), on at
    most ``parallel`` threads.

    numpy releases the GIL in its FFTs and ufuncs, and each point draws
    from its own RNG streams, keyed (point, ket), so the points can run
    side by side and every schedule writes the same bytes.  The pool
    never gets more threads than there are points or CPUs; one worker
    runs the points in this thread.  Every thread reads the one config
    and stored wave.  Two threads may both build an ``lru_cache`` value
    (``_larmor_map``, ``_probe_shift``, ``_phase_terms``) the first time
    it is needed; the builds are deterministic, so whichever one the
    cache keeps holds the same numbers.  The pool's module is imported
    only when a pool starts: a serial run does not pay for the import.
    """
    stored = _store(cfg)
    jobs = list(enumerate(cfg.storage_times))
    workers = min(parallel, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda job: storage_point(cfg, stored, *job, keep_records),
                                 jobs))
    return [storage_point(cfg, stored, *job, keep_records) for job in jobs]


RNG_SCHEME = "SeedSequence(seed, spawn_key=(point_index, basis_index))"


def run_storage_decay(cfg: ExperimentConfig, out=None, parallel: int = 1) -> CampaignResult:
    """Fidelity and efficiency versus storage time, with classical bounds.

    decay.csv holds no records: with noiseless counting each fidelity is
    the overlap of the retrieved amplitudes (:func:`storage_point`), and
    no point counts or reconstructs.
    """
    out_dir = _out_dir(cfg, out)
    results = _map_points(cfg, parallel)
    header = ["t_s", "eta", "f_rel", "f_abs", "f_classical", "band_low", "band_high"]
    rows = [[r["t_s"], r["eta"], r["f_rel"], r["f_abs"], *_bound_columns(cfg, r["eta"])]
            for r in results]
    write_csv(out_dir / "decay.csv", header, rows)
    return _finalize(cfg, "storage_decay", out_dir, ["decay.csv"], rows, RNG_SCHEME)


def run_tomography(cfg: ExperimentConfig, out=None, parallel: int = 1) -> CampaignResult:
    """Full state reconstruction at each storage time."""
    out_dir = _out_dir(cfg, out)
    results = _map_points(cfg, parallel, keep_records=True)
    files = []
    summary = []
    for i, r in enumerate(results):
        counts_name = f"counts_{i:02d}.csv"
        rho_name = f"rho_{i:02d}.csv"
        report_name = f"report_{i:02d}.txt"
        write_count_records(out_dir / counts_name, r["records"])
        export_density_csv(r["rho"], out_dir / rho_name)
        (out_dir / report_name).write_text(
            tomography_report(r["pset"], r["records"], probabilities(r["rho"], r["pset"]),
                              r["rho"], r["f_abs"])
            + "\n")
        files += [counts_name, rho_name, report_name]
        summary.append([r["t_s"], r["eta"], r["f_rel"], r["f_abs"]])
    write_csv(out_dir / "summary.csv", ["t_s", "eta", "f_rel", "f_abs"], summary)
    return _finalize(cfg, "tomography", out_dir, files + ["summary.csv"], summary,
                     RNG_SCHEME)


def _first_time(cfg: ExperimentConfig) -> float:
    return cfg.storage_times[0] if cfg.storage_times else 0.0


def run_interference_scan(cfg: ExperimentConfig, out=None, parallel: int = 1) -> CampaignResult:
    """Equator scan of a stored qubit with the visibility fit."""
    out_dir = _out_dir(cfg, out)
    if cfg.qudit.dim != 2:
        raise ConfigError("interference scan requires a qubit")
    points = cfg.scan.beta_points
    betas = [2.0 * np.pi * i / points for i in range(points)]
    kets = [(f"beta_{i:02d}", np.array([1.0, np.exp(1j * beta)]) / np.sqrt(2.0))
            for i, beta in enumerate(betas)]
    t_s = _first_time(cfg)
    a = _retrieve(cfg, write(_input_field(cfg)[0], cfg.memory), t_s)
    records = _count(cfg, a, _efficiency(cfg, t_s), 0, kets)
    records = [replace(r, beta=beta) for r, beta in zip(records, betas)]
    fit = fit_visibility(records)
    write_count_records(out_dir / "scan.csv", records)
    summary = [[fit.n0, fit.delta, fit.visibility, fit.residual_rms]]
    write_csv(out_dir / "fit.csv", ["n0", "delta", "visibility", "residual_rms", "phase"],
              [summary[0] + [fit.phase]])
    return _finalize(cfg, "interference_scan", out_dir, ["scan.csv", "fit.csv"],
                     summary, RNG_SCHEME)


def run_meridian_sweep(cfg: ExperimentConfig, out=None, parallel: int = 1) -> CampaignResult:
    """Polar-angle retrieval gamma_r versus prepared gamma_w at beta = 0.

    Storage and readout are linear, so the prepared state c_L|L> + c_R|R>
    of every point retrieves as c_L a_L + c_R a_R, with a_L and a_R the
    columns of the transfer matrix (:func:`_transfer`).
    """
    out_dir = _out_dir(cfg, out)
    if cfg.qudit.dim != 2:
        raise ConfigError("meridian sweep requires a qubit")
    if cfg.source.kind != "ideal":
        raise ConfigError("meridian sweep needs an ideal source: a binary mask "
                          "cannot prepare an arbitrary Bloch state")
    t_s = _first_time(cfg)
    eta = _efficiency(cfg, t_s)
    a_l, a_r = _transfer(cfg, t_s).T
    points = cfg.meridian.gamma_points
    poles = PROJECTION_SETS[2].projectors[:2]
    rows = []
    for i in range(points):
        gamma_w = np.pi * i / (points - 1)
        c_l, c_r = qubit_state(gamma_w, 0.0, cfg.qudit.l).coeffs
        rec_l, rec_r = _count(cfg, c_l * a_l + c_r * a_r, eta, i, poles)
        rows.append([gamma_w, rec_l.counts, rec_r.counts,
                     polar_retrieve(rec_r.counts, rec_l.counts)])
    write_csv(out_dir / "meridian.csv", ["gamma_w", "n_l", "n_r", "gamma_r"], rows)
    return _finalize(cfg, "meridian_sweep", out_dir, ["meridian.csv"], rows, RNG_SCHEME)


def run_bounds_table(cfg: ExperimentConfig, out=None, parallel: int = 1) -> CampaignResult:
    """Classical limit and threshold band over the storage-time grid."""
    out_dir = _out_dir(cfg, out)
    rows = []
    for t_s in cfg.storage_times:
        eta = _efficiency(cfg, t_s)
        rows.append([t_s, eta, *_bound_columns(cfg, eta)])
    write_csv(out_dir / "bounds.csv", ["t_s", "eta", "f_classical", "band_low", "band_high"],
              rows)
    return _finalize(cfg, "bounds_table", out_dir, ["bounds.csv"], rows, "none")


def run_field_render(cfg: ExperimentConfig, out=None, parallel: int = 1) -> CampaignResult:
    """Export input, stored, and retrieved patterns as PGM and CSV maps."""
    out_dir = _out_dir(cfg, out)
    field_in, holo = _input_field(cfg)
    files = []
    export_pgm(field_in, out_dir / "input.pgm")
    export_csv(field_in, out_dir / "input.csv")
    files += ["input.pgm", "input.csv"]
    if holo is not None:
        export_pgm_hologram(holo, out_dir / "hologram.pgm")
        files.append("hologram.pgm")
    wave = write(field_in, cfg.memory)
    for i, t_s in enumerate(cfg.storage_times):
        name = f"retrieved_{i:02d}.pgm"
        export_pgm(read(decohere(wave, t_s, *_channels(cfg))), out_dir / name)
        files.append(name)
    return _finalize(cfg, "field_render", out_dir, files, [], "none")


RUNNERS = {
    "interference_scan": run_interference_scan,
    "meridian_sweep": run_meridian_sweep,
    "storage_decay": run_storage_decay,
    "tomography": run_tomography,
    "bounds_table": run_bounds_table,
    "field_render": run_field_render,
}
