"""Campaign runners: end-to-end pipelines with CSV persistence.

Every campaign is deterministic under its seed: per-record RNG streams
are derived from the master seed with fixed spawn keys, so a parallel
schedule cannot reorder draws, and all numeric output is formatted with
repr so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import classical_limit, threshold_band
from .config import ExperimentConfig, config_hash
from .decoherence import decohere, longitudinal_drift_factor
from .errors import ConfigError
from .fieldgrid import TransverseField, export_csv, export_pgm
from .holography import (export_pgm_hologram, focal_basis_phases, fraunhofer,
                         qubit_hologram, qutrit_hologram)
from .measurement import (CountRecord, fit_visibility, polar_retrieve, simulate_counts,
                          subtract_background, write_count_records)
from .modes import (LGModeSpec, QuditState, basis_charges, decompose, lg_field,
                    qubit_state, synthesize)
from .polariton import read, write
from .tomography import (DensityMatrix, ProjectionSet, export_density_csv,
                         fidelity, probabilities, reconstruct, tomography_report)


@dataclass(frozen=True)
class CampaignResult:
    out_dir: Path
    files: tuple[str, ...]
    summary: tuple
    provenance: dict


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return repr(float(value))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _record_seed(master: int, *spawn_key: int) -> int:
    """Deterministic per-record stream id from the master seed."""
    return int(np.random.SeedSequence(entropy=master, spawn_key=spawn_key)
               .generate_state(1)[0])


def _finalize(cfg: ExperimentConfig, experiment: str, out_dir: Path,
              files: list[str], summary, rng_scheme: str) -> CampaignResult:
    provenance = {
        "experiment": experiment,
        "seed": str(cfg.seed),
        "config_hash": config_hash(cfg),
        "package_version": __version__,
        "rng_scheme": rng_scheme,
    }
    prov_path = out_dir / "provenance.csv"
    _write_csv(prov_path, ["key", "value"], sorted(provenance.items()))
    files = files + ["provenance.csv"]
    manifest_rows = [(name, _sha256(out_dir / name)) for name in sorted(files)]
    _write_csv(out_dir / "manifest.csv", ["path", "sha256"], manifest_rows)
    return CampaignResult(out_dir=out_dir, files=tuple(sorted(files) + ["manifest.csv"]),
                          summary=tuple(summary), provenance=provenance)


def _out_dir(cfg: ExperimentConfig, override=None) -> Path:
    target = override or cfg.output_dir
    if target is None:
        raise ConfigError("no output directory configured")
    path = Path(target)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _input_field(cfg: ExperimentConfig):
    """Build the stored field per the configured source.

    Returns (field, hologram_or_None); the hologram path imprints the
    binary mask on a Gaussian and takes the single lens far field, so
    the returned field lives on the focal-plane grid.
    """
    state = cfg.qudit.to_state()
    if cfg.source.kind == "ideal":
        return synthesize(state, cfg.qudit.waist, cfg.grid, cfg.memory.lambda_s), None
    gauss = lg_field(LGModeSpec(0, cfg.source.input_waist), cfg.grid, cfg.memory.lambda_s)
    if cfg.qudit.dim == 2:
        holo = qubit_hologram(cfg.qudit.l, cfg.grid)
    else:
        holo = qutrit_hologram(cfg.qudit.l, cfg.source.input_waist, cfg.grid)
    return fraunhofer(holo.imprint(gauss), cfg.source.focal), holo


def _store(cfg: ExperimentConfig) -> tuple[np.ndarray, TransverseField]:
    """The part of a storage point that does not depend on t.

    Prepares the configured input field and writes it once.  Returns its
    qudit-basis amplitudes (the stored state) and the written spin wave,
    which :func:`_retrieved_amplitudes` decoheres and reads at each storage
    time.
    """
    field_in, _ = _input_field(cfg)
    return _amplitudes(cfg, field_in), write(field_in, cfg.memory)


def _decohere(cfg: ExperimentConfig, wave: TransverseField, t_s: float) -> TransverseField:
    """The written spin wave after t_s of the configured channels (drift: :func:`_amplitudes`)."""
    dc = cfg.decoherence
    return decohere(wave, t_s, cfg.memory if dc.diffusion else None,
                    cfg.magnetic if dc.magnetic else None)


def _retrieved_amplitudes(cfg: ExperimentConfig, wave: TransverseField, t_s: float) -> np.ndarray:
    """:func:`_amplitudes` of the field read out of ``wave`` after t_s.

    Readout negates the spin wave, and projection is linear, so the sign
    goes on the d amplitudes, exactly: the decohered n x n array is
    projected as it is, with no negated copy.
    """
    return -_amplitudes(cfg, _decohere(cfg, wave, t_s), t_s)


def _amplitudes(cfg: ExperimentConfig, field: TransverseField, t_s: float = 0.0) -> np.ndarray:
    """Qudit-basis mode amplitudes a of ``field``, read out after t_s.

    Projection is linear, so a ket psi couples |psi^H a|^2 of the field
    into the fiber, and the longitudinal drift factor, one number for the
    whole field, scales a.  A hologram field lives in the focal plane, where
    the lens gave each mode the phase (-i)^|l|; dividing it out expresses a
    in the mask-plane convention of the configured state.
    """
    q = cfg.qudit
    a = decompose(field, q.l, q.dim, q.waist)
    if cfg.source.kind == "hologram":
        a = a / focal_basis_phases(basis_charges(q.dim, q.l))
    if cfg.decoherence.longitudinal_drift:
        a = a * longitudinal_drift_factor(cfg.memory, t_s)
    return a


def _measure(cfg: ExperimentConfig, wave: TransverseField, point: int, t_s: float, kets):
    """Retrieve the written ``wave`` after t_s, then count.

    Returns (eta at t_s, records); see :func:`_count`.
    """
    a = _retrieved_amplitudes(cfg, wave, t_s)
    eta = cfg.efficiency.to_model()(t_s)
    return eta, _count(cfg, a, eta, point, kets)


def _count(cfg: ExperimentConfig, a: np.ndarray, eta: float, point: int, kets):
    """One record per (label, psi) projector of the retrieved amplitudes ``a``.

    Each record is a Poisson draw keyed (point, ket index), or the
    noiseless probability |psi^H a|^2.
    """
    counting = cfg.counting
    records = []
    for k, (label, psi) in enumerate(kets):
        prob = min(abs(np.vdot(psi, a)) ** 2, 1.0)
        if counting.poisson:
            records.append(simulate_counts(prob, cfg.photon.n_bar, eta, counting.pulses,
                                           counting.bg_rate, _record_seed(cfg.seed, point, k),
                                           basis_id=label, acquisition=counting.acquisition))
        else:
            records.append(CountRecord(basis_id=label, counts=prob,
                                       acquisition=counting.acquisition))
    if counting.poisson and counting.bg_rate > 0:
        records = subtract_background(records)
    return records


def storage_point(cfg: ExperimentConfig, stored: tuple[np.ndarray, TransverseField],
                  t_index: int, t_s: float) -> dict:
    """One storage-and-tomography pass at a single storage time.

    ``stored`` is :func:`_store` of ``cfg``.  Chain: decohere -> read ->
    project -> count -> reconstruct -> fidelity, exactly composing the
    module operations.
    """
    amplitudes, wave = stored
    state = cfg.qudit.to_state()
    pset = ProjectionSet.qubit() if state.dim == 2 else ProjectionSet.qutrit()
    eta, records = _measure(cfg, wave, t_index, t_s, pset.projectors)
    rho = reconstruct(records, pset)
    f_abs = fidelity(rho, DensityMatrix(state.density_matrix()))
    f_rel = fidelity(rho, DensityMatrix(QuditState(amplitudes, l=state.l).density_matrix()))
    bound = classical_limit(cfg.photon.n_bar, eta)
    band = threshold_band(cfg.photon, eta)
    return {
        "t_s": t_s, "eta": eta, "f_rel": f_rel, "f_abs": f_abs,
        "f_classical": bound.f_classical, "band_low": band[0], "band_high": band[1],
        "records": records, "rho": rho,
        "probs": probabilities(rho, pset), "pset": pset,
    }


_WORKER_STORED = None


def _init_worker(cfg: ExperimentConfig, stored) -> None:
    global _WORKER_STORED
    _WORKER_STORED = (cfg, stored)


def _worker_point(job):
    return storage_point(*_WORKER_STORED, *job)


def _map_points(cfg: ExperimentConfig, parallel: int):
    """Every storage point, on at most ``parallel`` worker processes.

    The pool forks all its workers at once, so it never gets more than
    there are points or CPUs; one worker runs the points in this process.
    Each worker receives the config and the stored wave (with its cached
    spectrum) once, and each job only its (index, storage time).
    """
    stored = _store(cfg)
    jobs = list(enumerate(cfg.storage_times))
    workers = min(parallel, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(cfg, stored)) as pool:
            return list(pool.map(_worker_point, jobs))
    return [storage_point(cfg, stored, *job) for job in jobs]


RNG_SCHEME = "SeedSequence(seed, spawn_key=(point_index, basis_index))"


def run_storage_decay(cfg: ExperimentConfig, out=None, parallel: int = 1) -> CampaignResult:
    """Fidelity and efficiency versus storage time, with classical bounds."""
    out_dir = _out_dir(cfg, out)
    results = _map_points(cfg, parallel)
    header = ["t_s", "eta", "f_rel", "f_abs", "f_classical", "band_low", "band_high"]
    rows = [[r[k] for k in header] for r in results]
    _write_csv(out_dir / "decay.csv", header, rows)
    return _finalize(cfg, "storage_decay", out_dir, ["decay.csv"], rows, RNG_SCHEME)


def run_tomography(cfg: ExperimentConfig, out=None, parallel: int = 1) -> CampaignResult:
    """Full state reconstruction at each storage time."""
    out_dir = _out_dir(cfg, out)
    results = _map_points(cfg, parallel)
    files = []
    summary = []
    for i, r in enumerate(results):
        counts_name = f"counts_{i:02d}.csv"
        rho_name = f"rho_{i:02d}.csv"
        report_name = f"report_{i:02d}.txt"
        write_count_records(out_dir / counts_name, r["records"])
        export_density_csv(r["rho"], out_dir / rho_name)
        (out_dir / report_name).write_text(
            tomography_report(r["pset"], r["records"], r["probs"], r["rho"], r["f_abs"])
            + "\n")
        files += [counts_name, rho_name, report_name]
        summary.append([r["t_s"], r["eta"], r["f_rel"], r["f_abs"]])
    _write_csv(out_dir / "summary.csv", ["t_s", "eta", "f_rel", "f_abs"], summary)
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
    _, records = _measure(cfg, _store(cfg)[1], 0, _first_time(cfg), kets)
    records = [replace(r, beta=beta) for r, beta in zip(records, betas)]
    fit = fit_visibility(records)
    write_count_records(out_dir / "scan.csv", records)
    summary = [[fit.n0, fit.delta, fit.visibility, fit.residual_rms]]
    _write_csv(out_dir / "fit.csv", ["n0", "delta", "visibility", "residual_rms", "phase"],
               [summary[0] + [fit.phase]])
    return _finalize(cfg, "interference_scan", out_dir, ["scan.csv", "fit.csv"],
                     summary, RNG_SCHEME)


def run_meridian_sweep(cfg: ExperimentConfig, out=None, parallel: int = 1) -> CampaignResult:
    """Polar-angle retrieval gamma_r versus prepared gamma_w at beta = 0.

    Storage and readout are linear, so |L> and |R> are stored and retrieved
    once each, and the prepared state c_L|L> + c_R|R> of every point
    retrieves as c_L a_L + c_R a_R.
    """
    out_dir = _out_dir(cfg, out)
    if cfg.qudit.dim != 2:
        raise ConfigError("meridian sweep requires a qubit")
    if cfg.source.kind != "ideal":
        raise ConfigError("meridian sweep needs an ideal source: a binary mask "
                          "cannot prepare an arbitrary Bloch state")
    t_s = _first_time(cfg)
    eta = cfg.efficiency.to_model()(t_s)
    retrieved = []
    for coeffs in (((1.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (1.0, 0.0))):
        pole = replace(cfg, qudit=replace(cfg.qudit, coeffs=coeffs, gamma=None, beta=None))
        retrieved.append(_retrieved_amplitudes(pole, _store(pole)[1], t_s))
    a_l, a_r = retrieved
    points = cfg.meridian.gamma_points
    poles = ProjectionSet.qubit().projectors[:2]
    rows = []
    for i in range(points):
        gamma_w = np.pi * i / (points - 1)
        c_l, c_r = qubit_state(gamma_w, 0.0, cfg.qudit.l).coeffs
        rec_l, rec_r = _count(cfg, c_l * a_l + c_r * a_r, eta, i, poles)
        rows.append([gamma_w, rec_l.counts, rec_r.counts,
                     polar_retrieve(rec_r.counts, rec_l.counts)])
    _write_csv(out_dir / "meridian.csv", ["gamma_w", "n_l", "n_r", "gamma_r"], rows)
    return _finalize(cfg, "meridian_sweep", out_dir, ["meridian.csv"], rows, RNG_SCHEME)


def run_bounds_table(cfg: ExperimentConfig, out=None, parallel: int = 1) -> CampaignResult:
    """Classical limit and threshold band over the storage-time grid."""
    out_dir = _out_dir(cfg, out)
    model = cfg.efficiency.to_model()
    rows = []
    for t_s in cfg.storage_times:
        eta = model(t_s)
        bound = classical_limit(cfg.photon.n_bar, eta)
        band = threshold_band(cfg.photon, eta)
        rows.append([t_s, eta, bound.f_classical, band[0], band[1]])
    _write_csv(out_dir / "bounds.csv",
               ["t_s", "eta", "f_classical", "band_low", "band_high"], rows)
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
        export_pgm(read(_decohere(cfg, wave, t_s)), out_dir / name)
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
