"""Output checks against references computed apart from oamem.

Nothing here imports oamem.  The fields are sampled, blurred, dephased
and projected with plain numpy from the physics the campaign claims:
LG modes written as (x +- i y)^|l| exp(-r^2 / w0^2) and normalized on the
grid, the Gaussian blur exp(-q^2 sigma^2 / 2) with sigma = t sqrt(k_B T / m),
the Larmor phase of the quadrupole-plus-bias field map, the longitudinal
factor exp(-dk^2 sigma^2 / 2), the two-anchor exponential efficiency and
a direct Poisson sum for the classical bound.  Each check returns a list
of failure messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

K_B = 1.380649e-23
RB87_MASS = 1.4099932e-25
WAVELENGTH = 795e-9
# magnetic map defaults: ambient fraction of the trap gradient, in T/m
RESIDUAL_GRADIENT = 0.05 * 0.1
FIDELITY_TOL = 1e-9
REL_TOL = 1e-12


def _axis(n: int, extent: float) -> np.ndarray:
    return (np.arange(n) - n // 2) * (extent / n)


def lg_mode(l: int, w0: float, n: int, extent: float) -> np.ndarray:
    x, y = np.meshgrid(_axis(n, extent), _axis(n, extent))
    vortex = (x + 1j * math.copysign(1.0, l) * y) ** abs(l)
    v = vortex * np.exp(-(x * x + y * y) / w0 ** 2)
    return v / math.sqrt(np.sum(np.abs(v) ** 2) * (extent / n) ** 2)


def blur(v: np.ndarray, pitch: float, sigma: float) -> np.ndarray:
    q = 2.0 * np.pi * np.fft.fftfreq(v.shape[0], d=pitch)
    kernel = np.exp(-0.5 * (q[None, :] ** 2 + q[:, None] ** 2) * sigma ** 2)
    return np.fft.ifft2(np.fft.fft2(v) * kernel)


def spread(cfg: dict, t: float) -> float:
    return t * math.sqrt(K_B * cfg["memory"]["temperature"] / RB87_MASS)


def larmor_phase(cfg: dict, n: int, extent: float, t: float) -> np.ndarray:
    mag = cfg["magnetic"]
    x, y = np.meshgrid(_axis(n, extent), _axis(n, extent))
    cx, cy = mag["center"]
    b = np.sqrt(mag["guiding_b"] ** 2 + (RESIDUAL_GRADIENT * (x - cx)) ** 2
                + (RESIDUAL_GRADIENT * (y - cy)) ** 2)
    return np.exp(1j * mag["sensitivity"] * b * t)


def efficiency(cfg: dict, t: float) -> float:
    (t1, e1), (t2, e2) = cfg["efficiency"]["anchors"]
    tau = (t2 - t1) / math.log(e1 / e2)
    return e1 * math.exp(t1 / tau) * math.exp(-t / tau)


def classical_fidelity(n_bar: float, eta: float) -> float:
    """Intercept/resend bound from an explicit Poisson sum over N <= 200."""
    p = [math.exp(k * math.log(n_bar) - n_bar - math.lgamma(k + 1)) for k in range(201)]
    budget = (1.0 - p[0]) * eta
    n_min = 0
    while sum(p[n_min + 1:]) > budget:
        n_min += 1
    tail = sum(p[n_min + 1:])
    weighted = sum((k + 1) / (k + 2) * p[k] for k in range(n_min + 1, len(p)))
    gamma = budget - tail
    return ((n_min + 1) / (n_min + 2) * gamma + weighted) / (gamma + tail)


def _retrieved_overlaps(cfg: dict, coeffs: np.ndarray, charges, t: float) -> tuple:
    """Mode amplitudes of the stored and of the retrieved field at time t."""
    n, extent = cfg["grid"]["n"], cfg["grid"]["extent"]
    w0, pitch = cfg["qudit"]["waist"], extent / n
    modes = [lg_mode(l, w0, n, extent) for l in charges]
    field = sum(c * m for c, m in zip(coeffs, modes))
    out = field
    if t > 0:
        out = blur(out, pitch, spread(cfg, t))
    out = out * larmor_phase(cfg, n, extent, t)
    if cfg["decoherence"].get("longitudinal_drift"):
        alpha = cfg["memory"].get("alpha", 0.0)
        dk = 2.0 * np.pi / WAVELENGTH * (math.cos(alpha) - 1.0)
        out = out * math.exp(-0.5 * (dk * spread(cfg, t)) ** 2)
    area = pitch ** 2
    stored = np.array([np.sum(m.conj() * field) * area for m in modes])
    retrieved = np.array([np.sum(m.conj() * out) * area for m in modes])
    return stored, retrieved


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_decay(cfg: dict, out: Path) -> list[str]:
    errors = []
    coeffs = np.array([complex(re, im) for re, im in cfg["qudit"]["coeffs"]])
    coeffs = coeffs / np.linalg.norm(coeffs)
    n_bar = cfg["photon"]["n_bar"]
    rows = _rows(out / "decay.csv")
    if len(rows) != len(cfg["storage_times"]):
        return [f"decay.csv has {len(rows)} rows for {len(cfg['storage_times'])} times"]
    for t, row in zip(cfg["storage_times"], rows):
        stored, a = _retrieved_overlaps(cfg, coeffs, (1, 0, -1), t)
        f_abs = float(abs(np.vdot(coeffs, a)) / np.linalg.norm(a))
        f_rel = float(abs(np.vdot(stored, a)) / (np.linalg.norm(stored) * np.linalg.norm(a)))
        eta = efficiency(cfg, t)
        f_cl = classical_fidelity(n_bar, eta)
        got = {k: float(v) for k, v in row.items()}
        if got["t_s"] != t:
            errors.append(f"t_s {got['t_s']} != {t}")
        for key, want, tol in (("f_abs", f_abs, FIDELITY_TOL), ("f_rel", f_rel, FIDELITY_TOL),
                               ("eta", eta, REL_TOL), ("f_classical", f_cl, FIDELITY_TOL)):
            if not _close(got[key], want, tol):
                errors.append(f"t={t}: {key} {got[key]!r} != reference {want!r}")
        # the band's centre point is n_bar recomputed as lo + (hi - lo) / 2
        if not got["band_low"] - REL_TOL <= got["f_classical"] <= got["band_high"] + REL_TOL:
            errors.append(f"t={t}: f_classical outside [band_low, band_high]")
    return errors


QUBIT_KETS = {
    "L": np.array([1, 0]), "R": np.array([0, 1]),
    "L+R": np.array([1, 1]) / math.sqrt(2), "L+iR": np.array([1, 1j]) / math.sqrt(2),
    "L-R": np.array([1, -1]) / math.sqrt(2),
}


def check_tomo(cfg: dict, out: Path) -> list[str]:
    errors = []
    q = cfg["qudit"]
    coeffs = np.array([math.cos(q["gamma"] / 2),
                       math.sin(q["gamma"] / 2) * complex(math.cos(q["beta"]), math.sin(q["beta"]))])
    l = q["l"]
    counting, n_bar = cfg["counting"], cfg["photon"]["n_bar"]
    pulses, bg = counting["pulses"], counting["bg_rate"]
    summary = _rows(out / "summary.csv")
    if len(summary) != len(cfg["storage_times"]):
        return [f"summary.csv has {len(summary)} rows for {len(cfg['storage_times'])} times"]
    for i, (t, row) in enumerate(zip(cfg["storage_times"], summary)):
        eta = efficiency(cfg, t)
        if float(row["t_s"]) != t or not _close(float(row["eta"]), eta, REL_TOL):
            errors.append(f"summary row {i}: (t_s, eta) = ({row['t_s']}, {row['eta']}) "
                          f"!= ({t!r}, {eta!r})")
        rho = np.zeros((2, 2), dtype=complex)
        for r in _rows(out / f"rho_{i:02d}.csv"):
            rho[int(r["row"]), int(r["col"])] = complex(float(r["re"]), float(r["im"]))
        if (np.max(np.abs(rho - rho.conj().T)) > 1e-10 or abs(np.trace(rho) - 1) > 1e-10
                or np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() < -1e-10):
            errors.append(f"rho_{i:02d}.csv is not a Hermitian unit-trace PSD matrix")
        _, a = _retrieved_overlaps(cfg, coeffs, (l, -l), t)
        for r in _rows(out / f"counts_{i:02d}.csv"):
            p_ref = min(abs(np.vdot(QUBIT_KETS[r["basis_id"]], a)) ** 2, 1.0)
            mean = pulses * n_bar * eta * p_ref
            sigma = math.sqrt(pulses * (n_bar * eta * p_ref + 2.0 * bg))
            net = float(r["counts"]) - float(r["background"])
            if abs(net - mean) > 6.0 * sigma:
                errors.append(f"counts_{i:02d}.csv {r['basis_id']}: net {net} is "
                              f"{abs(net - mean) / sigma:.1f} sigma from {mean:.1f}")
    return errors


CHECKS = {"decay": check_decay, "tomo": check_tomo}


def check_manifest(out: Path) -> list[str]:
    """Every output file is listed in manifest.csv with its sha256, and no other."""
    errors = []
    listed = set()
    for row in _rows(out / "manifest.csv"):
        listed.add(row["path"])
        digest = hashlib.sha256((out / row["path"]).read_bytes()).hexdigest()
        if digest != row["sha256"]:
            errors.append(f"{row['path']}: sha256 differs from manifest")
    on_disk = {p.name for p in out.iterdir()} - {"manifest.csv"}
    if on_disk != listed:
        errors.append(f"manifest lists {sorted(listed ^ on_disk)} inconsistently")
    return errors
