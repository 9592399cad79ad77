"""Photon-counting simulation and the standard measurement reductions.

Counting follows the Poissonian model of an attenuated coherent pulse:
the expected detections per pulse are n_bar * eta * prob plus a flat
background rate, and a gated detector integrates over many pulses.
Reductions recover the interference visibility and fringe phase of
N(beta) = N0 (1 + delta + cos(beta - phase)) and the Bloch polar angle
2 arctan sqrt(N_R / N_L), and subtract the background.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, FitDegenerate, NoCounts
from .rng import PCG64, poisson

# a fitted fringe amplitude up to this fraction of the mean count is rounding
# noise, so the fringe's delta and phase would carry no information
FLAT_FRINGE_RATIO = 1e-12


@dataclass(frozen=True)
class CountRecord:
    """Integrated detector counts for one projection setting.

    ``counts`` is an integer for sampled data; noiseless reductions may
    store the exact expectation as a float.  ``beta`` carries the scan
    phase when the setting belongs to an equator scan.
    """

    basis_id: str
    counts: float
    background: float = 0.0
    acquisition: float = 1.0
    beta: float | None = None
    clamped: bool = False

    def __post_init__(self):
        if self.counts < 0 or self.background < 0:
            raise ValueError("counts and background must be >= 0")


@dataclass(frozen=True)
class VisibilityFit:
    """Result of the N0 (1 + delta + cos(beta - phase)) least-squares fit."""

    n0: float
    delta: float
    visibility: float
    residual_rms: float
    phase: float


def simulate_counts(prob: float, n_bar: float, eta: float, pulses: int,
                    bg_rate: float, seed: int, basis_id: str = "",
                    acquisition: float = 1.0) -> CountRecord:
    """Draw integrated counts ~ Poisson(pulses * (n_bar eta prob + bg_rate)).

    The background field holds an independent same-mean draw, standing in
    for a separate background acquisition.  Deterministic for fixed seed:
    both draws come from :mod:`oamem.rng`, a pure-Python port of numpy's
    seeding, PCG64 stream and Poisson sampler that the tests check against
    ``np.random.default_rng(seed).poisson``, so the counts are bit-identical
    to numpy's and no campaign imports ``numpy.random``.  A mean that is
    NaN, negative or above ``rng.POISSON_MEAN_MAX`` raises ValueError.
    """
    if not 0 <= prob <= 1:
        raise DomainError(f"probability {prob} outside [0, 1]")
    if not 0 <= eta <= 1:
        raise DomainError(f"efficiency {eta} outside [0, 1]")
    bitgen = PCG64(seed)
    counts = poisson(bitgen, pulses * (n_bar * eta * prob + bg_rate))
    background = poisson(bitgen, pulses * bg_rate)
    return CountRecord(basis_id=basis_id, counts=counts, background=background,
                       acquisition=acquisition)


def fit_visibility(records) -> VisibilityFit:
    """Least-squares fit of N(beta) = N0 (1 + delta + cos(beta - phase)).

    Linear in (a, c, s) of a + c cos(beta) + s sin(beta), so
    N0 = hypot(c, s), phase = atan2(s, c) and delta = a / N0 - 1: a fringe
    shifted by dephasing keeps its contrast.  The visibility of the fitted
    curve is (max - min) / (max + min) = 1 / (1 + delta), clamped to
    [0, 1] as a physical contrast.  A modulation amplitude of at most
    FLAT_FRINGE_RATIO |a| raises FitDegenerate.
    """
    records = list(records)
    if any(r.beta is None for r in records):
        raise FitDegenerate("every record needs a beta value")
    betas = np.array([r.beta for r in records], dtype=np.float64)
    if np.unique(np.round(betas, 12)).size < 4:
        raise FitDegenerate("need at least 4 distinct beta values")
    counts = np.array([r.counts for r in records], dtype=np.float64)
    design = np.column_stack([np.ones_like(betas), np.cos(betas), np.sin(betas)])
    if np.linalg.matrix_rank(design) < 3:
        raise FitDegenerate("design matrix is singular (fringe not resolved)")
    coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
    a, c, s = coef
    n0 = math.hypot(c, s)
    if not n0 > FLAT_FRINGE_RATIO * abs(a):
        raise FitDegenerate(f"no fringe: fitted modulation amplitude {n0:.3g} is at most "
                            f"{FLAT_FRINGE_RATIO:g} of the mean {a:.3g}")
    delta = a / n0 - 1.0
    visibility = min(max(1.0 / (1.0 + delta), 0.0), 1.0)
    residual = counts - design @ coef
    return VisibilityFit(n0=float(n0), delta=float(delta), visibility=float(visibility),
                         residual_rms=float(np.sqrt(np.mean(residual ** 2))),
                         phase=float(math.atan2(s, c)))


def polar_retrieve(n_r: float, n_l: float) -> float:
    """Bloch polar angle 2 arctan sqrt(N_R / N_L), in [0, pi]."""
    if n_r < 0 or n_l < 0:
        raise ValueError("counts must be >= 0")
    if n_r + n_l == 0:
        raise NoCounts("no counts on either pole basis")
    return 2.0 * math.atan2(math.sqrt(n_r), math.sqrt(n_l))


def subtract_background(records) -> list[CountRecord]:
    """Net counts max(counts - background, 0); clamping is flagged."""
    out = []
    for r in records:
        net = r.counts - r.background
        out.append(replace(r, counts=max(net, 0.0), background=0.0,
                           clamped=bool(net < 0)))
    return out


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return repr(float(value))


def write_csv(path, header, rows) -> None:
    """CSV of ``header`` and ``rows``, the one number format of every output file.

    A string is written as itself, an int (a Python bool among them, as 1
    or 0) as its digits and any other number as the repr of its float, so
    reruns are byte-identical.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def write_count_records(path, records) -> None:
    """CSV columns: basis_id, beta_or_label, counts, background, acquisition_s."""
    write_csv(path, ["basis_id", "beta_or_label", "counts", "background", "acquisition_s"],
              ([r.basis_id, r.basis_id if r.beta is None else float(r.beta), float(r.counts),
                float(r.background), float(r.acquisition)] for r in records))

