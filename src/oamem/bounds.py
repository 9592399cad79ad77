"""Classical-memory fidelity limits for Poissonian inputs.

An intercept/resend memory reaches fidelity (N+1)/(N+2) on a pulse of N
photons.  For an attenuated coherent pulse the limit is the Poisson-
weighted average over N >= 1; with retrieval efficiency eta_m < 1 the
attacker answers only the highest-N fraction of pulses, raising the
bound.  Series are truncated once their rounded running sum comes
within 1e-15 of 1 (see :func:`_poisson_table`).  The tests certify
that the true Poisson mass past the last term, summed exactly, stays
below 1e-14, which moves the bounds at the 1e-14 level.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError

TAIL_EPS = 1e-15
_MAX_TERMS = 100000
# n_bar values between the two edges of the threshold band
BAND_INTERIOR_POINTS = 9


@dataclass(frozen=True)
class PhotonStatistics:
    """Mean photons per pulse and its absolute uncertainty."""

    n_bar: float = 1.6
    uncertainty: float = 0.4

    def __post_init__(self):
        if not (math.isfinite(self.n_bar) and math.isfinite(self.uncertainty)):
            raise DomainError("n_bar and uncertainty must be finite")
        if not self.n_bar > 0:
            raise DomainError("mean photon number must be positive")
        if self.uncertainty < 0:
            raise DomainError("uncertainty must be >= 0")
        lo, hi = self.n_bar - self.uncertainty, self.n_bar + self.uncertainty
        if lo <= 0:
            raise DomainError("n_bar - uncertainty must stay positive")
        # the tables start from P(0) = e^-n_bar, and the bound divides by 1 - P(0)
        if math.exp(-lo) == 1.0:
            raise DomainError(f"n_bar - uncertainty = {lo:g} rounds 1 - e^-{lo:g} to 0")
        if math.exp(-hi) < sys.float_info.min:
            raise DomainError(f"n_bar + uncertainty = {hi:g} is past 708.396, where "
                              f"e^-n_bar is no longer a normal float")


@dataclass(frozen=True)
class BoundResult:
    """Classical limit with its ingredients."""

    f_classical: float
    n_min: int


@lru_cache(maxsize=64)
def _poisson_table(n_bar: float) -> tuple[tuple[int, float], ...]:
    """(N, P(N)) from N = 0 until 1 minus their running sum is below TAIL_EPS.

    The running sum rounds, so for some means (the first is 26.65)
    1 - sum never drops to TAIL_EPS: the table also ends before the
    first term past the mean that leaves the sum unchanged.

    The stop rule reads the rounded sum, not the true mass past the last
    term.  Summed exactly (``tests/oracles.py::poisson_tail``), that
    mass exceeds TAIL_EPS for 7181 of the means 0.05, 0.051, ..., 49.999,
    at worst 2.7e-15, and reaches 8.5e-15 on the means 0.05, 0.10, ...,
    708.3.  The tests certify that it stays below 1e-14 for n_bar = 0.5,
    1.0, ..., 708.0, so f_classical can sit off its untruncated value at
    the 1e-14 level.

    Built once per n_bar: a campaign asks for the same few values (n_bar
    and the points of :func:`threshold_band`) at every storage time.
    """
    p = math.exp(-n_bar)
    cumulative = p
    n = 0
    table = [(n, p)]
    while 1.0 - cumulative > TAIL_EPS and n < _MAX_TERMS:
        n += 1
        p *= n_bar / n
        if n > n_bar and cumulative + p == cumulative:
            break
        cumulative += p
        table.append((n, p))
    return tuple(table)


def nmin(n_bar: float, eta_m: float) -> int:
    """Smallest N_min with tail(N_min + 1) <= (1 - P(0)) * eta_m.

    tail(k) is the Poisson mass at N >= k; the attacker can afford to
    answer only that many pulses, so lower efficiency buys a higher
    photon-number cutoff.
    """
    if n_bar <= 0:
        raise DomainError("mean photon number must be positive")
    if not 0 < eta_m <= 1:
        raise DomainError("retrieval efficiency must lie in (0, 1]")
    terms = _poisson_table(n_bar)
    p0 = terms[0][1]
    budget = (1.0 - p0) * eta_m
    tail = sum(p for n, p in terms) - p0  # mass at N >= 1
    n_min = 0
    while tail > budget:
        n_min += 1
        if n_min >= len(terms):
            # remaining tail below truncation threshold, condition met
            break
        tail -= terms[n_min][1]
    return n_min


def classical_limit(n_bar: float, eta_m: float) -> BoundResult:
    """Intercept/resend fidelity bound for efficiency eta_m.

    Reduces to the Poisson-weighted limit at eta_m = 1; see
    :func:`threshold_band` for the edges over n_bar +- uncertainty.
    """
    n_min = nmin(n_bar, eta_m)
    terms = _poisson_table(n_bar)
    p0 = terms[0][1]
    tail = sum(p for n, p in terms[n_min + 1:])
    weighted_tail = sum((n + 1) / (n + 2) * p for n, p in terms[n_min + 1:])
    gamma = eta_m * (1.0 - p0) - tail
    if gamma < -1e-12:
        raise DomainError("negative resend weight; inconsistent N_min")
    gamma = max(gamma, 0.0)
    numerator = (n_min + 1) / (n_min + 2) * gamma + weighted_tail
    denominator = gamma + tail
    f_classical = numerator / denominator
    return BoundResult(f_classical=f_classical, n_min=n_min)


def threshold_band(stats: PhotonStatistics, eta_m: float) -> tuple[float, float]:
    """Classical-limit range over n_bar +- uncertainty.

    Evaluates both endpoints plus BAND_INTERIOR_POINTS evenly spaced
    interior values (guarding against non-monotonicity in n_bar) and
    returns (min, max).
    """
    lo = stats.n_bar - stats.uncertainty
    hi = stats.n_bar + stats.uncertainty
    count = BAND_INTERIOR_POINTS + 2
    values = [classical_limit(lo + (hi - lo) * i / (count - 1), eta_m).f_classical
              for i in range(count)]
    return (min(values), max(values))
