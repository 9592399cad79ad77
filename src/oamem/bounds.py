"""Classical-memory fidelity limits for Poissonian inputs.

An intercept/resend memory reaches fidelity (N+1)/(N+2) on a pulse of N
photons.  For an attenuated coherent pulse the limit is the Poisson-
weighted average over N >= 1; with retrieval efficiency eta_m < 1 the
attacker answers only the highest-N fraction of pulses, raising the
bound.  Series are truncated when the remaining Poisson tail mass drops
below 1e-15, with an explicit certificate in the tests.
"""

from __future__ import annotations

import math
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
        if self.n_bar - self.uncertainty <= 0:
            raise DomainError("n_bar - uncertainty must stay positive")


@dataclass(frozen=True)
class BoundResult:
    """Classical limit with its ingredients."""

    f_co: float
    f_classical: float
    n_min: int


@lru_cache(maxsize=64)
def _poisson_table(n_bar: float) -> tuple[tuple[int, float], ...]:
    """(N, P(N)) from N = 0 until the remaining tail mass is below TAIL_EPS.

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
        cumulative += p
        table.append((n, p))
    return tuple(table)


def poisson_weighted_limit(n_bar: float) -> float:
    """Average of (N+1)/(N+2) over the zero-truncated Poisson distribution."""
    if n_bar <= 0:
        raise DomainError("mean photon number must be positive")
    p0 = math.exp(-n_bar)
    total = 0.0
    for n, p in _poisson_table(n_bar)[1:]:
        total += (n + 1) / (n + 2) * p
    return total / (1.0 - p0)


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
    f_co = poisson_weighted_limit(n_bar)
    return BoundResult(f_co=f_co, f_classical=f_classical, n_min=n_min)


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
