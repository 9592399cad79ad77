import math

import numpy as np
import pytest
from oracles import (brute_classical_limit, brute_nmin, brute_weighted_limit,
                     poisson_tail, poisson_terms, poisson_weighted_limit)

from oamem.bounds import (TAIL_EPS, PhotonStatistics, _poisson_table, classical_limit, nmin,
                          threshold_band)
from oamem.decoherence import EfficiencyModel
from oamem.errors import DomainError

ETA_500 = EfficiencyModel.from_anchors()(500e-6)  # ~0.0383 from the anchor fit


class TestPoissonWeightedLimit:
    def test_single_photon_limit(self):
        assert poisson_weighted_limit(1e-6) == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_monotone_in_mean(self):
        assert poisson_weighted_limit(2.0) > poisson_weighted_limit(1.0)

    def test_matches_brute_force(self):
        for n_bar in (0.3, 1.0, 1.6, 2.0, 5.0):
            assert poisson_weighted_limit(n_bar) == pytest.approx(
                brute_weighted_limit(n_bar), abs=1e-13)

    def test_truncation_insensitive(self):
        # doubling the reference series length does not move the value
        assert brute_weighted_limit(1.6, 200) == pytest.approx(
            brute_weighted_limit(1.6, 400), abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            poisson_weighted_limit(0.0)


def test_poisson_table_built_once_per_mean():
    table = _poisson_table(1.6)
    assert _poisson_table(1.6) is table
    assert [n for n, _ in table] == list(range(len(table)))
    assert [p for _, p in table] == pytest.approx(poisson_terms(1.6, len(table) - 1),
                                                  rel=1e-12)


def test_poisson_table_ends_where_its_running_sum_stalls():
    # at n_bar = 26.65, 1 - sum never drops to TAIL_EPS: the table ends past
    # the mean where a term no longer changes the sum, not at 100001 terms
    table = _poisson_table(26.65)
    assert len(table) < 200
    assert [p for _, p in table] == pytest.approx(poisson_terms(26.65, len(table) - 1),
                                                  rel=1e-12)
    assert math.fsum(poisson_terms(26.65, 400)[len(table):]) < TAIL_EPS


def test_poisson_table_leaves_below_1e_14_of_true_mass_past_its_end():
    # the stop rule reads the rounded running sum; the exact tail past the
    # table's last term stays below 1e-14 on a grid over the means a config
    # accepts (up to 708.396)
    tails = [poisson_tail(n_bar, len(_poisson_table(n_bar)))
             for n_bar in (0.5 * k for k in range(1, 1417))]
    assert max(tails) < 1e-14


def test_poisson_tail_oracle_sums_every_term():
    assert poisson_tail(1.6, 0) == pytest.approx(1.0, abs=1e-15)
    assert poisson_tail(1.6, 3) == pytest.approx(math.fsum(poisson_terms(1.6, 200)[3:]),
                                                 rel=1e-13)


class TestNmin:
    def test_unit_efficiency(self):
        assert nmin(1.6, 1.0) == 0

    def test_grows_as_efficiency_drops(self):
        assert nmin(1.6, 1e-6) > nmin(1.6, 0.1)

    def test_exhaustive_scan_oracle(self):
        for eta in (1.0, 0.5, 0.1074, 0.05, 0.0473, 0.01, 1e-4):
            assert nmin(1.6, eta) == brute_nmin(1.6, eta)
        assert nmin(1.6, 0.05) == 4

    def test_certificate(self):
        # tail(N_min + 1) <= budget < tail(N_min) whenever N_min >= 1
        n_bar, eta = 1.6, 0.05
        n_min = nmin(n_bar, eta)
        probs = poisson_terms(n_bar, 200)
        budget = (1 - probs[0]) * eta
        assert sum(probs[n_min + 1:]) <= budget < sum(probs[n_min:])

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            nmin(-1.0, 0.5)
        with pytest.raises(DomainError):
            nmin(1.6, 0.0)
        with pytest.raises(DomainError):
            nmin(1.6, 1.2)


class TestClassicalLimit:
    def test_reduces_to_weighted_limit(self):
        r = classical_limit(1.6, 1.0)
        assert r.f_classical == pytest.approx(poisson_weighted_limit(1.6), abs=1e-12)

    def test_matches_brute_force(self):
        for n_bar, eta in [(1.6, ETA_500), (2.0, ETA_500), (1.2, 0.0473),
                           (1.6, 0.0473), (1.6, 0.5), (3.0, 0.02)]:
            assert classical_limit(n_bar, eta).f_classical == pytest.approx(
                brute_classical_limit(n_bar, eta), abs=1e-12)

    def test_increasing_factors(self):
        weights = [(n + 1) / (n + 2) for n in range(50)]
        assert all(a < b for a, b in zip(weights, weights[1:]))

    def test_above_weighted_limit(self):
        for eta in (1.0, 0.3, 0.05, 0.01):
            r = classical_limit(1.6, eta)
            assert r.f_classical >= poisson_weighted_limit(1.6) - 1e-12

    def test_monotone_as_efficiency_drops(self):
        etas = np.logspace(-3, 0, 40)
        values = [classical_limit(1.6, e).f_classical for e in etas]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_denominator_identity(self):
        # gamma + tail(N_min + 1) equals eta (1 - P(0)) by construction
        n_bar, eta = 1.6, 0.0473
        r = classical_limit(n_bar, eta)
        probs = poisson_terms(n_bar, 300)
        tail = sum(probs[r.n_min + 1:])
        gamma = eta * (1 - probs[0]) - tail
        assert gamma >= 0
        assert gamma + tail == pytest.approx(eta * (1 - probs[0]), abs=1e-12)

    def test_half_millisecond_anchor_values(self):
        # frozen from the brute-force oracle at the fitted efficiency
        assert classical_limit(1.6, ETA_500).f_classical == pytest.approx(0.856008, abs=2e-6)
        assert classical_limit(2.0, ETA_500).f_classical == pytest.approx(0.868412, abs=2e-6)


class TestThresholdBand:
    def test_degenerate_without_uncertainty(self):
        band = threshold_band(PhotonStatistics(1.6, 0.0), 0.05)
        assert band[0] == band[1]

    def test_width_shrinks_with_uncertainty(self):
        widths = [np.diff(threshold_band(PhotonStatistics(1.6, u), 0.05))[0]
                  for u in (0.4, 0.2, 0.1, 0.0)]
        assert all(a > b - 1e-15 for a, b in zip(widths, widths[1:]))

    def test_upper_edge_matches_table_value(self):
        # the printed threshold upper bound: ~0.87 at the late-time efficiency
        band = threshold_band(PhotonStatistics(1.6, 0.4), ETA_500)
        assert 0.865 <= band[1] <= 0.875

    def test_band_contains_center(self):
        band = threshold_band(PhotonStatistics(1.6, 0.4), 0.0473)
        center = classical_limit(1.6, 0.0473).f_classical
        assert band[0] <= center <= band[1]

    def test_rejects_bad_stats(self):
        with pytest.raises(DomainError):
            PhotonStatistics(1.6, 1.7)
        with pytest.raises(DomainError):
            PhotonStatistics(-1.0, 0.0)

    def test_rejects_non_finite_stats(self):
        for n_bar, uncertainty in ((np.inf, 0.4), (1.6, np.nan), (np.nan, 0.4), (np.inf, np.inf)):
            with pytest.raises(DomainError, match="finite"):
                PhotonStatistics(n_bar, uncertainty)

    def test_defaults_and_value_error(self):
        assert PhotonStatistics() == PhotonStatistics(1.6, 0.4)
        # a rejected value is a ValueError as well as an OamemError
        with pytest.raises(ValueError):
            PhotonStatistics(0.0)
