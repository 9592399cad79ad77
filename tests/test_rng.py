"""``oamem.rng`` draws what ``numpy.random`` draws, word for word and count for count.

numpy is the oracle: ``SeedSequence.generate_state`` for the per-record
seed, ``default_rng(seed)`` for the stream of doubles and its Poisson
draws, and the C ``random_loggam`` (``oracles.numpy_loggam``) for the
log-gamma that the rejection sampler compares against.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import numpy_loggam, numpy_simulate_counts

from oamem.measurement import simulate_counts
from oamem.rng import PCG64, POISSON_MEAN_MAX, _loggam, generate_state, poisson

# one word (0 among them), and up to the four words of a 128-bit seed
MASTERS = st.one_of(st.just(0), st.integers(1, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 128))
# a campaign's (point, ket) key, and keys whose entries take two words
SPAWN_KEYS = st.tuples(st.integers(0, 2 ** 40), st.integers(0, 2 ** 40))
# both sides of the switch from the multiplication method to PTRS at 10
MEANS = st.one_of(st.just(0.0), st.floats(0.0, 10.0, exclude_min=True, exclude_max=True),
                  st.just(10.0), st.floats(10.0, 1e6),
                  st.floats(POISSON_MEAN_MAX * (1 - 1e-9), POISSON_MEAN_MAX))


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(MASTERS, SPAWN_KEYS, MEANS)
def test_state_word_stream_and_two_draws_match_numpy(master, key, lam):
    word = generate_state(master, key)[0]
    assert word == int(np.random.SeedSequence(master, spawn_key=key).generate_state(1)[0])
    doubles = PCG64(word)
    assert ([doubles.next_double() for _ in range(3)]
            == np.random.default_rng(word).random(3).tolist())
    bitgen, generator = PCG64(word), np.random.default_rng(word)
    assert [poisson(bitgen, lam), poisson(bitgen, lam)] == [int(generator.poisson(lam)),
                                                            int(generator.poisson(lam))]
    # both streams stand at the same place after the draws
    assert bitgen.next_double() == generator.random()


# 16 entropy words and 16 output words fill the tabled hash constants; the
# other cases go past them
@pytest.mark.parametrize("entropy, key, n_words", [(2 ** 383, (1, 2, 3, 4), 16),
                                                   (2 ** 415, (1, 2, 3, 4), 17),
                                                   (2 ** 600 - 1, (), 1),
                                                   (3, (2 ** 70, 5), 40)])
def test_long_entropy_and_many_words_match_numpy(entropy, key, n_words):
    want = np.random.SeedSequence(entropy, spawn_key=key).generate_state(n_words)
    assert generate_state(entropy, key, n_words) == want.tolist()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 1.0), st.floats(0.0, 100.0),
       st.floats(0.0, 1.0), st.integers(1, 10 ** 6), st.floats(0.0, 1.0))
def test_simulate_counts_matches_the_numpy_reference(seed, prob, n_bar, eta, pulses, bg_rate):
    record = numpy_simulate_counts(prob, n_bar, eta, pulses, bg_rate, seed)
    assert simulate_counts(prob, n_bar, eta, pulses, bg_rate, seed) == record
    # a numpy integer seeds the same stream, as it does in numpy
    assert simulate_counts(prob, n_bar, eta, pulses, bg_rate, np.uint32(seed)) == record


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.one_of(st.integers(1, 10 ** 6).map(float), st.floats(0.5, 1e6),
                 st.integers(1, 2 ** 63).map(float)))
def test_loggam_matches_numpy_c_code(x):
    assert _loggam(x) == numpy_loggam(x)


@pytest.mark.parametrize("lam", [math.nan, -1.0, -5e-324,
                                 math.nextafter(POISSON_MEAN_MAX, math.inf), math.inf])
def test_rejects_a_mean_numpy_rejects(lam):
    with pytest.raises(ValueError):
        np.random.default_rng(0).poisson(lam)
    with pytest.raises(ValueError):
        poisson(PCG64(0), lam)


@pytest.mark.parametrize("entropy, key, error", [(-1, (), ValueError), (-2 ** 70, (), ValueError),
                                                 (3, (1, -1), ValueError), (1.5, (), TypeError)])
def test_rejects_a_seed_as_numpy_does(entropy, key, error):
    with pytest.raises(error):
        np.random.SeedSequence(entropy, spawn_key=key)
    with pytest.raises(error):
        generate_state(entropy, key)
    if not key:
        with pytest.raises(error):
            np.random.default_rng(entropy)
        with pytest.raises(error):
            simulate_counts(0.5, 1.0, 1.0, 100, 0.0, seed=entropy)
