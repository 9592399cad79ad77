"""The Poisson draws of ``np.random.default_rng(seed).poisson(lam)``, in pure Python.

Importing ``numpy.random`` loads ``secrets``, ``hmac`` and ``hashlib``,
which maps OpenSSL's libcrypto: about 12.5 ms of CPU and 5.3 MB of peak
RSS, for two draws per count record.  This module runs the same
algorithms, draw for draw, so every count equals numpy's:

* ``SeedSequence`` entropy mixing and ``generate_state``
  (numpy/random/bit_generator.pyx);
* ``PCG64``, a 128-bit LCG with XSL-RR output, and its ``next_double``
  (numpy/random/src/pcg64);
* ``Generator.poisson``, ``random_poisson`` in
  numpy/random/src/distributions: the multiplication method below
  lam = 10, and from 10 on W. Hörmann's transformed rejection (PTRS,
  Insurance: Mathematics and Economics 12, 5-7 (1993)) with
  ``random_loggam``.

The tests check each against ``numpy.random``.
"""

from __future__ import annotations

import math
import operator

MASK32 = 0xFFFFFFFF
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
# SeedSequence's pool size and hash constants
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG's default 128-bit multiplier
PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
# random_loggam's Stirling-series coefficients, a[0] .. a[9], and log(2 pi)
LOGGAM_A = (8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
            -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
            6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
            -1.39243221690590e+00)
LOG_2PI = 1.8378770664093453
# numpy's Poisson sampler rejects a larger mean ("lam value too large")
POISSON_MEAN_MAX = (2 ** 63 - 1) - 10 * math.sqrt(2 ** 63 - 1)


def _words(n: int) -> list[int]:
    """The 32-bit words of ``n`` >= 0, least significant first; [0] for 0.

    ``n`` is an int or a numpy integer; a float raises TypeError, as in numpy.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"a seed must be a non-negative integer, got {n}")
    return [n >> shift & MASK32 for shift in range(0, max(n.bit_length(), 1), 32)]


def generate_state(entropy: int, spawn_key: tuple[int, ...] = (),
                   n_words: int = 1) -> list[int]:
    """``SeedSequence(entropy, spawn_key=spawn_key).generate_state(n_words)`` as ints."""
    words = _words(entropy)
    key = [w for k in spawn_key for w in _words(k)]
    if key:
        # numpy pads short entropy to the pool size before a spawn key
        words += [0] * (POOL_SIZE - len(words))
    words += key
    hash_const = INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * MULT_A & MASK32
        value = value * hash_const & MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, state = INIT_B, []
    for i in range(n_words):
        value = pool[i % POOL_SIZE] ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        value = value * hash_const & MASK32
        state.append(value ^ value >> 16)
    return state


class PCG64:
    """The bit generator of ``np.random.default_rng(seed)``, for its doubles."""

    def __init__(self, seed: int):
        # eight words make four 64-bit ones, low half first: the seed's high
        # and low word, then the stream's; PCG's srandom steps from state 0,
        # adds the seed and steps again
        w = generate_state(seed, (), 8)
        s, i = ((w[k] | w[k + 1] << 32) << 64 | w[k + 2] | w[k + 3] << 32 for k in (0, 4))
        self.inc = (i << 1 | 1) & MASK128
        self.state = ((self.inc + s) * PCG_MULT + self.inc) & MASK128

    def next_double(self) -> float:
        """The next double in [0, 1): the top 53 bits of one XSL-RR output."""
        self.state = state = (self.state * PCG_MULT + self.inc) & MASK128
        word, rot = (state >> 64 ^ state) & MASK64, state >> 122
        return (((word >> rot | word << (64 - rot)) & MASK64) >> 11) * 2.0 ** -53


def poisson(bitgen: PCG64, lam: float) -> int:
    """One ``Generator.poisson(lam)`` draw from ``bitgen``."""
    if not 0 <= lam <= POISSON_MEAN_MAX:
        raise ValueError(f"a Poisson mean must lie in [0, {POISSON_MEAN_MAX:g}], got {lam}")
    if lam >= 10:
        return _ptrs(bitgen, lam)
    if lam == 0:
        return 0
    # multiplication method: count uniforms until their product falls to e^-lam
    k, prod, enlam = 0, bitgen.next_double(), math.exp(-lam)
    while prod > enlam:
        k += 1
        prod *= bitgen.next_double()
    return k


def _ptrs(bitgen: PCG64, lam: float) -> int:
    """Hörmann's transformed rejection with squeeze, for lam >= 10."""
    slam, loglam = math.sqrt(lam), math.log(lam)
    b = 0.931 + 2.53 * slam
    a = -0.059 + 0.02483 * b
    invalpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2)
    while True:
        u = bitgen.next_double() - 0.5
        v = bitgen.next_double()
        us = 0.5 - abs(u)
        if us == 0:
            # numpy's k is then the integer cast of -inf, negative, so rejected
            continue
        k = math.floor((2 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= vr:
            return k
        if k < 0 or (us < 0.013 and v > us):
            continue
        # log(0) is -inf in C, which always accepts
        if v == 0 or (math.log(v) + math.log(invalpha) - math.log(a / (us * us) + b)
                      <= -lam + k * loglam - _loggam(float(k + 1))):
            return k


def _loggam(x: float) -> float:
    """numpy's ``random_loggam``: log Gamma(x) by Stirling's series, taken at x + n >= 7."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = LOGGAM_A[9]
    for coef in LOGGAM_A[8::-1]:
        gl0 = gl0 * x2 + coef
    gl = gl0 / x0 + 0.5 * LOG_2PI + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl
