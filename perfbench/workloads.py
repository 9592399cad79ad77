"""Campaign inputs for each benchmark workload, generated from a seed.

Every workload fixes the amount of work (grid size, number of storage
times, decoherence channels, counting mode) and draws only physical
values from the seed, so two seeds cost the same and differ in their
outputs.  Storage time 0 is always the first point, because ``diffuse``
skips its FFT pair at t = 0 and the cost of a point must not depend on
the seed.
"""

from __future__ import annotations

import math
import random

GRID_EXTENT = 3.2e-3
WAIST = 250e-6


def _common(rng: random.Random) -> dict:
    """Physics shared by all workloads: temperature, field map, efficiency, photons.

    The quadrupole zero sits 0.5 mm off the beam axis in a random direction;
    an on-axis zero would leave a same-|l| state almost untouched.
    """
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return {
        "memory": {"temperature": rng.uniform(80e-6, 120e-6)},
        "magnetic": {"sensitivity": rng.uniform(4.5e9, 5.5e9),
                     "guiding_b": 2.0e-5,
                     "center": [5e-4 * math.cos(angle), 5e-4 * math.sin(angle)]},
        "efficiency": {"anchors": [[10e-6, rng.uniform(0.09, 0.13)],
                                   [400e-6, rng.uniform(0.035, 0.055)]]},
        "photon": {"n_bar": rng.uniform(1.2, 2.0), "uncertainty": rng.uniform(0.2, 0.4)},
    }


def _spread_times(rng: random.Random, count: int, step: float) -> list[float]:
    return [0.0] + [k * step * rng.uniform(0.9, 1.1) for k in range(1, count)]


def decay_qutrit_n512(seed: int) -> tuple[str, dict]:
    """Ideal qutrit, unequal complex coefficients, every decoherence channel on."""
    rng = random.Random(seed)
    cfg = _common(rng)
    coeffs = []
    for _ in range(3):
        mag, arg = rng.uniform(0.4, 1.0), rng.uniform(0.0, 2.0 * math.pi)
        coeffs.append([mag * math.cos(arg), mag * math.sin(arg)])
    cfg["memory"]["alpha"] = rng.uniform(0.02, 0.08)
    cfg.update({
        "seed": rng.randrange(2 ** 31),
        "grid": {"n": 512, "extent": GRID_EXTENT},
        "qudit": {"dim": 3, "l": 1, "waist": WAIST, "coeffs": coeffs},
        "decoherence": {"diffusion": True, "magnetic": True, "longitudinal_drift": True},
        "counting": {"poisson": False},
        "storage_times": _spread_times(rng, 6, 3e-4),
    })
    return "decay", cfg


def tomo_qubit_n512(seed: int) -> tuple[str, dict]:
    """Bloch-angle qubit, Poisson counting with background, three files per point."""
    rng = random.Random(seed)
    cfg = _common(rng)
    cfg.update({
        "seed": rng.randrange(2 ** 31),
        "grid": {"n": 512, "extent": GRID_EXTENT},
        "qudit": {"dim": 2, "l": 2, "waist": WAIST,
                  "gamma": rng.uniform(0.3, math.pi - 0.3),
                  "beta": rng.uniform(0.0, 2.0 * math.pi)},
        "decoherence": {"diffusion": True, "magnetic": True},
        "counting": {"poisson": True, "pulses": 100000, "bg_rate": rng.uniform(0.001, 0.003)},
        "storage_times": _spread_times(rng, 10, 7e-5),
    })
    return "tomo", cfg


WORKLOADS = {
    "decay_qutrit_n512": decay_qutrit_n512,
    "tomo_qubit_n512": tomo_qubit_n512,
}
