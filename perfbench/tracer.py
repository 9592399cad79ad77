"""Spans and call counts at the public functions of each oamem module.

The tracer wraps functions from outside the program: each target is
replaced, in every ``oamem`` module namespace that binds it, by a wrapper
that records a span (name, start, end, parent span) in memory.  The
harness imports ``lg_field``, ``write``, ``diffuse`` and others by name,
so rebinding only the defining module would miss its calls.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# layer name -> [(defining module, function name)]; a layer may group several
TARGETS = {
    "config.load_config": [("oamem.config", "load_config")],
    "modes.lg_field": [("oamem.modes", "lg_field")],
    "modes.synthesize": [("oamem.modes", "synthesize")],
    "modes.state_from_field": [("oamem.modes", "state_from_field")],
    "holography.project_and_couple": [("oamem.holography", "project_and_couple")],
    "polariton.write": [("oamem.polariton", "write")],
    "polariton.diffraction_check": [("oamem.polariton", "diffraction_check")],
    "polariton.read": [("oamem.polariton", "read")],
    "decoherence.diffuse": [("oamem.decoherence", "diffuse")],
    "decoherence.magnetic_dephase": [("oamem.decoherence", "magnetic_dephase")],
    "fieldgrid.inner_product": [("oamem.fieldgrid", "inner_product")],
    "measurement.simulate_counts": [("oamem.measurement", "simulate_counts")],
    "tomography.reconstruct": [("oamem.tomography", "reconstruct")],
    "tomography.fidelity": [("oamem.tomography", "fidelity")],
    # the three per-point files of a tomography campaign
    "tomography.exports": [("oamem.measurement", "write_count_records"),
                           ("oamem.tomography", "export_density_csv"),
                           ("oamem.tomography", "tomography_report")],
    "bounds.classical_limit": [("oamem.bounds", "classical_limit")],
    "bounds.threshold_band": [("oamem.bounds", "threshold_band")],
    "harness.storage_point": [("oamem.harness", "storage_point")],
}

# spans of the harness itself do not cover campaign time in harness.self
NOT_COVERING = {"harness.storage_point"}


class Tracer:
    """In-memory span and counter store for one campaign process."""

    def __init__(self):
        self.spans = []          # [name, start_ns, end_ns, parent_index]
        self._stack = []
        self.lg_keys = set()
        self.fft2_calls = 0
        self.runner_window = None

    def _wrap(self, name, func):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()

        return wrapper

    def _wrap_lg_field(self, func):
        keys = self.lg_keys

        def lg_field(spec, grid, wavelength=795e-9):
            keys.add((spec.l, spec.w0, grid, wavelength))
            return func(spec, grid, wavelength)

        return lg_field

    def _wrap_fft2(self, func):
        def fft2(a, *args, **kwargs):
            shape = np.shape(a)
            if len(shape) == 2 and shape[0] == shape[1]:
                self.fft2_calls += 1
            return func(a, *args, **kwargs)

        return fft2

    def install(self) -> None:
        """Rebind every target in every loaded oamem module and in numpy.fft."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "oamem" or name.startswith("oamem."))]
        for layer, targets in TARGETS.items():
            for module_name, attr in targets:
                original = getattr(sys.modules[module_name], attr)
                inner = self._wrap_lg_field(original) if layer == "modes.lg_field" else original
                wrapped = self._wrap(layer, inner)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
        np.fft.fft2 = self._wrap_fft2(np.fft.fft2)
        np.fft.ifft2 = self._wrap_fft2(np.fft.ifft2)

    def summary(self) -> dict:
        """Per-layer call counts and span seconds, plus harness self time.

        Self time is the runner window minus the part of it covered by
        outermost layer spans.
        """
        out = {layer: {"calls": 0, "s": 0.0} for layer in TARGETS}
        covered = 0
        start, end = self.runner_window
        for name, t0, t1, parent in self.spans:
            out[name]["calls"] += 1
            out[name]["s"] += (t1 - t0) * 1e-9
            if (name not in NOT_COVERING and t0 >= start and t1 <= end
                    and not self._inside_covering(parent)):
                covered += t1 - t0
        calls = out["modes.lg_field"]["calls"]
        return {
            "layers": out,
            "fft2_calls": self.fft2_calls,
            "lg_field_distinct_keys": len(self.lg_keys),
            "lg_field_useful_ratio": len(self.lg_keys) / calls if calls else 0.0,
            "harness_self_s": (end - start - covered) * 1e-9,
        }

    def _inside_covering(self, index: int) -> bool:
        while index >= 0:
            name, _, _, parent = self.spans[index]
            if name not in NOT_COVERING:
                return True
            index = parent
        return False
