"""Every function in src/oamem is on a campaign path, or on the keep-list.

Each subcommand runs once, under a profiler, on small qubit, qutrit and
hologram configs that set every config section.  A function or method
defined in the package that none of these runs call is library surface
that only tests reach: it goes, or it joins KEEP with a reason that
names its pin (``PINS``): ``perfbench/tracer.py``, which rebinds it, the
ROADMAP item that puts it on a campaign path, or running at import.
"""

import importlib
import inspect
import pkgutil
import re
import sys
import warnings

import pytest
import yaml

import oamem
from oamem.cli import SUBCOMMANDS
from oamem.cli import main as cli_main

# qualified name -> why it stays although no subcommand calls it
KEEP = {
    "fieldgrid.inner_product": "rebound by name in perfbench/tracer.py",
    "holography.project_and_couple": "rebound by name in perfbench/tracer.py",
    "modes.state_from_field": "rebound by name in perfbench/tracer.py",
    "decoherence.diffuse": "rebound by name in perfbench/tracer.py; campaigns run both "
                           "channels through decoherence.decohere",
    "decoherence.magnetic_dephase": "rebound by name in perfbench/tracer.py; campaigns run "
                                    "both channels through decoherence.decohere",
    "tomography._ml_refine": "reconstruct(max_likelihood=True), for ROADMAP item 3",
    "polariton.mixing_angle": "polariton bookkeeping for run diagnostics (ROADMAP item 4)",
    "polariton.group_velocity": "polariton bookkeeping for run diagnostics (ROADMAP item 4)",
    "tomography._ket": "runs at import, building the projector tables",
    "rng._hash_constants": "runs at import, building the hash-constant tables; a campaign "
                           "calls it only for a seed of more than 448 bits",
}
# what a reason may cite as the pin that keeps its name in the package
PINS = re.compile(r"perfbench/tracer\.py|ROADMAP item \d+|at import")

GRID = {"n": 64, "extent": 3.2e-3}
# every section set, so that parsing builds each section's type
SECTIONS = {
    "memory": {"alpha": 0.05},
    "magnetic": {"sensitivity": 5.0e9, "guiding_b": 2.0e-5, "center": [3.0e-4, -2.0e-4]},
    "photon": {"n_bar": 1.6, "uncertainty": 0.4},
    "scan": {"beta_points": 8},
    "meridian": {"gamma_points": 3},
    "storage_times": [0.0, 1.0e-4],
}
QUBIT = {"seed": 1, "grid": GRID, **SECTIONS,
         "qudit": {"dim": 2, "l": 2, "waist": 250e-6, "gamma": 1.2, "beta": 0.3},
         "decoherence": {"diffusion": True, "magnetic": True, "longitudinal_drift": True},
         "efficiency": {"anchors": [[1.0e-5, 0.1], [4.0e-4, 0.05]]},
         "counting": {"pulses": 20000, "bg_rate": 1.0e-3}}
QUTRIT = {"seed": 2, "grid": GRID, **SECTIONS,
          "qudit": {"dim": 3, "l": 1, "waist": 250e-6, "coeffs": [[1, 0], [1, 0], [1, 0]]},
          "efficiency": {"eta0": 0.1, "tau": 5.0e-4},
          "counting": {"poisson": False}}
HOLOGRAM = {"kind": "hologram", "input_waist": 5.0e-4, "focal": 0.5}
CONFIGS = {"qubit": QUBIT, "qutrit": QUTRIT,
           "hologram-qubit": {**QUBIT, "source": HOLOGRAM},
           "hologram-qutrit": {**QUTRIT, "source": HOLOGRAM}}


def defined_functions() -> dict:
    """Qualified name -> code object of every function and method in src/oamem."""
    found = {}
    for info in pkgutil.iter_modules(oamem.__path__):
        module = importlib.import_module(f"oamem.{info.name}")
        source = inspect.getfile(module)
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__code__.co_filename == source:
                found[f"{info.name}.{name}"] = obj.__code__
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for attr, member in vars(obj).items():
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    # dataclass-generated methods have no source file
                    if inspect.isfunction(member) and member.__code__.co_filename == source:
                        found[f"{info.name}.{obj.__name__}.{attr}"] = member.__code__
    return found


@pytest.fixture(scope="module")
def called(tmp_path_factory) -> set:
    """Code objects entered while every subcommand runs on every config."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    root = tmp_path_factory.mktemp("surface")
    previous = sys.getprofile()
    with warnings.catch_warnings():
        # the small hologram grids trip the diffraction-phase warning
        warnings.simplefilter("ignore", UserWarning)
        for tag, cfg in CONFIGS.items():
            path = root / f"{tag}.yaml"
            path.write_text(yaml.safe_dump(cfg))
            for command in SUBCOMMANDS:
                argv = [command, "--config", str(path), "--out", str(root / tag / command)]
                sys.setprofile(profile)
                try:
                    cli_main(argv)
                finally:
                    sys.setprofile(previous)
    return seen


def test_every_function_is_on_a_campaign_path(called):
    uncalled = {name for name, code in defined_functions().items() if code not in called}
    assert sorted(uncalled - set(KEEP)) == []


def test_keep_list_is_exact(called):
    # a kept name must exist, and must still be off every campaign path
    defined = defined_functions()
    assert sorted(set(KEEP) - set(defined)) == []
    assert sorted(name for name in KEEP if defined[name] in called) == []


def test_every_keep_reason_names_its_pin():
    # test-only surface cannot come back under a reason that pins nothing
    assert sorted(name for name, reason in KEEP.items() if not PINS.search(reason)) == []
