"""EIT storage simulator for orbital-angular-momentum qubits and qutrits.

Core layers, in the order a campaign runs them:

* :mod:`oamem.fieldgrid` - grids, fields (light and spin wave), spectral transform
* :mod:`oamem.modes` - Laguerre-Gaussian qudit basis, superpositions, projection
* :mod:`oamem.holography` - binary phase masks and Fraunhofer diffraction
* :mod:`oamem.polariton` - memory parameters and the dark-state-polariton
  write/read mapping
* :mod:`oamem.decoherence` - thermal expansion, magnetic dephasing, efficiency
* :mod:`oamem.measurement` - photon counting, background subtraction, the
  equator-scan visibility fit and polar-angle retrieval
* :mod:`oamem.rng` - numpy's seeding, PCG64 stream and Poisson sampler,
  ported to Python so that counting never imports ``numpy.random``
* :mod:`oamem.tomography` - density-matrix reconstruction and fidelity, whose
  small eigenproblems and least-squares fits :mod:`oamem._jacobi` solves
* :mod:`oamem.bounds` - classical-memory fidelity limits
* :mod:`oamem.harness` / :mod:`oamem.cli` - campaign runners and CLI
"""

__version__ = "0.1.0"

import os
import sys

# OpenBLAS starts a worker thread when numpy loads it, and that thread
# spins for about 0.13 s of CPU before it sleeps, while no campaign makes a
# BLAS call large enough to use it (grid axes are contracted with einsum,
# and no campaign calls LAPACK).  So numpy is loaded with a one-thread BLAS,
# unless it is already loaded or the user chose OPENBLAS_NUM_THREADS, and
# the variable is removed again, so child processes inherit nothing.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .fieldgrid import GridSpec, TransverseField, inner_product, transform_to_spectrum
from .modes import LGModeSpec, QuditState, lg_field, qubit_state, synthesize
from .holography import PhaseHologram, fraunhofer, project_and_couple, qubit_hologram, qutrit_hologram
from .polariton import MemoryParams, group_velocity, mixing_angle, read, write
from .decoherence import EfficiencyModel, MagneticModel, decohere, diffuse, magnetic_dephase
from .measurement import CountRecord, VisibilityFit, fit_visibility, polar_retrieve, simulate_counts
from .tomography import DensityMatrix, ProjectionSet, fidelity, probabilities, reconstruct
from .bounds import BoundResult, PhotonStatistics, classical_limit, nmin, threshold_band
from .config import ExperimentConfig, load_config, parse_config

__all__ = [
    "__version__",
    "GridSpec", "TransverseField", "inner_product", "transform_to_spectrum",
    "LGModeSpec", "QuditState", "lg_field", "qubit_state", "synthesize",
    "PhaseHologram", "qubit_hologram", "qutrit_hologram", "fraunhofer", "project_and_couple",
    "MemoryParams", "mixing_angle", "group_velocity", "write", "read",
    "MagneticModel", "EfficiencyModel", "decohere", "diffuse", "magnetic_dephase",
    "CountRecord", "VisibilityFit", "simulate_counts", "fit_visibility", "polar_retrieve",
    "ProjectionSet", "DensityMatrix", "probabilities", "reconstruct", "fidelity",
    "PhotonStatistics", "BoundResult", "nmin",
    "classical_limit", "threshold_band",
    "ExperimentConfig", "load_config", "parse_config",
]
