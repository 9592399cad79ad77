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
* :mod:`oamem.tomography` - density-matrix reconstruction and fidelity
* :mod:`oamem.bounds` - classical-memory fidelity limits
* :mod:`oamem.harness` / :mod:`oamem.cli` - campaign runners and CLI
"""

__version__ = "0.1.0"

from .fieldgrid import GridSpec, TransverseField, inner_product, transform_to_spectrum
from .modes import LGModeSpec, QuditState, lg_field, qubit_state, qutrit_state, synthesize
from .holography import PhaseHologram, fraunhofer, project_and_couple, qubit_hologram, qutrit_hologram
from .polariton import MemoryParams, group_velocity, mixing_angle, read, write
from .decoherence import (EfficiencyModel, MagneticModel, decohere, diffuse, magnetic_dephase,
                          qutrit_nodal_shift)
from .measurement import CountRecord, VisibilityFit, fit_visibility, polar_retrieve, simulate_counts
from .tomography import DensityMatrix, ProjectionSet, fidelity, probabilities, reconstruct
from .bounds import BoundResult, PhotonStatistics, classical_limit, nmin, poisson_weighted_limit, threshold_band
from .config import ExperimentConfig, load_config, parse_config

__all__ = [
    "__version__",
    "GridSpec", "TransverseField", "inner_product", "transform_to_spectrum",
    "LGModeSpec", "QuditState", "lg_field", "qubit_state", "qutrit_state", "synthesize",
    "PhaseHologram", "qubit_hologram", "qutrit_hologram", "fraunhofer", "project_and_couple",
    "MemoryParams", "mixing_angle", "group_velocity", "write", "read",
    "MagneticModel", "EfficiencyModel", "decohere", "diffuse", "magnetic_dephase",
    "qutrit_nodal_shift",
    "CountRecord", "VisibilityFit", "simulate_counts", "fit_visibility", "polar_retrieve",
    "ProjectionSet", "DensityMatrix", "probabilities", "reconstruct", "fidelity",
    "PhotonStatistics", "BoundResult", "poisson_weighted_limit", "nmin",
    "classical_limit", "threshold_band",
    "ExperimentConfig", "load_config", "parse_config",
]
