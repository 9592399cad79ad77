"""EIT storage simulator for orbital-angular-momentum qubits and qutrits.

Core layers:

* :mod:`oamem.fieldgrid` - transverse grids and unitary spectral transforms
* :mod:`oamem.modes` - Laguerre-Gaussian qudit basis and superpositions
* :mod:`oamem.holography` - binary phase masks and Fraunhofer diffraction
* :mod:`oamem.polariton` - dark-state-polariton write/read mapping
* :mod:`oamem.decoherence` - thermal expansion, magnetic dephasing, efficiency
* :mod:`oamem.measurement` - photon counting and measurement reductions
* :mod:`oamem.tomography` - density-matrix reconstruction and fidelity
* :mod:`oamem.bounds` - classical-memory fidelity limits
* :mod:`oamem.harness` / :mod:`oamem.cli` - campaign runners and CLI
"""

__version__ = "0.1.0"

from .fieldgrid import GridSpec, SpectrumField, TransverseField, inner_product, transform_to_spectrum
from .modes import LGModeSpec, QuditState, lg_field, qubit_state, qutrit_state, synthesize
from .holography import PhaseHologram, fraunhofer, project_and_couple, qubit_hologram, qutrit_hologram
from .polariton import MemoryParams, PolaritonState, SpinWave, group_velocity, mixing_angle, read, write
from .decoherence import (DiffusionParams, EfficiencyModel, MagneticModel, diffuse,
                          magnetic_dephase, qutrit_nodal_shift)
from .measurement import (CountRecord, CountingConfig, TransmittanceTable, VisibilityFit,
                          correct_transmittance, fit_visibility, interference_scan,
                          polar_retrieve, simulate_counts)
from .tomography import DensityMatrix, ProjectionSet, fidelity, probabilities, reconstruct
from .bounds import BoundResult, PhotonStatistics, classical_limit, nmin, poisson_weighted_limit, threshold_band
from .config import ExperimentConfig, load_config, parse_config

__all__ = [
    "__version__",
    "GridSpec", "TransverseField", "SpectrumField", "inner_product", "transform_to_spectrum",
    "LGModeSpec", "QuditState", "lg_field", "qubit_state", "qutrit_state", "synthesize",
    "PhaseHologram", "qubit_hologram", "qutrit_hologram", "fraunhofer", "project_and_couple",
    "MemoryParams", "SpinWave", "PolaritonState", "mixing_angle", "group_velocity", "write", "read",
    "DiffusionParams", "MagneticModel", "EfficiencyModel", "diffuse", "magnetic_dephase",
    "qutrit_nodal_shift",
    "CountRecord", "CountingConfig", "VisibilityFit", "TransmittanceTable",
    "simulate_counts", "interference_scan", "fit_visibility", "polar_retrieve",
    "correct_transmittance",
    "ProjectionSet", "DensityMatrix", "probabilities", "reconstruct", "fidelity",
    "PhotonStatistics", "BoundResult", "poisson_weighted_limit", "nmin",
    "classical_limit", "threshold_band",
    "ExperimentConfig", "load_config", "parse_config",
]
