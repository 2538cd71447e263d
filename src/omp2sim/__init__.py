"""Linear-depth circuit estimation of orbital-optimized second-order energies.

The package needs numpy alone.  Importing it loads numpy's OpenBLAS on one
thread unless the caller set ``OPENBLAS_NUM_THREADS``, and leaves
``os.environ`` as it found it.
"""

import os

# Every evaluation is a long run of tiny BLAS/LAPACK calls (8x8 rotations,
# eigh, batched minors), which a second OpenBLAS thread only spins around.
# OpenBLAS reads the variable once, when it is loaded, so it is set just for
# that load, unless the caller set it; a numpy imported before omp2sim keeps
# its thread count.
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .chem import (
    ActiveSpaceSpec,
    FcidumpError,
    MolecularIntegrals,
    SpinIntegrals,
    build_perturbation,
    freeze_active_space,
    orbital_energies,
    parse_fcidump,
    spin_orbitalize,
)
from .circuits import (
    Circuit,
    Gate,
    ResourceReport,
    cnot_depth,
    compile_orbital_rotation,
    double_excitation,
    lower_circuit,
    prep_reference,
    single_excitation,
)
from .lowrank import MeasurementGroup
from .omp2 import (
    EnergyBreakdown,
    Estimator,
    EstimatorConfig,
    ResourceSummary,
    ThetaParams,
    enumerate_doubles,
)
from .oracle import ReferenceValues, canonical_mp2, circuit_unitary, fci_energy
from .simulator import (
    FidelityEstimate,
    NoiseModel,
    apply_circuit,
    expectation_with_variance,
    load_noise_presets,
    postselect,
    run,
    sample,
    trajectory_fidelity,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveSpaceSpec",
    "Circuit",
    "EnergyBreakdown",
    "Estimator",
    "EstimatorConfig",
    "FcidumpError",
    "FidelityEstimate",
    "Gate",
    "MeasurementGroup",
    "MolecularIntegrals",
    "NoiseModel",
    "ReferenceValues",
    "ResourceReport",
    "ResourceSummary",
    "SpinIntegrals",
    "ThetaParams",
    "apply_circuit",
    "build_perturbation",
    "canonical_mp2",
    "circuit_unitary",
    "cnot_depth",
    "compile_orbital_rotation",
    "double_excitation",
    "enumerate_doubles",
    "expectation_with_variance",
    "fci_energy",
    "freeze_active_space",
    "load_noise_presets",
    "lower_circuit",
    "orbital_energies",
    "parse_fcidump",
    "postselect",
    "prep_reference",
    "run",
    "sample",
    "single_excitation",
    "spin_orbitalize",
    "trajectory_fidelity",
]
