"""Linear-depth circuit estimation of orbital-optimized second-order energies.

Importing the package loads numpy's OpenBLAS on one thread unless the caller
set ``OPENBLAS_NUM_THREADS``, and leaves ``os.environ`` as it found it; the
scipy.optimize import of shots-mode optimization does the same for scipy's.
"""

import contextlib
import os


@contextlib.contextmanager
def _one_blas_thread():
    """Any OpenBLAS loaded in this block starts on one thread, unless the
    caller set ``OPENBLAS_NUM_THREADS``; ``os.environ`` is restored after it."""
    if "OPENBLAS_NUM_THREADS" in os.environ:
        yield
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


# Every evaluation is a long run of tiny BLAS/LAPACK calls (8x8 rotations,
# eigh, batched minors), which a second OpenBLAS thread only spins around.
# OpenBLAS reads the variable once, when it is loaded, so it is set just for
# that load; a numpy imported before omp2sim keeps its thread count.
with _one_blas_thread():
    import numpy

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
    single_particle_action,
)
from .lowrank import (
    FactorizedPerturbation,
    MeasurementGroup,
    factorize,
)
from .omp2 import (
    DoubleExcitationIndex,
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
    "DoubleExcitationIndex",
    "EnergyBreakdown",
    "Estimator",
    "EstimatorConfig",
    "FactorizedPerturbation",
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
    "factorize",
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
    "single_particle_action",
    "spin_orbitalize",
    "trajectory_fidelity",
]
