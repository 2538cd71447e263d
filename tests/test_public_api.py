"""The package's public surface: what `omp2sim.__all__` lists exists, and
what left the package stays gone from where it used to live."""

import ast
import inspect
from dataclasses import fields
from pathlib import Path

import omp2sim
from omp2sim import circuits, lowrank, omp2, oracle, simulator
from omp2sim.chem import parse_fcidump
from omp2sim.oracle import fixture_path


def test_public_surface():
    for name in omp2sim.__all__:
        assert hasattr(omp2sim, name), name
    gone = [
        (lowrank, "FactorizedPerturbation"),
        (circuits, "single_particle_action"),
        (circuits, "double_excitation_depth_formula"),
        (oracle, "phase_distance"),
        (circuits.Gate, "to_text"),
        (circuits.Circuit, "to_text"),
        (simulator, "default_seed"),
        (simulator, "SEED_ENV_VAR"),
        (circuits, "h"),
        (circuits, "ry"),
        (circuits, "rz"),
        (omp2, "postselect"),
        (omp2, "coefficient_vector"),
    ]
    moved_to_the_tests = (
        "fci_energy", "circuit_unitary", "single_particle_action", "_number_block",
        "MAX_DENSE_CIRCUIT_QUBITS",
    )
    gone += [(oracle, name) for name in moved_to_the_tests]
    left_the_package = (
        "FactorizedPerturbation", "single_particle_action", "fci_energy", "circuit_unitary",
    )
    gone += [(omp2sim, name) for name in left_the_package]
    for owner, name in gone:
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    for name in ("factorize", *left_the_package):
        assert name not in omp2sim.__all__, name
    assert "n_trajectories" not in {f.name for f in fields(simulator.FidelityEstimate)}
    assert "occupations" not in {f.name for f in fields(simulator.NumberSector)}
    assert "single_qubit_count" not in {f.name for f in fields(circuits.ResourceReport)}
    assert not inspect.signature(simulator.load_noise_presets).parameters
    assert "atol" not in inspect.signature(oracle.MoleculeReference.point_at).parameters
    est = omp2sim.Estimator(parse_fcidump(fixture_path("h2_1.4.fcidump")))
    assert not hasattr(est, "si")


def test_oracle_imports_no_circuit_or_simulator_code():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # `from .circuits import Gate` and `from . import circuits` alike
            base = "omp2sim" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            imported += [module] + [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    for module in imported:
        assert not module.startswith(("omp2sim.circuits", "omp2sim.simulator")), module
