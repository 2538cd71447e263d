"""The package's public surface: what `omp2sim.__all__` lists exists, and
what left the package stays gone from where it used to live."""

import inspect
from dataclasses import fields

import omp2sim
from omp2sim import circuits, lowrank, oracle, simulator
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
    ]
    gone += [(omp2sim, name) for name in ("FactorizedPerturbation", "single_particle_action")]
    for owner, name in gone:
        assert not hasattr(owner, name), f"{owner.__name__}.{name}"
    for name in ("FactorizedPerturbation", "factorize", "single_particle_action"):
        assert name not in omp2sim.__all__, name
    assert "n_trajectories" not in {f.name for f in fields(simulator.FidelityEstimate)}
    assert "single_qubit_count" not in {f.name for f in fields(circuits.ResourceReport)}
    assert not inspect.signature(simulator.load_noise_presets).parameters
    assert "atol" not in inspect.signature(oracle.MoleculeReference.point_at).parameters
    est = omp2sim.Estimator(parse_fcidump(fixture_path("h2_1.4.fcidump")))
    assert not hasattr(est, "si")
