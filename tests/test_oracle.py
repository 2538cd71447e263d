import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import load_point
from helpers import (
    _number_block,
    circuit_unitary,
    dense_perturbation,
    fci_energy,
    phase_distance,
)
from omp2sim.chem import orbital_energies, spin_orbitalize
from omp2sim.circuits import Circuit, cnot, cz, multi_cry, x
from omp2sim.jw import hamming_weights
from omp2sim.oracle import (
    ReferenceValues,
    canonical_mp2,
    fixture_path,
    hartree_fock_energy,
)


def test_reference_table_shape(refs):
    assert set(refs.molecules) == {"h2", "h3p", "lih", "h4"}
    h2 = refs.molecules["h2"]
    assert h2.n_electrons == 2
    assert len(h2.points) == 13
    pt = h2.point_at(1.4)
    slack = 1e-10
    assert pt.e_fci <= pt.e_omp2 + slack
    assert pt.e_omp2 <= pt.e_mp2 + slack
    assert pt.e_mp2 <= pt.e_hf + slack
    with pytest.raises(KeyError):
        h2.point_at(0.123)


def test_load_rejects_disordered_energies(tmp_path):
    from importlib import resources

    ref = resources.files("omp2sim.data") / "reference_values.json"
    src = json.loads(ref.read_text())
    pt = src["molecules"]["h2"]["points"][0]
    pt["e_fci"], pt["e_hf"] = pt["e_hf"], pt["e_fci"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(src))
    with pytest.raises(ValueError):
        ReferenceValues.load(bad)


def test_fixture_path_resolves(refs):
    p = fixture_path(refs.molecules["h2"].points[0].fcidump)
    assert p.read_text().startswith("&FCI")


@pytest.mark.parametrize("molecule", ["h2", "h3p", "lih", "h4"])
def test_hartree_fock_matches_reference(refs, molecule):
    for pt in refs.molecules[molecule].points:
        mi, _ = load_point(refs, molecule, pt.distance_bohr)
        si = spin_orbitalize(mi)
        assert hartree_fock_energy(si, mi.e_core, mi.n_electrons) == pytest.approx(
            pt.e_hf, abs=1e-9
        )


@pytest.mark.parametrize("molecule", ["h2", "h3p", "lih", "h4"])
def test_canonical_mp2_matches_reference(refs, molecule):
    for pt in refs.molecules[molecule].points:
        mi, _ = load_point(refs, molecule, pt.distance_bohr)
        si = spin_orbitalize(mi)
        eps = orbital_energies(si, mi.n_electrons)
        e_hf = hartree_fock_energy(si, mi.e_core, mi.n_electrons)
        e2 = canonical_mp2(si, eps, mi.n_electrons)
        assert e_hf + e2 == pytest.approx(pt.e_mp2, abs=1e-9)


def test_fci_matches_reference_h2(refs):
    for pt in refs.molecules["h2"].points:
        mi, _ = load_point(refs, "h2", pt.distance_bohr)
        si = spin_orbitalize(mi)
        assert fci_energy(si, mi.e_core, mi.n_electrons) == pytest.approx(pt.e_fci, abs=1e-9)


@pytest.mark.parametrize("molecule,distance", [("h3p", 2.4), ("lih", 3.1), ("h4", 1.8)])
def test_fci_matches_reference_midpoints(refs, molecule, distance):
    mi, pt = load_point(refs, molecule, distance)
    si = spin_orbitalize(mi)
    assert fci_energy(si, mi.e_core, mi.n_electrons) == pytest.approx(pt.e_fci, abs=1e-9)


@pytest.mark.parametrize(
    "molecule,distance", [("h2", 1.4), ("h3p", 2.4), ("lih", 3.1), ("h4", 1.8)]
)
def test_number_block_matches_dense_reference(refs, molecule, distance):
    mi, _ = load_point(refs, molecule, distance)
    si = spin_orbitalize(mi)
    block = _number_block(si, mi.n_electrons)
    states = np.flatnonzero(hamming_weights(si.n_spin) == mi.n_electrons)
    dense = dense_perturbation(si.h1s, si)[np.ix_(states, states)]
    assert np.abs(block - dense).max() < 1e-12
    assert np.abs(block - block.T).max() < 1e-12


def test_unitary_hand_checks():
    ux = circuit_unitary(Circuit(1, (x(1),)))
    assert np.allclose(ux, [[0, 1], [1, 0]])
    # qubit 1 is the most significant bit
    ucx = circuit_unitary(Circuit(2, (cnot(1, 2),)))
    perm = np.zeros((4, 4))
    perm[0b00, 0b00] = perm[0b01, 0b01] = perm[0b11, 0b10] = perm[0b10, 0b11] = 1
    assert np.allclose(ucx, perm)
    ucz = circuit_unitary(Circuit(2, (cz(1, 2),)))
    assert np.allclose(ucz, np.diag([1, 1, 1, -1]))


def test_multi_cry_unitary_sectors():
    angle = 0.8
    u = circuit_unitary(Circuit(2, (multi_cry((1,), 2, angle),)))
    assert np.allclose(u[:2, :2], np.eye(2))
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    assert np.allclose(u[2:, 2:], [[c, -s], [s, c]])


def test_unitary_capacity_cap():
    with pytest.raises(ValueError):
        circuit_unitary(Circuit(9, (x(1),)))


@given(st.floats(-np.pi, np.pi, allow_nan=False))
def test_phase_distance_ignores_global_phase(phi):
    rng = np.random.default_rng(3)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    v /= np.linalg.norm(v)
    assert phase_distance(v, np.exp(1j * phi) * v) < 1e-12


def test_phase_distance_detects_difference():
    v = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    assert phase_distance(v, w) > 0.5
