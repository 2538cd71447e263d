from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import special_ortho_group

from helpers import double_excitation_depth_formula, ladder_ops, phase_distance
from omp2sim.circuits import (
    Circuit,
    Gate,
    ResourceReport,
    cnot,
    cnot_depth,
    compile_orbital_rotation,
    double_excitation,
    lower_circuit,
    multi_cry,
    prep_reference,
    single_excitation,
    x,
)
from omp2sim.oracle import circuit_unitary, single_particle_action


def dense_single(n, p, alpha):
    low = ladder_ops(n)
    gen = low[p - 1].T @ low[p]
    return expm(alpha * (gen - gen.T))


def dense_double(n, i, j, a, b, omega):
    low = ladder_ops(n)
    gen = low[a - 1].T @ low[b - 1].T @ low[j - 1] @ low[i - 1]
    return expm(omega * (gen - gen.T))


def test_gate_validation():
    with pytest.raises(ValueError):
        cnot(1, 1)
    with pytest.raises(ValueError):
        x(0)
    with pytest.raises(ValueError):
        multi_cry((1, 2), 2, 0.3)
    # only the kinds the builders emit, spelled as they spell them
    for kind, qubits in (("FOO", (1, 2)), ("cnot", (1,)), ("H", (1,)), ("RY", (1,)), ("RZ", (1,))):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate(kind, qubits, 0.3)


@pytest.mark.parametrize(
    "kind,qubits,angle,message",
    [
        ("MULTI_CRY", (1, 2), None, "finite angle"),
        ("MULTI_CRY", (1, 2), float("nan"), "finite angle"),
        ("MULTI_CRY", (1, 2), float("inf"), "finite angle"),
        ("MULTI_CRY", (1, 2), "0.5", "finite angle"),
        ("X", (1,), 0.5, "takes no angle"),
        ("CNOT", (1, 2), float("inf"), "takes no angle"),
        ("CZ", (1, 2), 0.0, "takes no angle"),
        ("X", (1.5,), None, "must be integers"),
        ("CNOT", (1, 2.0), None, "must be integers"),
    ],
)
def test_gate_rejects_operands_run_cannot_apply(kind, qubits, angle, message):
    # these used to construct and fail only in run: a TypeError from the
    # missing angle, or a row of nan amplitudes from a nan one
    with pytest.raises(ValueError, match=message):
        Gate(kind, qubits, angle)


def test_prep_reference_sets_low_qubits():
    c = prep_reference(4, 2)
    u = circuit_unitary(c)
    state = u[:, 0]
    assert abs(state[0b1100]) == 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.floats(-3.0, 3.0))
def test_single_excitation_matches_generator(p, alpha):
    n = 6
    c = Circuit(n, single_excitation(p, alpha))
    assert phase_distance(circuit_unitary(c), dense_single(n, p, alpha)) < 1e-10


def test_single_excitation_amplitudes():
    alpha = 0.37
    u = circuit_unitary(Circuit(2, single_excitation(1, alpha)))
    ket01 = np.zeros(4)
    ket01[0b01] = 1.0
    out = u @ ket01
    assert abs(out[0b01] - np.cos(alpha)) < 1e-12
    assert abs(out[0b10] - np.sin(alpha)) < 1e-12
    ket10 = np.zeros(4)
    ket10[0b10] = 1.0
    out = u @ ket10
    assert abs(out[0b10] - np.cos(alpha)) < 1e-12
    assert abs(out[0b01] + np.sin(alpha)) < 1e-12
    for idx in (0b00, 0b11):
        basis = np.zeros(4)
        basis[idx] = 1.0
        assert abs((u @ basis)[idx] - 1.0) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_double_excitation_matches_generator(data):
    n = data.draw(st.integers(4, 7))
    i, j, a, b = sorted(data.draw(st.sets(st.integers(1, n), min_size=4, max_size=4)))
    omega = data.draw(st.floats(-3.0, 3.0))
    c = Circuit(n, double_excitation(i, j, a, b, omega))
    assert phase_distance(circuit_unitary(c), dense_double(n, i, j, a, b, omega)) < 1e-10


def test_double_excitation_rejects_bad_order():
    with pytest.raises(ValueError):
        double_excitation(2, 1, 3, 4, 0.1)
    with pytest.raises(ValueError):
        double_excitation(1, 2, 2, 4, 0.1)


def test_lower_multi_cry_equivalence():
    for n_ctrl in (1, 2, 3, 4, 5):
        n = n_ctrl + 1
        g = multi_cry(tuple(range(2, n_ctrl + 2)), 1, 0.913)
        c = Circuit(n, (g,))
        lowered = lower_circuit(c)
        assert phase_distance(circuit_unitary(lowered), circuit_unitary(c)) < 1e-12
        for gate in lowered.gates:
            assert gate.kind in ("CNOT", "MULTI_CRY")
            if gate.kind == "MULTI_CRY":
                assert len(gate.controls) == 1
        # a circuit with nothing left to lower comes back as itself
        assert lower_circuit(lowered) is lowered
        assert (lowered is c) == (n_ctrl == 1)


def test_lower_multi_cry_matches_pinned_sequences():
    # the 2- and 3-control networks as literals, gate for gate and angle for
    # angle: the noisy path runs exactly these gates
    half, q = 0.913 / 2.0, 0.913 / 4.0
    pinned = {
        (2, 3): (
            multi_cry((2,), 4, half),
            cnot(2, 3),
            multi_cry((3,), 4, -half),
            cnot(2, 3),
            multi_cry((3,), 4, half),
        ),
        (5, 2, 3): (
            multi_cry((5,), 1, q),
            cnot(5, 2),
            multi_cry((2,), 1, -q),
            cnot(5, 2),
            multi_cry((2,), 1, q),
            cnot(2, 3),
            multi_cry((3,), 1, -q),
            cnot(5, 3),
            multi_cry((3,), 1, q),
            cnot(2, 3),
            multi_cry((3,), 1, -q),
            cnot(5, 3),
            multi_cry((3,), 1, q),
        ),
    }
    for controls, gates in pinned.items():
        target = gates[0].target
        lowered = lower_circuit(Circuit(5, (multi_cry(controls, target, 0.913),))).gates
        assert lowered == gates  # dataclass equality: kind, qubits and exact angle


def test_lower_multi_cry_depth():
    g4 = multi_cry((1, 2, 3, 4), 5, 0.4)
    assert cnot_depth(Circuit(5, (g4,))).cnot_depth == 29  # 2^(k+1) - 3
    g = multi_cry((1, 2, 3), 4, 0.4)
    assert cnot_depth(Circuit(4, (g,))).cnot_depth == 13
    g2 = multi_cry((1, 2), 3, 0.4)
    assert cnot_depth(Circuit(3, (g2,))).cnot_depth == 5
    g1 = multi_cry((1,), 2, 0.4)
    assert cnot_depth(Circuit(2, (g1,))).cnot_depth == 1


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**31 - 1))
def test_compile_round_trip(n, seed):
    u = special_ortho_group.rvs(n, random_state=np.random.default_rng(seed))
    c = compile_orbital_rotation(u)
    v = single_particle_action(circuit_unitary(c), n)
    assert np.abs(v - u).max() < 1e-8


def test_compile_depth_is_three_per_layer():
    for n in (3, 4, 6, 8):
        u = special_ortho_group.rvs(n, random_state=np.random.default_rng(n))
        assert cnot_depth(compile_orbital_rotation(u)).cnot_depth == 3 * n
    assert cnot_depth(compile_orbital_rotation(np.eye(4))).cnot_depth == 12


def test_compile_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        compile_orbital_rotation(np.ones((3, 3)))


def test_cnot_depth_hand_examples():
    c = Circuit(4, (cnot(1, 2), cnot(3, 4)))
    assert cnot_depth(c).cnot_depth == 1
    c = Circuit(4, (cnot(1, 2), cnot(2, 3)))
    assert cnot_depth(c).cnot_depth == 2
    c = Circuit(4, (x(1), cnot(1, 2), x(2)))
    assert cnot_depth(c) == ResourceReport(cnot_depth=1, cnot_count=1)


def test_depth_formula_matches_measured_depth():
    for n in range(4, 9):
        for i, j in combinations(range(1, n - 1), 2):
            for a, b in combinations(range(j + 1, n + 1), 2):
                c = Circuit(n, double_excitation(i, j, a, b, 0.3))
                measured = cnot_depth(c).cnot_depth
                assert measured == double_excitation_depth_formula(i, j, a, b), (i, j, a, b)


def test_adjacent_block_depth_totals():
    # two rotation rectangles never overlap, a double always packs in front
    for n, ne in ((4, 2), (6, 2), (8, 4)):
        rect = compile_orbital_rotation(np.eye(n)).gates
        assert cnot_depth(Circuit(n, rect + rect)).cnot_depth == 6 * n
        d = double_excitation(1, 2, ne + 1, ne + 2, 0.2)
        combined = cnot_depth(Circuit(n, d + rect + rect)).cnot_depth
        assert combined == 6 * n + double_excitation_depth_formula(1, 2, ne + 1, ne + 2)
