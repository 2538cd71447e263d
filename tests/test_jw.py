import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_point
from helpers import ladder_ops
from omp2sim.jw import (
    FermionTerm,
    QubitOperator,
    hamiltonian,
    hamming_weights,
    jw_map,
    occupations,
    operator_matrix,
)
from omp2sim.chem import spin_orbitalize


@given(st.integers(1, 5), st.booleans())
def test_single_ladder_matches_kron_chain(p, creation):
    n = 5
    op = jw_map(FermionTerm(1.0, ((p, creation),)), n)
    mat = operator_matrix(op, n)
    dense = ladder_ops(n)[p - 1]
    if creation:
        dense = dense.T
    assert np.abs(mat - dense).max() < 1e-14


@given(st.integers(1, 5), st.integers(1, 5))
def test_anticommutation(p, q):
    n = 5
    a_p = operator_matrix(jw_map(FermionTerm(1.0, ((p, False),)), n), n)
    adag_q = operator_matrix(jw_map(FermionTerm(1.0, ((q, True),)), n), n)
    anti = a_p @ adag_q + adag_q @ a_p
    expected = np.eye(1 << n) if p == q else np.zeros((1 << n, 1 << n))
    assert np.abs(anti - expected).max() < 1e-14


@given(
    st.lists(
        st.tuples(st.integers(1, 4), st.booleans()), min_size=2, max_size=4
    )
)
def test_operator_products_match_dense(ops):
    n = 4
    term = FermionTerm(0.7, tuple(ops))
    mat = operator_matrix(jw_map(term, n), n)
    low = ladder_ops(n)
    dense = np.eye(1 << n)
    for p, creation in ops:
        factor = low[p - 1].T if creation else low[p - 1]
        dense = dense @ factor
    assert np.abs(mat - 0.7 * dense).max() < 1e-12


def test_operator_addition_is_linear():
    n = 3
    t1 = jw_map(FermionTerm(0.5, ((1, True), (2, False))), n)
    t2 = jw_map(FermionTerm(-0.25, ((2, True), (3, False))), n)
    both = t1 + t2
    m = operator_matrix(both, n)
    assert np.abs(m - operator_matrix(t1, n) - operator_matrix(t2, n)).max() < 1e-14


def test_scalar_multiplication():
    n = 2
    t = jw_map(FermionTerm(1.0, ((1, True), (1, False))), n)
    assert np.abs(operator_matrix(t * 3.0, n) - 3.0 * operator_matrix(t, n)).max() == 0.0


def test_tiny_coefficients_dropped():
    op = QubitOperator(2, {"XX": 1e-15})
    assert not (op + QubitOperator(2)).terms


def test_number_operator_is_diagonal_occupation():
    n = 3
    for p in range(1, n + 1):
        num = operator_matrix(jw_map(FermionTerm(1.0, ((p, True), (p, False))), n), n)
        idx = np.arange(1 << n)
        occ = (idx >> (n - p)) & 1
        assert np.abs(num - np.diag(occ.astype(float))).max() < 1e-14
        assert np.array_equal(occupations(n)[:, p - 1], occ)


def test_hamming_weights():
    w = hamming_weights(4)
    assert w[0b0000] == 0
    assert w[0b1010] == 2
    assert w[0b1111] == 4
    assert w.sum() == 4 * (1 << 3)


@settings(deadline=None)
@given(st.sampled_from(["h2", "h3p"]))
def test_hamiltonian_is_hermitian_and_number_conserving(refs, molecule):
    pt = refs.molecules[molecule].points[0]
    mi, _ = load_point(refs, molecule, pt.distance_bohr)
    si = spin_orbitalize(mi)
    h = operator_matrix(hamiltonian(si), si.n_spin)
    assert np.abs(h - h.conj().T).max() < 1e-10
    num = sum(
        operator_matrix(jw_map(FermionTerm(1.0, ((p, True), (p, False))), si.n_spin), si.n_spin)
        for p in range(1, si.n_spin + 1)
    )
    assert np.abs(h @ num - num @ h).max() < 1e-10


def test_dense_matrix_capacity():
    op = QubitOperator(13, {"I" * 13: 1.0})
    with pytest.raises(ValueError):
        operator_matrix(op, 13)
