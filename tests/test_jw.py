import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_point
from helpers import dense_perturbation, ladder_ops
from omp2sim.chem import spin_orbitalize
from omp2sim.jw import hamming_weights, occupations


@given(st.integers(1, 5), st.booleans())
def test_single_ladder_matches_kron_chain(p, creation):
    # the kron chain follows the documented convention: a_p clears bit
    # 2^(N-p) with the sign (-1)^(occupied qubits 1 .. p-1)
    n = 5
    dense = ladder_ops(n)[p - 1]
    if creation:
        dense = dense.T
    occ = occupations(n)
    expected = np.zeros_like(dense)
    for x in range(1 << n):
        if occ[x, p - 1] != creation:
            expected[x ^ (1 << (n - p)), x] = (-1) ** occ[x, : p - 1].sum()
    assert np.array_equal(dense, expected)


@given(st.integers(1, 5), st.integers(1, 5))
def test_anticommutation(p, q):
    n = 5
    low = ladder_ops(n)
    a_p, adag_q = low[p - 1], low[q - 1].T
    anti = a_p @ adag_q + adag_q @ a_p
    expected = np.eye(1 << n) if p == q else np.zeros((1 << n, 1 << n))
    assert np.abs(anti - expected).max() < 1e-14


def test_number_operator_is_diagonal_occupation():
    n = 3
    for p, a_p in enumerate(ladder_ops(n), start=1):
        num = a_p.T @ a_p
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
    h = dense_perturbation(si.h1s, si)
    assert np.abs(h - h.T).max() < 1e-10
    num = np.diag(hamming_weights(si.n_spin).astype(float))
    assert np.abs(h @ num - num @ h).max() < 1e-10
