import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_point
from helpers import (
    dense_group_operator,
    dense_perturbation,
    group_expectation_coefficients,
    operator_norm,
)
from omp2sim.chem import (
    build_perturbation,
    expm_antisymmetric,
    orbital_energies,
    parse_fcidump,
    spin_orbitalize,
)
from omp2sim.lowrank import (
    coefficient_vector,
    factor_supermatrix,
    factorize,
    measured_integrals,
    one_body_group,
    two_body_groups,
)
from omp2sim.oracle import fixture_path

EXPECTED_GROUPS = {"h2": 4, "h3p": 7, "lih": 7, "h4": 11}
MIDPOINTS = {"h2": 1.4, "h3p": 2.4, "lih": 3.1, "h4": 1.8}


def _factorized(refs, molecule):
    mi, _ = load_point(refs, molecule, MIDPOINTS[molecule])
    si = spin_orbitalize(mi)
    eps = orbital_energies(si, mi.n_electrons)
    t = build_perturbation(mi.h1, eps[0::2], np.eye(mi.n_spatial))
    return si, t, mi.eri, factorize(t, mi.eri, 1e-12)


@pytest.mark.parametrize("molecule", sorted(EXPECTED_GROUPS))
def test_group_counts(refs, molecule):
    _, _, _, groups = _factorized(refs, molecule)
    assert len(groups) == EXPECTED_GROUPS[molecule]
    g0, *two_body = groups
    assert g0.weight == 0.0 and not g0.factor.any()
    assert all(not g.linear.any() and g.weight != 0.0 for g in two_body)


@pytest.mark.parametrize("molecule", sorted(EXPECTED_GROUPS))
def test_rotations_are_special_orthogonal(refs, molecule):
    _, _, _, groups = _factorized(refs, molecule)
    for g in groups:
        m = g.rotation.shape[0]
        assert np.abs(g.rotation.T @ g.rotation - np.eye(m)).max() < 1e-12
        assert np.linalg.det(g.rotation) > 0.0


@pytest.mark.parametrize("molecule", sorted(EXPECTED_GROUPS))
def test_dense_operator_rebuild(refs, molecule):
    si, t, eri, groups = _factorized(refs, molecule)
    direct = dense_perturbation(np.kron(t, np.eye(2)), si)
    rebuilt = sum(dense_group_operator(g, si.n_spin) for g in groups)
    assert operator_norm(rebuilt - direct) < 1e-8
    assert factor_supermatrix(eri, 1e-12)[2] <= 1e-8


def test_two_body_groups_ignore_theta(refs):
    mi, _ = load_point(refs, "h2", 1.4)
    si = spin_orbitalize(mi)
    eps = orbital_energies(si, 2)[0::2]
    u = expm_antisymmetric(np.array([[0.0, 0.17], [-0.17, 0.0]]))
    t0 = build_perturbation(mi.h1, eps, np.eye(2))
    t1 = build_perturbation(mi.h1, eps, u)
    groups0 = factorize(t0, mi.eri, 1e-12)
    groups1 = factorize(t1, mi.eri, 1e-12)
    assert len(groups1) == len(groups0)
    for g0, g1 in zip(groups0[1:], groups1[1:]):
        for name in ("rotation", "linear", "factor", "weight"):
            assert np.array_equal(getattr(g1, name), getattr(g0, name))
    assert not np.allclose(groups1[0].linear, groups0[0].linear)
    rebuilt = sum(dense_group_operator(g, 4) for g in groups1)
    assert operator_norm(rebuilt - dense_perturbation(np.kron(t1, np.eye(2)), si)) < 1e-8


def test_truncation_records_dropped_weight(refs):
    si, t, eri, _ = _factorized(refs, "h2")
    m = eri.shape[0]
    w = np.linalg.eigvalsh(eri.reshape(m * m, m * m))
    tol = abs(w)[np.argsort(np.abs(w))][-2] + 1e-9
    loose = factorize(t, eri, tol)
    assert len(loose) == 2  # one-body plus the single surviving eigenpair
    assert factor_supermatrix(eri, tol)[2] > 1e-8
    direct = dense_perturbation(np.kron(t, np.eye(2)), si)
    rebuilt = sum(dense_group_operator(g, si.n_spin) for g in loose)
    assert operator_norm(rebuilt - direct) > 1e-8


@pytest.mark.parametrize("tol", [1e-12, 1e-3])
def test_factor_step_is_what_the_groups_measure(refs, tol):
    # on every fixture, the factor step's sum_l w_l G_l (x) G_l is the groups'
    # sum over O diag(f) O^T, and it rebuilds eri within the dropped bound
    names = sorted(pt.fcidump for mol in refs.molecules.values() for pt in mol.points)
    assert len(names) == 69
    worst_dropped = 0.0
    for name in names:
        mi = parse_fcidump(fixture_path(name))
        m = mi.n_spatial
        w, g, dropped = factor_supermatrix(mi.eri, tol)
        h1, eri = measured_integrals(mi.h1, mi.eri, w, g)
        assert np.array_equal(eri, np.einsum("l,lpq,lrs->pqrs", w, g, g))
        from_groups = np.zeros((m,) * 4)
        for gr in two_body_groups(w, g):
            op = gr.rotation @ np.diag(gr.factor) @ gr.rotation.T
            from_groups += gr.weight * np.multiply.outer(op, op)
        assert np.abs(eri - from_groups).max() <= 1e-12, name
        remainder = (mi.eri - eri).reshape(m * m, m * m)
        assert np.linalg.norm(remainder, 2) <= dropped + 1e-12, name
        reorder = 0.5 * np.einsum("prrq->pq", mi.eri - eri)
        assert np.abs(h1 - (mi.h1 - reorder)).max() <= 1e-12, name
        worst_dropped = max(worst_dropped, dropped)
    assert (worst_dropped > 1e-8) == (tol > 1e-8)  # the loose tol truncates


def test_one_body_group_diagonalizes(refs):
    si, t, eri, _ = _factorized(refs, "h3p")
    g0 = one_body_group(t, eri)
    corr = -0.5 * np.einsum("prrq->pq", eri)
    spatial = t + corr
    back = g0.rotation @ np.diag(g0.linear) @ g0.rotation.T
    assert np.abs(back - spatial).max() < 1e-10
    assert g0.weight == 0.0 and not g0.factor.any()


def test_groups_compare_and_hash_by_identity(refs):
    # as for the integral records: a generated __eq__ on arrays would raise
    _, t, eri, _ = _factorized(refs, "h3p")
    g0, twin = one_body_group(t, eri), one_body_group(t, eri)
    assert g0 == g0
    assert g0 != twin
    assert len({g0, twin}) == 2


def test_two_body_requires_positive_tol(refs):
    _, _, eri, _ = _factorized(refs, "h2")
    with pytest.raises(ValueError):
        factor_supermatrix(eri, 0.0)


@pytest.mark.parametrize("molecule", ["h2", "h4"])
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**16 - 1))
def test_coefficient_vector_agrees_with_callable(refs, molecule, bits):
    si, _, _, groups = _factorized(refs, molecule)
    n = si.n_spin
    idx = bits % (1 << n)
    occ = np.array([(idx >> (n - 1 - q)) & 1 for q in range(n)])
    for g in groups:
        coeff = group_expectation_coefficients(g)
        vec = coefficient_vector(g, n)
        assert abs(coeff(occ) - vec[idx]) < 1e-12


def test_quadratic_diagonal_contributes_linearly(refs):
    # occupations are idempotent, so d_pp enters once per set bit
    _, _, _, groups = _factorized(refs, "h2")
    g = groups[1]
    occ = np.array([1, 0, 0, 0])
    expected = 0.5 * g.weight * g.factor[0] ** 2
    assert abs(group_expectation_coefficients(g)(occ) - expected) < 1e-14
