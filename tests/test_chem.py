import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm, expm_frechet

from conftest import load_point
from omp2sim.chem import (
    ActiveSpaceSpec,
    FcidumpError,
    MolecularIntegrals,
    build_perturbation,
    expm_antisymmetric,
    expm_antisymmetric_adjoint,
    freeze_active_space,
    orbital_energies,
    parse_fcidump,
    spin_orbitalize,
)
from omp2sim.oracle import fixture_path, hartree_fock_energy

MINIMAL = """&FCI NORB=2,NELEC=2,MS2=0,
 ORBSYM=1,1,
 ISYM=1,
&END
  7.0000000000000000E-01   1   1   1   1
  2.0000000000000000E-01   2   1   1   1
  6.0000000000000000E-01   2   2   1   1
  3.0000000000000000E-01   2   1   2   1
  5.5000000000000000E-01   2   2   2   1
  6.5000000000000000E-01   2   2   2   2
 -1.2000000000000000E+00   1   1   0   0
 -3.0000000000000000E-01   2   1   0   0
 -9.0000000000000000E-01   2   2   0   0
  5.0000000000000000E-01   0   0   0   0
"""


def test_parse_minimal_text():
    mi = parse_fcidump(MINIMAL)
    assert mi.n_spatial == 2
    assert mi.n_electrons == 2
    assert mi.e_core == 0.5
    assert mi.h1[0, 0] == -1.2
    assert mi.h1[0, 1] == mi.h1[1, 0] == -0.3
    # one record fans out to all 8 permutation slots
    assert mi.eri[1, 0, 0, 0] == 0.2
    assert mi.eri[0, 1, 0, 0] == 0.2
    assert mi.eri[0, 0, 1, 0] == 0.2
    assert mi.eri[0, 0, 0, 1] == 0.2
    assert mi.eri[1, 0, 1, 0] == 0.3
    assert mi.eri[0, 1, 1, 0] == 0.3


def test_parse_slash_terminator():
    text = MINIMAL.replace("&END", " /")
    mi = parse_fcidump(text)
    assert mi.n_spatial == 2


def test_parse_packaged_fixture():
    mi = parse_fcidump(fixture_path("h2_1.4.fcidump"))
    assert mi.n_spatial == 2
    assert mi.n_electrons == 2
    assert mi.e_core > 0.0
    assert np.abs(mi.h1 - mi.h1.T).max() < 1e-14


def test_array_records_compare_and_hash_by_identity():
    # a generated __eq__ would compare the arrays and raise; records of
    # arrays are equal only to themselves, and hash by identity
    path = fixture_path("h2_1.4.fcidump")
    mi = parse_fcidump(path)
    for record, twin in ((mi, parse_fcidump(path)), (spin_orbitalize(mi), spin_orbitalize(mi))):
        assert record == record
        assert record != twin
        assert len({record, twin}) == 2


def test_parse_rejects_missing_header():
    with pytest.raises(FcidumpError):
        parse_fcidump("&FCI NELEC=2,MS2=0,\n&END\n 0.0 0 0 0 0\n")


def test_parse_rejects_garbage_record():
    with pytest.raises(FcidumpError) as err:
        parse_fcidump(MINIMAL + " not a number 1 1 1 1\n")
    assert "line" in str(err.value)


def test_parse_rejects_conflicting_duplicates():
    text = MINIMAL + "  9.9000000000000000E-01   2   1   1   1\n"
    with pytest.raises(FcidumpError):
        parse_fcidump(text)


def test_parse_rejects_odd_electrons():
    with pytest.raises(FcidumpError):
        parse_fcidump(MINIMAL.replace("NELEC=2", "NELEC=3"))


@pytest.mark.parametrize(
    "header,match",
    [
        ("NORB=-1,NELEC=2", "NORB must be at least 1"),
        ("NORB=0,NELEC=2", "NORB must be at least 1"),
        ("NORB=1,NELEC=4", "n_electrons must lie in 1..2"),
        ("NORB=2,NELEC=0", "n_electrons must lie in 1..4"),
        ("NORB=2,NELEC=-2", "n_electrons must lie in 1..4"),
        ("NORB=2-1,NELEC=2", "must be integers"),
    ],
)
def test_parse_rejects_impossible_counts(header, match):
    with pytest.raises(FcidumpError, match=match):
        parse_fcidump(f"&FCI {header},MS2=0,\n&END\n")


@pytest.mark.parametrize("field", ["h1", "eri", "e_core"])
def test_integrals_must_be_finite(field):
    mi = parse_fcidump(MINIMAL)
    fields = dict(
        n_spatial=2, e_core=mi.e_core, h1=mi.h1.copy(), eri=mi.eri.copy(), n_electrons=2
    )
    if field == "e_core":
        fields["e_core"] = float("inf")
    else:
        fields[field].flat[0] = np.nan  # diagonal, so every symmetry check still passes
    with pytest.raises(ValueError, match="finite"):
        MolecularIntegrals(**fields)


@pytest.mark.parametrize("value", ["1.0000001e4", "-1e300"])
def test_parse_rejects_oversized_integrals(value):
    # far above any molecule's integrals; such values overflowed the energy to nan
    text = MINIMAL.replace("-1.2000000000000000E+00", value)
    with pytest.raises(FcidumpError, match="must not exceed 10000"):
        parse_fcidump(text)


_H3P = parse_fcidump(fixture_path("h3p_2.0.fcidump"))


@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
def test_spin_selection_rules(p, q, r, s):
    si = spin_orbitalize(_H3P)
    val = si.v2s(p, q, r, s)
    same_ps = (p - 1) % 2 == (s - 1) % 2
    same_qr = (q - 1) % 2 == (r - 1) % 2
    if not (same_ps and same_qr):
        assert val == 0.0
    else:
        mp, mq, mr, ms = ((x - 1) // 2 for x in (p, q, r, s))
        assert val == _H3P.eri[mp, ms, mq, mr]


def test_spin_orbitalize_shapes():
    mi = parse_fcidump(MINIMAL)
    si = spin_orbitalize(mi)
    assert si.n_spin == 4
    assert np.allclose(si.h1s, np.kron(mi.h1, np.eye(2)))


def test_orbital_energies_match_reference(refs):
    for molecule in refs.molecules:
        pt = refs.molecules[molecule].points[0]
        mi, _ = load_point(refs, molecule, pt.distance_bohr)
        si = spin_orbitalize(mi)
        eps = orbital_energies(si, mi.n_electrons)
        assert np.allclose(eps[0::2], pt.orbital_energies, atol=1e-9)
        assert np.allclose(eps[1::2], pt.orbital_energies, atol=1e-9)


def _orbital_energies_one_at_a_time(mi):
    """eps_p = h_pp + sum over the occupied spatial i of [2 (pp|ii) - (pi|ip)], by loops."""
    eps = []
    for p in range(mi.n_spatial):
        value = mi.h1[p, p]
        for i in range(mi.n_electrons // 2):
            value += 2.0 * mi.eri[p, p, i, i] - mi.eri[p, i, i, p]
        eps.append(value)
    return np.array(eps)


def test_orbital_energies_match_a_plain_loop():
    for path in sorted(fixture_path("h2_1.4.fcidump").parent.glob("*.fcidump")):
        mi = parse_fcidump(path)
        eps = orbital_energies(spin_orbitalize(mi), mi.n_electrons)
        expected = np.repeat(_orbital_energies_one_at_a_time(mi), 2)
        assert np.abs(eps - expected).max() <= 1e-12, path.name


def test_orbital_energies_need_a_closed_shell():
    with pytest.raises(ValueError, match="even n_electrons"):
        orbital_energies(spin_orbitalize(_H3P), 3)


def test_orbital_energies_warn_out_of_aufbau_order():
    mi = MolecularIntegrals(
        n_spatial=2, e_core=0.0, h1=np.diag([1.0, -1.0]), eri=np.zeros((2, 2, 2, 2)),
        n_electrons=2,
    )
    with pytest.warns(UserWarning, match="not aufbau ordered"):
        eps = orbital_energies(spin_orbitalize(mi), 2)
    assert np.array_equal(eps, [1.0, 1.0, -1.0, -1.0])


def test_freeze_active_space_preserves_hf(refs):
    pt = refs.molecules["lih"].points[5]
    full = parse_fcidump(fixture_path(pt.fcidump))
    e_full = hartree_fock_energy(spin_orbitalize(full), full.e_core, full.n_electrons)
    active = freeze_active_space(full, refs.molecules["lih"].active_space)
    assert active.n_spatial == 3
    assert active.n_electrons == 2
    e_active = hartree_fock_energy(
        spin_orbitalize(active), active.e_core, active.n_electrons
    )
    assert abs(e_full - e_active) < 1e-10
    assert abs(e_full - pt.e_hf) < 1e-9


def test_active_space_validation():
    with pytest.raises(ValueError):
        ActiveSpaceSpec(frozen_occupied=(0,), deleted_virtual=())
    with pytest.raises(ValueError):
        ActiveSpaceSpec(frozen_occupied=(1,), deleted_virtual=(1,))


def test_build_perturbation_at_zero():
    mi = parse_fcidump(fixture_path("h2_1.4.fcidump"))
    eps = orbital_energies(spin_orbitalize(mi), 2)[0::2]
    t = build_perturbation(mi.h1, eps, np.eye(2))
    assert np.array_equal(t, mi.h1 - np.diag(eps))


def test_build_perturbation_rejects_a_bad_rotation():
    mi = parse_fcidump(fixture_path("h2_1.4.fcidump"))
    eps = orbital_energies(spin_orbitalize(mi), 2)[0::2]
    for u, e in ((np.ones((2, 2)), eps), (np.eye(4), eps), (np.eye(2), np.ones(4))):
        with pytest.raises(ValueError):
            build_perturbation(mi.h1, e, u)


@settings(max_examples=25)
@given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
def test_perturbation_trace_invariant(a, b):
    # u diag(eps) u^T is a similarity transform, so the trace of T is fixed
    mi = parse_fcidump(fixture_path("h3p_2.4.fcidump"))
    eps = orbital_energies(spin_orbitalize(mi), 2)[0::2]
    kappa = np.zeros((3, 3))
    kappa[0, 1] = a
    kappa[0, 2] = b
    t = build_perturbation(mi.h1, eps, expm_antisymmetric(kappa - kappa.T))
    t0 = build_perturbation(mi.h1, eps, np.eye(3))
    assert abs(np.trace(t) - np.trace(t0)) < 1e-10


def _antisymmetric(n: int, norm: float, seed: int) -> np.ndarray:
    """A random real antisymmetric n x n matrix of spectral norm `norm` (0 for n = 1)."""
    a = np.random.default_rng(seed).normal(size=(n, n))
    kappa = a - a.T
    size = np.linalg.norm(kappa, 2)
    return kappa * (norm / size) if size else kappa


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.floats(0.0, 10.0), st.integers(0, 2**32 - 1))
@example(2, 8.5, 0)
def test_expm_antisymmetric_matches_mpmath(n, norm, seed):
    # the reference is exp(kappa) in 30-digit arithmetic: scipy's expm is up
    # to 1.4e-13 off at these norms (n = 2, norm 8.5, seed 0, against the
    # exact rotation), more than the tolerance
    kappa = _antisymmetric(n, norm, seed)
    with mpmath.workdps(30):
        exact = np.array(mpmath.expm(mpmath.matrix(kappa.tolist())).tolist(), dtype=float)
    assert np.abs(expm_antisymmetric(kappa) - exact).max() <= 1e-13


def test_expm_antisymmetric_of_zero_is_exactly_identity():
    for n in range(1, 9):
        assert np.array_equal(expm_antisymmetric(np.zeros((n, n))), np.eye(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.floats(0.0, 10.0), st.integers(0, 2**32 - 1))
def test_expm_adjoint_matches_scipy_frechet(n, norm, seed):
    kappa = _antisymmetric(n, norm, seed)
    g = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, (n, n))
    ref = expm_frechet(kappa.T, g, compute_expm=False)
    assert np.abs(expm_antisymmetric_adjoint(kappa, g) - ref).max() <= 1e-12


@pytest.mark.parametrize("copies,angle", [(1, 0.0), (3, 0.0), (3, 0.7), (4, 2.5)])
def test_expm_adjoint_with_degenerate_spectrum(copies, angle):
    # kappa = 0, or block-diagonal copies of one 2x2 generator: every
    # eigenvalue repeats, the case a divided difference must not divide by
    block = np.array([[0.0, angle], [-angle, 0.0]])
    kappa = np.kron(np.eye(copies), block)
    g = np.random.default_rng(copies).normal(size=kappa.shape)
    ref = expm_frechet(kappa.T, g, compute_expm=False)
    assert np.abs(expm_antisymmetric_adjoint(kappa, g) - ref).max() <= 1e-12
    assert np.abs(expm_antisymmetric(kappa) - expm(kappa)).max() <= 1e-13


def _rotation_blocks(angles, odd=False):
    """Block-diagonal 2x2 generators at the given angles, and a zero 1x1
    block after them if odd."""
    m = 2 * len(angles) + odd
    kappa = np.zeros((m, m))
    for k, angle in enumerate(angles):
        kappa[2 * k, 2 * k + 1], kappa[2 * k + 1, 2 * k] = angle, -angle
    return kappa


@pytest.mark.parametrize(
    "angles,odd", [((0.7, 0.7 + 1e-9), False), ((0.7, 1.9), True), ((0.7, 0.7), True)]
)
def test_expm_adjoint_with_near_degenerate_spectrum(angles, odd):
    # eigenvalues 1e-9 apart, and an odd size with a zero eigenvalue: in the
    # real form each eigenvalue appears twice, so eigh's basis inside every
    # pair is arbitrary, and the projectors must not depend on it
    kappa = _rotation_blocks(angles, odd)
    g = np.random.default_rng(len(kappa)).normal(size=kappa.shape)
    ref = expm_frechet(kappa.T, g, compute_expm=False)
    assert np.abs(expm_antisymmetric_adjoint(kappa, g) - ref).max() <= 1e-12
    assert np.abs(expm_antisymmetric(kappa) - expm(kappa)).max() <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 5])
def test_expm_antisymmetric_reads_only_the_lower_triangle(n):
    kappa = _antisymmetric(n, 1.3, n)
    junk = kappa.copy()
    junk[np.triu_indices(n)] = np.random.default_rng(n).normal(size=n * (n + 1) // 2)
    assert np.array_equal(expm_antisymmetric(junk), expm_antisymmetric(kappa))
    g = np.random.default_rng(n + 1).normal(size=(n, n))
    assert np.array_equal(expm_antisymmetric_adjoint(junk, g), expm_antisymmetric_adjoint(kappa, g))
