import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.linalg import expm
from scipy.optimize import minimize

from conftest import load_point
from omp2sim.chem import (
    MolecularIntegrals,
    build_perturbation,
    freeze_active_space,
    parse_fcidump,
    spin_orbitalize,
)
from helpers import dense_perturbation
from omp2sim.circuits import Circuit, compile_orbital_rotation, double_excitation, prep_reference
from omp2sim.lowrank import one_body_group
from omp2sim import circuits, jw, lowrank, omp2, simulator
from omp2sim.omp2 import (
    EnergyBreakdown,
    Estimator,
    EstimatorConfig,
    ThetaParams,
    enumerate_doubles,
    pair_indices,
)
from omp2sim.oracle import (
    canonical_mp2,
    circuit_unitary,
    fci_energy,
    fixture_path,
    hartree_fock_energy,
)
from omp2sim.simulator import (
    NoiseModel,
    apply_circuit,
    load_noise_presets,
    number_sector,
    rotate_determinants,
    run,
)


@given(st.integers(1, 4), st.integers(1, 4))
def test_pair_count(n_occ_pairs, n_virt_pairs):
    n_electrons = 2 * n_occ_pairs
    n_spin = n_electrons + 2 * n_virt_pairs
    pairs = pair_indices(n_spin, n_electrons)
    assert len(pairs) == n_occ_pairs * n_virt_pairs
    for p, q in pairs:
        assert p % 2 == 1 and q % 2 == 1
        assert p <= n_electrons < q


@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_theta_matrix_antisymmetric(n_occ_pairs, n_virt_pairs, data):
    n_electrons = 2 * n_occ_pairs
    n_spin = n_electrons + 2 * n_virt_pairs
    n_par = n_occ_pairs * n_virt_pairs
    values = tuple(
        data.draw(st.floats(-1, 1, allow_nan=False, width=32)) for _ in range(n_par)
    )
    theta = ThetaParams(n_spin, n_electrons, values)
    mat = theta.to_matrix()
    assert mat.shape == (n_spin // 2, n_spin // 2)
    assert np.array_equal(mat, -mat.T)
    for (p, q), v in zip(theta.pairs, values):
        assert mat[(p - 1) // 2, (q - 1) // 2] == pytest.approx(v)


def test_theta_zeros_and_update():
    theta = ThetaParams.zeros(4, 2)
    assert theta.values == (0.0,)
    theta2 = theta.with_values((0.3,))
    assert theta2.values == (0.3,)
    assert theta.values == (0.0,)
    with pytest.raises(ValueError):
        theta.with_values((1.0, 2.0))


def test_theta_of_another_problem_is_rejected():
    # H3+ is 6 qubits with 2 electrons; a 4-electron theta has as many angles
    est = Estimator(parse_fcidump(fixture_path("h3p_2.4.fcidump")))
    theta = ThetaParams(6, 4, (0.3, 0.2))
    assert len(theta.values) == len(ThetaParams.zeros(6, 2).values)
    for evaluate in (est.mp2_energy, est.measurement_circuits):
        with pytest.raises(ValueError, match=r"\(6, 4\).*\(6, 2\)"):
            evaluate(theta)
    assert est.n_evaluations == 0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_theta_rejects_non_finite_values(value):
    # a non-finite angle used to reach the eigensolver of expm_antisymmetric
    # and fail there with LinAlgError
    with pytest.raises(ValueError, match=f"finite, got {value}"):
        ThetaParams(6, 2, (0.1, value))
    with pytest.raises(ValueError, match=f"finite, got {value}"):
        ThetaParams.zeros(6, 2).with_values((value, 0.0))


@pytest.mark.parametrize("mode", ["exact", "shots"])
@pytest.mark.parametrize("maxiter", [-1, 2.5, "3", None, True])
def test_optimize_rejects_a_bad_maxiter(mode, maxiter):
    # maxiter=-1 used to end exact mode in UnboundLocalError, and shots mode
    # ran two evaluations; maxiter=True, a numbers.Integral, ran one iteration
    mi = parse_fcidump(fixture_path("h2_1.4.fcidump"))
    est = Estimator(mi, EstimatorConfig(mode=mode, shots=100))
    message = f"maxiter must be a non-negative integer, got {maxiter!r}"
    with pytest.raises(ValueError, match=message):
        est.optimize(maxiter=maxiter)
    assert est.n_evaluations == 0


@pytest.mark.parametrize(
    "cfg",
    [EstimatorConfig(), EstimatorConfig(mode="shots", shots=500, seed=3)],
    ids=["exact", "shots"],
)
def test_optimize_accepts_zero_iterations(cfg):
    # shots mode used to evaluate the whole initial simplex and return its
    # best vertex, theta = (0.00025, 0.0), after one iteration
    est = Estimator(parse_fcidump(fixture_path("h3p_2.4.fcidump")), cfg)
    theta, bd = est.optimize(maxiter=np.int64(0))
    assert bd.diagnostics["n_iterations"] == 0 and est.n_evaluations == 1
    assert theta == ThetaParams.zeros(est.n_qubits, est.n_electrons)


def test_enumerate_doubles_counts():
    # C(n_occ, 2) * C(n_virt, 2) in spin orbitals
    assert len(enumerate_doubles(4, 2)) == 1
    assert len(enumerate_doubles(6, 2)) == 6
    assert len(enumerate_doubles(8, 4)) == 36
    doubles = enumerate_doubles(6, 2)
    assert doubles[:2].tolist() == [[1, 2, 3, 4], [1, 2, 3, 5]]
    for i, j, a, b in doubles:
        assert i < j <= 2 < a < b


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(mode="bogus")
    with pytest.raises(ValueError):
        EstimatorConfig(mode="exact", noise=NoiseModel(0.0, 0.0, 0.1))
    with pytest.raises(ValueError):
        EstimatorConfig(mode="shots", shots=0)
    with pytest.raises(ValueError, match="trajectories must be positive"):
        EstimatorConfig(trajectories=0)
    with pytest.raises(ValueError, match="postselection requires shots mode"):
        EstimatorConfig(mode="exact", postselect=True)
    with pytest.raises(ValueError, match="seed"):
        EstimatorConfig(mode="shots", seed=-1)
    EstimatorConfig(mode="shots", postselect=True)


@pytest.mark.parametrize(
    "field,value",
    [
        ("shots", 1.5),
        ("shots", math.nan),
        ("trajectories", 2.5),
        ("seed", 2.7),
        ("seed", "3"),
        ("shots", True),
        ("trajectories", True),
        ("seed", False),
    ],
)
def test_estimator_config_rejects_non_integral_counts(field, value):
    # shots=1.5 used to fail mid-evaluation in rng.random, seed=2.7 ran as
    # seed 2, and shots=True, a numbers.Integral, ran one shot
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        EstimatorConfig(mode="shots", **{field: value})


def test_estimator_config_accepts_numpy_integers():
    cfg = EstimatorConfig(mode="shots", shots=np.int64(5), trajectories=np.int32(2), seed=np.uint8(3))
    assert (cfg.shots, cfg.trajectories, cfg.seed) == (5, 2, 3)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9])
def test_estimator_config_rejects_bad_truncation_tol(tol):
    # an infinite tolerance drops every two-body factor and returned an energy
    # 1.5 Ha below FCI on H2 with status ok
    with pytest.raises(ValueError, match="truncation_tol"):
        EstimatorConfig(truncation_tol=tol)


@pytest.mark.parametrize(
    "cfg", [EstimatorConfig(), EstimatorConfig(mode="shots", shots=100)], ids=["exact", "shots"]
)
def test_filled_shell_optimize_is_theta_zero(cfg):
    # NORB=2, NELEC=4: no virtual orbitals, so no rotation angle to optimize
    mi = MolecularIntegrals(
        n_spatial=2, e_core=0.0, h1=np.diag([-1.0, -0.5]), eri=np.zeros((2, 2, 2, 2)),
        n_electrons=4,
    )
    est = Estimator(mi, cfg)
    theta, bd = est.optimize()
    assert theta.values == ()
    assert bd.diagnostics["converged"] is True
    assert bd.diagnostics["n_iterations"] == 0
    assert bd.total == pytest.approx(-3.0)


@pytest.mark.parametrize(
    "molecule,distance",
    [("h2", 1.4), ("h3p", 2.4), ("lih", 3.1), ("h4", 1.8)],
)
def test_theta_zero_recovers_reference_energies(refs, molecule, distance):
    mi, pt = load_point(refs, molecule, distance)
    est = Estimator(mi)
    bd = est.mp2_energy(ThetaParams.zeros(est.n_qubits, mi.n_electrons))
    assert bd.e0 + bd.e1 + mi.e_core == pytest.approx(pt.e_hf, abs=1e-8)
    assert bd.total + mi.e_core == pytest.approx(pt.e_mp2, abs=1e-8)
    assert bd.variance == 0.0


def test_full_space_lih_matches_canonical_mp2():
    # LiH with all six orbitals: 12 qubits, no active space
    mi = parse_fcidump(fixture_path("lih_3.1.fcidump"))
    est = Estimator(mi)
    assert est.n_qubits == 12
    bd = est.mp2_energy(ThetaParams.zeros(est.n_qubits, mi.n_electrons))
    si = spin_orbitalize(mi)
    e_hf = hartree_fock_energy(si, mi.e_core, mi.n_electrons)
    assert abs(bd.e2 - canonical_mp2(si, est.eps, mi.n_electrons)) <= 1e-8
    assert abs(bd.e0 + bd.e1 + mi.e_core - e_hf) <= 1e-8
    # second order lands between the variational FCI floor and HF
    e_fci = fci_energy(si, mi.e_core, mi.n_electrons)
    assert e_fci <= bd.total + mi.e_core <= e_hf


@settings(max_examples=6, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_residual_matches_dense_matrix_element(refs, seed):
    mi, _ = load_point(refs, "h3p", 1.8)
    rng = np.random.default_rng(seed)
    est = Estimator(mi)
    theta = ThetaParams.zeros(est.n_qubits, mi.n_electrons)
    theta = theta.with_values(tuple(rng.uniform(-0.4, 0.4, len(theta.values))))
    bd = est.mp2_energy(theta)

    n = est.n_qubits
    u = expm(theta.to_matrix())
    t = build_perturbation(mi.h1, est.eps[0::2], u)
    v_dense = dense_perturbation(np.kron(t, np.eye(2)), spin_orbitalize(mi))
    prep = prep_reference(n, mi.n_electrons)
    u_circ = compile_orbital_rotation(np.kron(u, np.eye(2)))
    base = circuit_unitary(prep)[:, 0]
    rotated = circuit_unitary(u_circ)
    ref = rotated @ base
    for (i, j, a, b), r_measured in zip(est.doubles.tolist(), bd.diagnostics["residuals"]):
        exc = Circuit(n, double_excitation(i, j, a, b, np.pi / 2))
        excited = rotated @ circuit_unitary(exc) @ base
        r_dense = np.real(np.vdot(ref, v_dense @ excited))
        assert r_measured == pytest.approx(r_dense, abs=1e-8)


def test_optimize_h2_theta_stays_zero(refs):
    mi, pt = load_point(refs, "h2", 1.4)
    est = Estimator(mi)
    theta, bd = est.optimize()
    assert abs(theta.values[0]) < 1e-6
    assert bd.total + mi.e_core == pytest.approx(pt.e_omp2, abs=1e-8)
    assert bd.diagnostics["converged"]


def test_optimize_improves_on_mp2(refs):
    mi, pt = load_point(refs, "h4", 2.0)
    est = Estimator(mi)
    _, bd = est.optimize()
    assert bd.total + mi.e_core == pytest.approx(pt.e_omp2, abs=1e-6)
    assert bd.total + mi.e_core <= pt.e_mp2 + 1e-10
    assert bd.diagnostics["n_iterations"] > 0


def _rotated_column_energies(est, u):
    """Every column's energy from the noiseless-shots path: the probe
    determinants rotated in the sector, summed against each group's
    coefficients."""
    diagonal = np.zeros(est._probes.states.size)
    cross = np.zeros_like(diagonal)
    for coeff, x in est._rotated_determinants(u):
        diagonal += np.einsum("i,ij,ij->j", coeff, x, x)
        cross += np.einsum("i,ij->j", coeff * x[:, 0], x)
    c, s, d = est._probes.cos, est._probes.sin, est._probes.det
    return c**2 * diagonal[0] + s**2 * diagonal[d] + 2.0 * c * s * cross[d]


def _sector_reference(est, theta):
    """What `_assemble` makes of each column's exact expectation, sum coeff x^2
    over the probe determinants rotated in the sector (rotate_determinants)."""
    cols = _rotated_column_energies(est, omp2.expm_antisymmetric(theta.to_matrix()))
    return est._assemble(*est._column_residuals(cols, np.zeros_like(cols)))


def _assert_matches_sector_reference(est, theta, tol=1e-12):
    """The exact breakdown's e1, residuals and e2 against `_sector_reference`."""
    bd, ref = est.mp2_energy(theta), _sector_reference(est, theta)
    assert abs(bd.e1 - ref.e1) <= tol
    assert abs(bd.e2 - ref.e2) <= tol
    r, r_ref = bd.diagnostics["residuals"], ref.diagnostics["residuals"]
    assert r.dtype == r_ref.dtype == float and r.shape == r_ref.shape == (len(est.doubles),)
    assert np.abs(r - r_ref).max(initial=0.0) <= tol
    return bd


def _random_theta(est, rng, scale=0.5):
    theta = ThetaParams.zeros(est.n_qubits, est.n_electrons)
    return theta.with_values(rng.uniform(-scale, scale, len(theta.values)))


@pytest.mark.parametrize(
    "molecule,distance,tol",
    [
        ("h2", 1.4, 1e-12),
        ("h3p", 2.4, 1e-12),
        ("h4", 1.8, 1e-12),
        ("lih", 3.1, 1e-12),
        # a coarse truncation changes the measured operator, not just its groups
        ("h4", 2.6, 1e-3),
        ("h4", 2.6, 5e-2),
    ],
)
def test_closed_form_equals_circuit_energy(refs, molecule, distance, tol):
    mi, _ = load_point(refs, molecule, distance)
    est = Estimator(mi, EstimatorConfig(truncation_tol=tol))
    rng = np.random.default_rng(17)
    for _ in range(3):
        _assert_matches_sector_reference(est, _random_theta(est, rng))


def _synthetic_integrals(n_orb, n_electrons, seed, n_factors=3):
    """Random integrals with aufbau-ordered orbital energies; eri = sum_k L_k (x) L_k
    over n_factors symmetric L_k has the 8-fold symmetry of real orbitals."""
    rng = np.random.default_rng(seed)

    def symmetric(scale):
        a = rng.normal(scale=scale, size=(n_orb, n_orb))
        return a + a.T

    h1 = np.diag(np.linspace(-2.0, 1.0, n_orb)) + symmetric(0.02)
    eri = sum(np.multiply.outer(l, l) for l in (symmetric(0.1) for _ in range(n_factors)))
    return MolecularIntegrals(n_orb, 0.0, h1, eri, n_electrons)


def test_fourteen_qubits_in_bounded_memory(monkeypatch):
    # 7 orbitals, 6 electrons: exact mode holds the 7^4 measured integrals
    # and the 420 doubles, no sector row
    import tracemalloc

    monkeypatch.setattr(omp2, "MAX_QUBITS", 14)
    mi = _synthetic_integrals(7, 6, seed=5)
    tracemalloc.start()
    try:
        est = Estimator(mi)
        theta = _random_theta(est, np.random.default_rng(2), scale=0.3)
        est.mp2_energy(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.n_qubits == 14
    _assert_matches_sector_reference(est, theta)
    assert peak <= 50e6, f"peak {peak / 1e6:.0f} MB"


def test_twenty_qubit_optimize_in_bounded_memory(monkeypatch):
    # 10 orbitals, 10 electrons: 2025 doubles and about 30 evaluations, each
    # kept by optimize with its residuals as two arrays over the doubles
    import tracemalloc

    monkeypatch.setattr(omp2, "MAX_QUBITS", 20)
    est = Estimator(_synthetic_integrals(10, 10, seed=5))
    tracemalloc.start()
    try:
        _, bd = est.optimize()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (est.n_qubits, len(est.doubles)) == (20, 2025)
    assert bd.diagnostics["converged"]
    assert peak <= 4e6, f"peak {peak / 1e6:.1f} MB"


def test_closed_form_with_every_double_skipped():
    # no integrals: every denominator is 0, so every double is dropped
    mi = parse_fcidump("&FCI NORB=3,NELEC=2,MS2=0,\n&END\n")
    with pytest.warns(UserWarning, match="degenerate excitation denominators"):
        est = Estimator(mi)
    theta = ThetaParams(6, 2, (0.3, -0.2))
    bd = _assert_matches_sector_reference(est, theta)
    assert bd.e2 == 0.0 and bd.diagnostics["skipped_doubles"] == len(est.doubles)
    assert np.isfinite(bd.diagnostics["gradient"]).all()


def test_every_group_dropped(refs):
    # a truncation tol above every supermatrix eigenvalue leaves no two-body
    # group: the energy is group 0's one-body remainder alone
    mi, _ = load_point(refs, "h4", 2.6)
    with pytest.warns(UserWarning, match="drops every two-body group"):
        est = Estimator(mi, EstimatorConfig(truncation_tol=1e6))
    assert est.n_groups == 1
    bd = _assert_matches_sector_reference(est, ThetaParams.zeros(est.n_qubits, est.n_electrons))
    assert abs(bd.total - -7.170077277603959) <= 1e-12
    _, bd = est.optimize()
    assert bd.diagnostics["converged"] and math.isfinite(bd.total)


def test_sz_changing_doubles_have_no_residual(refs):
    # U(theta) and every measurement rotation are kron(u, I_2), which keeps
    # S_z, so <ref|V|D> = 0 at every theta for a double D that changes it:
    # those are the doubles with neither spin mask
    rng = np.random.default_rng(29)
    paths = sorted(Path(fixture_path("h2_1.4.fcidump")).parent.glob("*.fcidump"))
    counts = {}
    for path in paths:
        est = Estimator(parse_fcidump(path))
        beta = (est.doubles - 1) % 2
        changes_sz = beta[:, :2].sum(axis=1) != beta[:, 2:].sum(axis=1)
        assert np.array_equal(changes_sz, ~(est._direct | est._exchange))
        counts[path.name] = (int(changes_sz.sum()), len(est.doubles))
        for theta in _thetas(est, rng):
            bd, ref = est.mp2_energy(theta), _sector_reference(est, theta)
            assert np.all(bd.diagnostics["residuals"][changes_sz] == 0.0)
            assert bd.diagnostics["sz_changing_doubles"] == changes_sz.sum()
            assert np.abs(ref.diagnostics["residuals"][changes_sz]).max(initial=0.0) <= 1e-14
    assert counts["h4_2.6.fcidump"] == (18, 36)
    assert counts["lih_3.1.fcidump"] == (92, 168)


def _packaged_problems(refs):
    """(name, integrals) of every packaged fixture as dumped, then of each LiH
    fixture in the active space the CLI freezes."""
    paths = sorted(Path(fixture_path("h2_1.4.fcidump")).parent.glob("*.fcidump"))
    problems = [(path.name, parse_fcidump(path)) for path in paths]
    lih = refs.molecules["lih"]
    problems += [
        (f"{pt.fcidump} active", load_point(refs, "lih", pt.distance_bohr)[0]) for pt in lih.points
    ]
    assert len(problems) == 69 + 20
    return problems


def test_alpha_and_beta_orbital_energies_are_equal(refs):
    for name, mi in _packaged_problems(refs):
        est = Estimator(mi)
        assert np.array_equal(est.eps[0::2], est.eps[1::2]), name


def test_doubles_read_the_one_delta_table(refs):
    # h1 = diag(-1, 0, 0, 1) and no eri: 2 eps_1 = 2 eps_2 makes the doubles
    # (1, 1) -> (2, 2) degenerate, and no others
    degenerate = MolecularIntegrals(
        n_spatial=4, e_core=0.0, h1=np.diag([-1.0, 0.0, 0.0, 1.0]), eri=np.zeros((4,) * 4),
        n_electrons=4,
    )
    with pytest.warns(UserWarning, match="degenerate excitation denominators"):
        est = Estimator(degenerate)
    assert 0 < est._skip.sum() < len(est.doubles)
    for name, est in [("degenerate", est)] + [
        (name, Estimator(mi)) for name, mi in _packaged_problems(refs)
    ]:
        i, j, a, b = est._orbitals
        table = est._pair_deltas[i, a, j, b]
        finite = np.isfinite(table)
        assert np.array_equal(est._deltas[finite], table[finite]), name
        assert np.array_equal(est._skip, ~finite), name


def test_large_angles_match_the_closed_form():
    # angles of order 1e5 rad on full-space LiH: both spin channels must
    # rotate by the one spatial u however much rounding exp(kappa) carries
    est = Estimator(parse_fcidump(fixture_path("lih_3.1.fcidump")))
    theta0 = ThetaParams.zeros(est.n_qubits, est.n_electrons)
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta = theta0.with_values(rng.normal(size=len(theta0.values)) * 1e5)
        _assert_matches_sector_reference(est, theta)


@pytest.mark.parametrize("molecule,distance", [("h3p", 2.4), ("h4", 2.6)])
def test_gradient_matches_circuit_central_differences(refs, molecule, distance):
    mi, _ = load_point(refs, molecule, distance)
    est = Estimator(mi)
    theta = _random_theta(est, np.random.default_rng(3), scale=0.3)
    grad = est.mp2_energy(theta).diagnostics["gradient"]
    assert grad.shape == (len(theta.values),)
    step = 1e-5
    for k in range(len(theta.values)):
        x = np.array(theta.values)
        x[k] += step
        e_plus = est.mp2_energy(theta.with_values(x)).total
        x[k] -= 2.0 * step
        e_minus = est.mp2_energy(theta.with_values(x)).total
        assert abs(grad[k] - (e_plus - e_minus) / (2.0 * step)) <= 1e-7


def test_exact_optimize_needs_few_evaluations(refs):
    mi, pt = load_point(refs, "h4", 2.6)
    _, bd = Estimator(mi).optimize()
    assert bd.diagnostics["converged"]
    assert bd.diagnostics["n_evaluations"] <= 15
    assert bd.total + mi.e_core == pytest.approx(pt.e_omp2, abs=1e-6)


def test_exact_optimize_eigendecomposes_real_symmetric_input_once_per_evaluation(
    refs, monkeypatch
):
    # exp(kappa) and its gradient pull-back share one real eigendecomposition
    # per evaluation; the set-up adds the supermatrix's
    inputs = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        inputs.append(np.array(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    mi, _ = load_point(refs, "h4", 2.6)
    est = Estimator(mi)
    assert len(inputs) == 1
    _, bd = est.optimize()
    assert bd.diagnostics["n_evaluations"] > 1
    assert len(inputs) == 1 + bd.diagnostics["n_evaluations"]
    for a in inputs:
        assert a.dtype == np.float64 and np.array_equal(a, a.T)


def test_shots_optimize_never_calls_the_gradient(refs, monkeypatch):
    def no_gradient(*args):
        raise AssertionError("shots mode must not use the closed-form gradient")

    monkeypatch.setattr(omp2, "expm_antisymmetric_adjoint", no_gradient)
    mi, _ = load_point(refs, "h2", 1.4)
    cfg = EstimatorConfig(mode="shots", shots=500, seed=4)
    theta, bd = Estimator(mi, cfg).optimize(maxiter=5)
    assert "gradient" not in bd.diagnostics
    postselecting = Estimator(mi, replace(cfg, postselect=True))
    assert "gradient" not in postselecting.mp2_energy(theta).diagnostics
    # the breakdown returned is a fresh evaluation at the optimum on keys of
    # its own, not the stored one, the lowest estimate Nelder-Mead compared;
    # streams are keyed by seed and group, not by the evaluations before
    fresh = Estimator(mi, cfg)
    assert fresh._shots_breakdown(omp2.expm_antisymmetric(theta.to_matrix()), final=True) == bd
    assert fresh.mp2_energy(theta) != bd


def test_optimize_does_not_rerun_the_optimum(refs):
    mi, _ = load_point(refs, "h4", 1.8)
    est = Estimator(mi)
    seen = []
    evaluate = est.mp2_energy

    def spy(theta):
        seen.append(theta.values)
        return evaluate(theta)

    est.mp2_energy = spy
    theta, bd = est.optimize()
    assert seen.count(theta.values) == 1
    assert len(seen) == bd.diagnostics["n_evaluations"]


def _rosenbrock(x):
    """The Rosenbrock function and its gradient."""
    value = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    gradient = [-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]), 200.0 * (x[1] - x[0] ** 2)]
    return value, np.array(gradient)


def test_lbfgs_minimizes_a_convex_quadratic():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6))
    hess = a @ a.T + 0.5 * np.eye(6)
    b = rng.normal(size=6)
    res = omp2._lbfgs(lambda x: (0.5 * x @ hess @ x - b @ x, hess @ x - b), np.zeros(6), 200)
    assert res.success
    assert np.abs(hess @ res.x - b).max() <= 1e-9
    assert np.abs(res.x - np.linalg.solve(hess, b)).max() <= 1e-8


def test_lbfgs_minimizes_rosenbrock():
    res = omp2._lbfgs(_rosenbrock, np.array([-1.2, 1.0]), 200)
    assert res.success
    assert 0 < res.nit < 200
    assert np.abs(res.x - 1.0).max() <= 1e-8


def test_lbfgs_caps_the_trial_step():
    trials = []

    def steep(x):
        trials.append(x.copy())
        return 500.0 * (x - 3.0) @ (x - 3.0), 1000.0 * (x - 3.0)

    res = omp2._lbfgs(steep, np.zeros(3), 200)
    assert res.success
    assert np.abs(res.x - 3.0).max() <= 1e-9
    assert all(np.abs(b - a).max() <= 1.0 for a, b in zip(trials, trials[1:]))


def test_lbfgs_reports_running_out_of_iterations(refs):
    res = omp2._lbfgs(_rosenbrock, np.array([-1.2, 1.0]), 3)
    assert not res.success
    assert res.nit == 3
    assert "3 iterations" in res.message
    mi, _ = load_point(refs, "h4", 2.6)
    _, bd = Estimator(mi).optimize(maxiter=1)
    assert bd.diagnostics["converged"] is False
    assert bd.diagnostics["n_iterations"] == 1
    assert "1 iterations" in bd.diagnostics["optimizer_message"]


def _rises_at_any_move(x0):
    """f = 0 at x0 and 1 anywhere else, with a gradient of ones that claims
    descent along -1.  No trial step passes, however short: a smooth f would
    let a tiny enough step through within the Armijo slack."""

    def fun(x):
        return (0.0 if np.array_equal(x, x0) else 1.0), np.ones(len(x0))

    return fun


def test_lbfgs_reports_a_line_search_without_decrease(refs, monkeypatch):
    message = "line search found no decrease at max|gradient| 1.0e+00"
    res = omp2._lbfgs(_rises_at_any_move(np.zeros(3)), np.zeros(3), 200)
    assert (res.success, res.nit, res.message) == (False, 0, message)
    mi, _ = load_point(refs, "h4", 2.6)
    est = Estimator(mi)
    fun = _rises_at_any_move(np.zeros(len(ThetaParams.zeros(est.n_qubits, est.n_electrons).values)))

    def mp2_energy(theta):
        value, gradient = fun(np.array(theta.values))
        return EnergyBreakdown(value, 0.0, 0.0, 0.0, {"gradient": gradient})

    monkeypatch.setattr(est, "mp2_energy", mp2_energy)
    _, bd = est.optimize()
    assert bd.diagnostics["converged"] is False
    assert bd.diagnostics["optimizer_message"] == message


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    x0_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)),
    f_seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 1e-4]),
    maxiter=st.integers(1, 300),
)
def test_nelder_mead_matches_scipy(n, x0_seed, f_seed, noise, maxiter):
    # scipy's non-adaptive Nelder-Mead with one more iteration, since its
    # count starts at 1: the same vertices, in the same order
    rng = np.random.default_rng(f_seed)
    a = rng.normal(size=(n, n))
    hess, b, c = a @ a.T + 0.1 * np.eye(n), rng.normal(size=n), rng.normal(size=n)
    x0 = np.zeros(n) if x0_seed is None else np.random.default_rng(x0_seed).normal(size=n)

    def calls_of(minimizer):
        calls = []

        def f(x):
            calls.append(x)
            # noise keyed by x alone, so a vertex evaluated twice reads the same
            jitter = np.random.default_rng([f_seed, *x.view(np.uint32)]).normal()
            return float(0.5 * x @ hess @ x - b @ x + np.cos(c * x).sum() + noise * jitter)

        return minimizer(f), calls

    ours, our_calls = calls_of(lambda f: omp2._nelder_mead(lambda x: (f(x), None), x0, maxiter))
    ref, ref_calls = calls_of(
        lambda f: minimize(
            f,
            x0,
            method="Nelder-Mead",
            options={"maxiter": maxiter + 1, "xatol": 1e-3, "fatol": 1e-6},
        )
    )
    assert np.array_equal(ours.x, ref.x)
    assert len(our_calls) == len(ref_calls) and ours.nit + 1 == ref.nit
    assert ours.success == ref.success
    assert all(np.array_equal(u, v) for u, v in zip(our_calls, ref_calls))
    # each vertex reaches fun as its own array
    assert len({id(x) for x in our_calls}) == len(our_calls)


@pytest.mark.parametrize("molecule,distance", [("h3p", 2.4), ("h4", 2.6), ("lih", 3.1)])
def test_optimize_matches_scipy_lbfgsb(refs, molecule, distance):
    # scipy's L-BFGS-B on the same energy and gradient
    mi, _ = load_point(refs, molecule, distance)
    est = Estimator(mi)
    _, bd = est.optimize()
    theta0 = ThetaParams.zeros(est.n_qubits, est.n_electrons)

    def fun(x):
        bd = est.mp2_energy(theta0.with_values(x))
        return bd.total, bd.diagnostics["gradient"]

    res = minimize(
        fun,
        np.zeros(len(theta0.values)),
        jac=True,
        method="L-BFGS-B",
        options={"ftol": 1e-12, "gtol": 1e-9},
    )
    assert res.success
    assert abs(bd.total - res.fun) <= 1e-10


def _newton_polish(est, theta, steps=4):
    """theta moved by Newton steps on the exact gradient (central-difference Hessian)."""

    def grad(x):
        return est.mp2_energy(theta.with_values(x)).diagnostics["gradient"]

    x = np.array(theta.values)
    for _ in range(steps):
        hess = np.column_stack([(grad(x + e) - grad(x - e)) / 2e-5 for e in 1e-5 * np.eye(x.size)])
        x = x - np.linalg.solve(0.5 * (hess + hess.T), grad(x))
    return theta.with_values(x), np.abs(grad(x)).max()


@pytest.mark.parametrize(
    "molecule,distance", [("h3p", 3.2), ("lih", 4.5), ("h4", 2.6), ("h4", 4.6)]
)
def test_optimize_fixes_the_e1_e2_split(refs, molecule, distance):
    # e1 and e2 are not stationary at the optimum, so they are only as good
    # as theta; the CLI prints both to 1e-10
    mi, _ = load_point(refs, molecule, distance)
    est = Estimator(mi)
    theta, bd = est.optimize()
    theta_ref, g_ref = _newton_polish(est, theta)
    assert g_ref <= 1e-12
    ref = est.mp2_energy(theta_ref)
    assert abs(bd.e1 - ref.e1) <= 1e-9
    assert abs(bd.e2 - ref.e2) <= 1e-9


def test_resource_summary_smallest_case(refs):
    mi, _ = load_point(refs, "h2", 1.4)
    rs = Estimator(mi).resource_summary()
    assert rs.n_qubits == 4
    assert rs.n_parameters == 1
    assert rs.n_doubles == 1
    assert rs.n_groups == 4
    assert rs.circuits_per_evaluation == 12
    assert rs.reference_depth == 24
    assert rs.residual_depth_max == 41


def test_columns_are_lowered_once(refs, monkeypatch):
    # once _column_gates is built, the noisy path and the depth accounting
    # find nothing left to lower: every lower_circuit call returns its argument
    mi, _ = load_point(refs, "h2", 1.4)
    noise = load_noise_presets()["ibm_lima"]
    est = Estimator(mi, EstimatorConfig(mode="shots", shots=8, seed=1, noise=noise, trajectories=2))
    est._column_gates
    original = circuits.lower_circuit
    returned_itself = []

    def spy(c):
        lowered = original(c)
        returned_itself.append(lowered is c)
        return lowered

    for module in (circuits, simulator, omp2):  # wherever it is looked up
        monkeypatch.setattr(module, "lower_circuit", spy)
    est.mp2_energy(ThetaParams.zeros(4, mi.n_electrons))
    est.resource_summary()
    assert returned_itself and all(returned_itself)


def test_shot_estimates_are_reproducible(refs):
    mi, _ = load_point(refs, "h2", 1.4)
    cfg = EstimatorConfig(mode="shots", shots=2000, seed=5)
    theta = ThetaParams.zeros(4, mi.n_electrons)
    bd1 = Estimator(mi, cfg).mp2_energy(theta)
    bd2 = Estimator(mi, cfg).mp2_energy(theta)
    assert bd1 == bd2
    bd3 = Estimator(mi, EstimatorConfig(mode="shots", shots=2000, seed=6)).mp2_energy(theta)
    assert bd1 != bd3


def test_shot_estimate_consistent_with_exact(refs):
    mi, _ = load_point(refs, "h2", 1.4)
    theta = ThetaParams.zeros(4, mi.n_electrons)
    exact = Estimator(mi).mp2_energy(theta)
    cfg = EstimatorConfig(mode="shots", shots=100_000, seed=2)
    noisy = Estimator(mi, cfg).mp2_energy(theta)
    assert noisy.variance > 0.0
    pull = abs(noisy.total - exact.total) / np.sqrt(noisy.variance)
    assert pull < 4.0


def _assert_unbiased(values, exact, what):
    """The mean of values lies within 3 standard errors of exact."""
    values = np.asarray(values)
    stderr = values.std(ddof=1) / math.sqrt(values.size)
    pull = (values.mean() - exact) / stderr
    assert abs(pull) <= 3.0, f"{what}: mean {values.mean():.6f}, exact {exact:.6f}, pull {pull:+.2f}"


@pytest.mark.parametrize("fixture", ["h4_2.6", "lih_3.1"])
def test_shot_energies_are_unbiased(fixture):
    # r^2 overestimates the squared residual by var(r), so sum r^2 / Delta
    # used to sit 5 standard errors low on H4, and six times the exact e2 on
    # full-space LiH (12 qubits), where most doubles change S_z
    mi = parse_fcidump(fixture_path(f"{fixture}.fcidump"))
    theta = ThetaParams.zeros(2 * mi.n_spatial, mi.n_electrons)
    exact = Estimator(mi).mp2_energy(theta)
    runs = [
        Estimator(mi, EstimatorConfig(mode="shots", shots=2000, seed=seed)).mp2_energy(theta)
        for seed in range(1, 101)
    ]
    _assert_unbiased([bd.e2 for bd in runs], exact.e2, "e2")
    _assert_unbiased([bd.total for bd in runs], exact.total, "e_total")


def test_shots_optimize_reports_an_unbiased_energy():
    # optimize used to return the lowest of Nelder-Mead's noisy estimates,
    # with E2 biased low as well: over these seeds, 54 mHa below the exact
    # energy at the returned theta on average, 4.3 standard errors
    mi = parse_fcidump(fixture_path("h4_2.6.fcidump"))
    exact = Estimator(mi)
    gaps = []
    for seed in range(1, 13):
        theta, bd = Estimator(mi, EstimatorConfig(mode="shots", shots=500, seed=seed)).optimize()
        gaps.append(bd.total - exact.mp2_energy(theta).total)
    _assert_unbiased(gaps, 0.0, "e_total - exact at the returned theta")


def test_shot_e2_is_the_bias_corrected_sum(refs):
    # E2 = sum (r^2 - var_r) / Delta over the doubles that conserve S_z and
    # have a non-degenerate denominator, read from the breakdown's diagnostics
    mi, _ = load_point(refs, "h4", 2.6)
    est = Estimator(mi, EstimatorConfig(mode="shots", shots=2000, seed=3))
    bd = est.mp2_energy(ThetaParams.zeros(est.n_qubits, est.n_electrons))
    r, var_r = bd.diagnostics["residuals"], bd.diagnostics["residual_variances"]
    spins = (est.doubles - 1) % 2
    sz_conserving = spins[:, :2].sum(axis=1) == spins[:, 2:].sum(axis=1)
    eps = est.eps
    delta = eps[est.doubles[:, 0] - 1] + eps[est.doubles[:, 1] - 1]
    delta -= eps[est.doubles[:, 2] - 1] + eps[est.doubles[:, 3] - 1]
    keep = sz_conserving & (np.abs(delta) >= omp2.DEGENERACY_TOL)
    assert bd.diagnostics["sz_changing_doubles"] == (~sz_conserving).sum() == 18
    assert bd.diagnostics["skipped_doubles"] == 0
    assert np.all(var_r > 0.0)
    assert bd.e2 == pytest.approx(np.sum((r[keep] ** 2 - var_r[keep]) / delta[keep]), abs=1e-15)


def test_noiseless_shots_draw_one_stream_per_group(refs, monkeypatch):
    # each group's columns draw as one count matrix from one (seed, group)
    # stream: 11 generators per H4 evaluation, where there were 803, one per
    # column and group
    keys = []

    def spy(seed, *key):
        keys.append((seed, *key))
        return simulator.rng_stream(seed, *key)

    monkeypatch.setattr(omp2, "rng_stream", spy)
    mi, _ = load_point(refs, "h4", 2.6)
    est = Estimator(mi, EstimatorConfig(mode="shots", shots=100, seed=2))
    est.mp2_energy(ThetaParams.zeros(est.n_qubits, est.n_electrons))
    assert est.n_groups == len(keys) == len(set(keys)) == 11
    assert est.resource_summary().circuits_per_evaluation == 803


def test_rejected_shots_name_the_first_empty_column_and_group(monkeypatch):
    mi = parse_fcidump(fixture_path("h2_1.4.fcidump"))
    est = Estimator(mi, EstimatorConfig(mode="shots", shots=12, postselect=True))
    full = np.full((3, 6), 2)  # three columns over the six sector rows of H2
    empty = full.copy()
    empty[[1, 2]] = 0
    groups = [(np.ones(6), full), (np.ones(6), empty)]
    monkeypatch.setattr(est, "_shot_counts", lambda u, final: iter(groups))
    with pytest.raises(omp2.RejectedShotsError, match="column 1 in measurement group 1$"):
        est.mp2_energy(ThetaParams.zeros(4, mi.n_electrons))


def test_noiseless_postselection_keeps_everything(refs):
    mi, _ = load_point(refs, "h2", 1.4)
    cfg = EstimatorConfig(mode="shots", shots=1000, seed=3, postselect=True)
    bd = Estimator(mi, cfg).mp2_energy(ThetaParams.zeros(4, mi.n_electrons))
    assert bd.diagnostics["kept_fraction_mean"] == 1.0


def test_noisy_postselection_discards_shots(refs):
    mi, _ = load_point(refs, "h2", 1.4)
    noise = NoiseModel(p1=1e-3, p2=1e-2, p_readout=1e-2)
    cfg = EstimatorConfig(
        mode="shots", shots=400, seed=7, noise=noise, postselect=True, trajectories=4
    )
    bd = Estimator(mi, cfg).mp2_energy(ThetaParams.zeros(4, mi.n_electrons))
    assert 0.0 < bd.diagnostics["kept_fraction_mean"] < 1.0


@pytest.mark.parametrize("noisy", [True, False])
def test_postselection_reads_the_raw_draws(refs, noisy):
    # the raw breakdown of a postselecting estimator is the breakdown of one
    # that does not postselect: the same draws, before the discard
    if noisy:
        mi, _ = load_point(refs, "h2", 1.4)
        noise = load_noise_presets()["ibm_lima"]
        cfg = EstimatorConfig(mode="shots", shots=400, seed=5, noise=noise, trajectories=4)
    else:
        mi = parse_fcidump(fixture_path("lih_3.1.fcidump"))
        cfg = EstimatorConfig(mode="shots", shots=400, seed=5)
    theta = ThetaParams.zeros(2 * mi.n_spatial, mi.n_electrons)
    plain = Estimator(mi, cfg).mp2_energy(theta)
    bd = Estimator(mi, replace(cfg, postselect=True)).mp2_energy(theta)
    raw = bd.diagnostics["raw"]
    assert (raw.e0, raw.e1, raw.e2, raw.variance) == (
        plain.e0, plain.e1, plain.e2, plain.variance
    )
    n_doubles = len(enumerate_doubles(2 * mi.n_spatial, mi.n_electrons))
    for key in ("residuals", "residual_variances", "var_e1"):
        assert np.array_equal(raw.diagnostics[key], plain.diagnostics[key])
    for b in (plain, bd, raw):
        for key in ("residuals", "residual_variances"):
            assert b.diagnostics[key].dtype == float
            assert b.diagnostics[key].shape == (n_doubles,)
    assert raw.diagnostics["kept_fraction_mean"] is None
    assert "raw" not in plain.diagnostics
    if noisy:
        assert 0.0 < bd.diagnostics["kept_fraction_mean"] < 1.0
        assert bd.e1 != raw.e1
    else:
        assert bd.diagnostics["kept_fraction_mean"] == 1.0
        assert (bd.e1, bd.e2, bd.variance) == (raw.e1, raw.e2, raw.variance)


def _gate_built_columns(est):
    """The estimator's columns built gate by gate on all 2^N amplitudes,
    then kept at the sector rows."""
    n = est.n_qubits
    ref = run(prep_reference(n, est.n_electrons))
    cols = [ref]
    for i, j, a, b in est.doubles.tolist():
        for omega in (np.pi / 4, np.pi / 2):
            gates = double_excitation(i, j, a, b, omega)
            cols.append(apply_circuit(Circuit(n, gates), ref))
    return np.stack(cols, axis=1)[est._sector.states]


def _probe_matrix(sector, probes):
    """The sector columns cos |ref> + sin |D> of the probe table, written out
    at the sector rows of its determinants."""
    rows = np.searchsorted(sector.states, probes.states)
    assert np.array_equal(sector.states[rows], probes.states)
    cols = np.zeros((sector.size, probes.det.size))
    k = np.arange(probes.det.size)
    cols[rows[0], k] = probes.cos
    cols[rows[probes.det], k] += probes.sin  # column 0 adds 0.0 to its 1.0
    return cols


@pytest.mark.parametrize(
    "molecule,distance",
    [("h2", 1.4), ("h3p", 2.4), ("h4", 2.6), ("lih", None)],
)
def test_sector_columns_equal_the_gate_built_columns(refs, molecule, distance):
    if distance is None:
        # LiH with all six orbitals: 12 qubits, no active space
        mi = parse_fcidump(fixture_path("lih_3.1.fcidump"))
    else:
        mi, _ = load_point(refs, molecule, distance)
    est = Estimator(mi)
    built = _gate_built_columns(est)
    assert np.array_equal(built.imag, np.zeros(built.shape))
    assert np.array_equal(built.real, _probe_matrix(est._sector, est._probes))
    # one determinant per double, after the reference
    assert est._probes.states.size == 1 + len(est.doubles)


@settings(max_examples=8, deadline=None)
@given(st.floats(-np.pi, np.pi, allow_nan=False))
def test_double_excitation_sign_on_the_reference(omega):
    # every double of every even filling up to 10 qubits
    for n in (4, 6, 8, 10):
        for n_electrons in range(2, n - 1, 2):
            sector = number_sector(n, n_electrons)
            doubles = enumerate_doubles(n, n_electrons)
            probes = omp2._probe_table(n, n_electrons, doubles, (omega,))
            cols = _probe_matrix(sector, probes)
            ref = run(prep_reference(n, n_electrons))
            for k, (i, j, a, b) in enumerate(doubles.tolist()):
                gates = double_excitation(i, j, a, b, omega)
                excited = apply_circuit(Circuit(n, gates), ref)
                expected = np.zeros(1 << n)
                expected[sector.states] = cols[:, 1 + k]
                assert np.array_equal(excited, expected)
            assert np.array_equal(ref[sector.states], cols[:, 0])


def _thetas(est, rng, n_random=2):
    """theta = 0 and n_random theta with angles uniform in [-1, 1]."""
    theta0 = ThetaParams.zeros(est.n_qubits, est.n_electrons)
    return [theta0] + [
        theta0.with_values(rng.uniform(-1.0, 1.0, len(theta0.values))) for _ in range(n_random)
    ]


def _assert_closed_form_matches_rotated_determinants(est, rng):
    for theta in _thetas(est, rng):
        bd = _assert_matches_sector_reference(est, theta)
        assert bd.variance == 0.0 and not bd.diagnostics["residual_variances"].any()


def test_closed_form_matches_the_rotated_determinants(refs):
    # every packaged fixture in its full orbital space, and LiH also in the
    # active space the CLI runs it in; theta = 0 and two random theta
    rng = np.random.default_rng(23)
    spec = refs.molecules["lih"].active_space
    paths = sorted(Path(fixture_path("h2_1.4.fcidump")).parent.glob("*.fcidump"))
    assert len(paths) == 69
    for path in paths:
        mi = parse_fcidump(path)
        _assert_closed_form_matches_rotated_determinants(Estimator(mi), rng)
        if path.name.startswith("lih"):
            _assert_closed_form_matches_rotated_determinants(
                Estimator(freeze_active_space(mi, spec)), rng
            )


# 28 random factors push an orbital energy out of aufbau order, which is harmless here
@pytest.mark.filterwarnings("ignore:orbital energies are not aufbau ordered")
def test_closed_form_matches_the_rotated_determinants_at_fourteen_qubits(monkeypatch):
    # 7 orbitals, 6 electrons: 29 groups of 28 factors, 421 probe determinants
    monkeypatch.setattr(omp2, "MAX_QUBITS", 14)
    mi = _synthetic_integrals(7, 6, seed=5, n_factors=28)
    est = Estimator(mi)
    assert (est.n_qubits, est.n_groups) == (14, 29)
    _assert_closed_form_matches_rotated_determinants(est, np.random.default_rng(4))


def test_exact_mode_stays_in_the_sector(refs, monkeypatch):
    # exact mode builds no sector and rotates no determinant: its energies
    # come from the rotated measured integrals; noiseless shots, with and
    # without postselection, rotate the probe determinants in the sector
    def full_space(*args, **kwargs):
        raise AssertionError("noiseless modes must not build 2^N states, counts or coefficients")

    for name in ("run", "coefficient_vector", "sample", "postselect"):
        monkeypatch.setattr(omp2, name, full_space)
    monkeypatch.setattr(simulator, "hamming_weights", full_space)
    occupations = jw.occupations

    def sector_occupations(n_qubits, states=None):
        rows = 1 << n_qubits if states is None else len(states)
        # 2^12 rows: every basis state of LiH in full space, the largest problem below
        assert rows < 1 << 12, "noiseless shots must not tabulate all 2^N occupations"
        return occupations(n_qubits, states)

    # the estimator reads the occupation table of the cached sector, and
    # jw.spin_strings splits the states it is given into their spin strings
    for module in (simulator, jw):
        monkeypatch.setattr(module, "occupations", sector_occupations)
    simulator.number_sector.cache_clear()

    def no_compile(*args, **kwargs):
        raise AssertionError("noiseless modes must not compile circuits")

    monkeypatch.setattr(omp2, "compile_orbital_rotation", no_compile)
    monkeypatch.setattr(omp2, "double_excitation", no_compile)
    batches = []

    def sector_rotate(w, states, sector):
        out = rotate_determinants(w, states, sector)
        assert out.shape == (sector.size, len(states))
        assert out.dtype == np.float64
        batches.append(len(states))
        return out

    monkeypatch.setattr(omp2, "rotate_determinants", sector_rotate)
    rotations = []
    kappa_spectrum = omp2.kappa_spectrum

    def count_spectra(kappa):
        rotations.append(kappa.shape)
        return kappa_spectrum(kappa)

    monkeypatch.setattr(omp2, "kappa_spectrum", count_spectra)

    def sector_calls():
        info = simulator.number_sector.cache_info()
        return info.hits + info.misses

    mi = parse_fcidump(fixture_path("lih_3.1.fcidump"))
    configs = [
        EstimatorConfig(),
        EstimatorConfig(mode="shots", shots=200),
        EstimatorConfig(mode="shots", shots=200, postselect=True),
    ]
    for cfg in configs:
        est = Estimator(mi, cfg)
        batches.clear()
        rotations.clear()
        bd = est.mp2_energy(_random_theta(est, np.random.default_rng(3), scale=0.2))
        assert rotations == [(6, 6)]  # one spatial rotation per evaluation
        assert bd.diagnostics["kept_fraction_mean"] == (1.0 if cfg.postselect else None)
        if cfg.mode == "exact":
            assert batches == [] and sector_calls() == 0
        else:
            # each group rotates the reference and one determinant per double, once
            assert batches == [1 + len(est.doubles)] * est.n_groups
            assert sector_calls() > 0
    simulator.number_sector.cache_clear()
    batches.clear()
    mi, pt = load_point(refs, "h4", 2.6)
    _, bd = Estimator(mi).optimize()
    assert bd.total + mi.e_core == pytest.approx(pt.e_omp2, abs=1e-6)
    assert batches == [] and sector_calls() == 0


def test_exact_mode_builds_no_measurement_basis(refs, monkeypatch):
    # exact mode reads the measured integrals and the resource count only
    # the kept-eigenvalue count; only shots, whose circuits end in a group's
    # measurement rotation, diagonalize group 0, once per evaluation
    def refuse(*args, **kwargs):
        raise AssertionError("exact mode must not diagonalize a group")

    monkeypatch.setattr(omp2, "build_perturbation", refuse)
    monkeypatch.setattr(omp2, "one_body_group", refuse)
    mi, pt = load_point(refs, "h4", 2.6)
    est = Estimator(mi)
    theta = _random_theta(est, np.random.default_rng(5), scale=0.2)
    est.mp2_energy(theta)
    _, bd = est.optimize()
    assert bd.total + mi.e_core == pytest.approx(pt.e_omp2, abs=1e-6)
    assert est.resource_summary().n_groups == est.n_groups

    calls = []
    for name, original in (
        ("build_perturbation", build_perturbation),
        ("one_body_group", one_body_group),
    ):
        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(omp2, name, counted)
    est = Estimator(mi, EstimatorConfig(mode="shots", shots=50))
    for k in (1, 2):
        est.mp2_energy(theta)
        assert calls.count("build_perturbation") == calls.count("one_body_group") == k


def _groups_one_eigenvector_at_a_time(eri, tol):
    """(rotation, factor, weight) of each two-body group, built from the
    supermatrix eigenpairs one at a time: largest |w| first, the vector's
    first component above 1e-12 made positive, folded and symmetrized,
    diagonalized, and its first column negated if the rotation's det is -1."""
    m = eri.shape[0]
    w, v = np.linalg.eigh(eri.reshape(m * m, m * m))
    groups = []
    for idx in np.argsort(-np.abs(w), kind="stable"):
        if abs(w[idx]) <= tol:
            continue
        vec = v[:, idx]
        lead = vec[np.abs(vec) > 1e-12][0]
        g_mat = (vec if lead > 0 else -vec).reshape(m, m)
        f, o = np.linalg.eigh(0.5 * (g_mat + g_mat.T))
        if np.linalg.det(o) < 0.0:
            o = o.copy()
            o[:, 0] = -o[:, 0]
        groups.append((o, f, float(w[idx])))
    return groups


def test_exact_mode_constructs_no_measurement_group(refs, monkeypatch):
    # exact mode takes its integrals from the factor step alone
    def refuse(*args, **kwargs):
        raise AssertionError("exact mode must not construct a MeasurementGroup")

    monkeypatch.setattr(lowrank, "MeasurementGroup", refuse)
    mi, pt = load_point(refs, "h4", 2.6)
    est = Estimator(mi)
    est.mp2_energy(_random_theta(est, np.random.default_rng(5), scale=0.2))
    _, bd = est.optimize()
    assert bd.total + mi.e_core == pytest.approx(pt.e_omp2, abs=1e-6)
    monkeypatch.undo()

    # shots and the measurement circuits build the groups once, lazily,
    # laid out as one eigenvector at a time gives them
    theta = ThetaParams.zeros(est.n_qubits, est.n_electrons)
    reference = _groups_one_eigenvector_at_a_time(mi.eri, 1e-12)
    for reach in (
        lambda est: est.mp2_energy(theta),
        lambda est: est.measurement_circuits(theta),
    ):
        est = Estimator(mi, EstimatorConfig(mode="shots", shots=50))
        assert "_static_groups" not in vars(est)
        reach(est)
        groups = vars(est)["_static_groups"]
        assert len(groups) == len(reference) == 10
        for g, (rotation, factor, weight) in zip(groups, reference):
            assert np.array_equal(g.rotation, rotation)
            assert np.array_equal(g.factor, factor) and g.weight == weight


def test_supermatrix_factored_once_per_estimator(refs, monkeypatch):
    # one factorization gives the measured integrals, the group count and the
    # lazy groups; the resource count constructs no group
    calls = []
    original = lowrank.factor_supermatrix

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (lowrank, omp2):  # wherever the estimator looks it up
        monkeypatch.setattr(module, "factor_supermatrix", counted, raising=False)
    mi, _ = load_point(refs, "h4", 2.6)
    theta = ThetaParams.zeros(2 * mi.n_spatial, mi.n_electrons)
    configs = (EstimatorConfig(), EstimatorConfig(mode="shots", shots=50))
    for cfg in configs:
        calls.clear()
        est = Estimator(mi, cfg)
        est.mp2_energy(theta)
        est.resource_summary()
        est.measurement_circuits(theta)
        assert len(calls) == 1, cfg.mode

    def refuse(*args, **kwargs):
        raise AssertionError("the resource count must not construct a MeasurementGroup")

    monkeypatch.setattr(lowrank, "MeasurementGroup", refuse)
    for cfg in configs:
        assert Estimator(mi, cfg).resource_summary().n_groups == 11


def test_groups_unchanged_on_every_fixture(refs):
    for tol in (1e-12, 1e-3):
        for name in sorted(pt.fcidump for mol in refs.molecules.values() for pt in mol.points):
            mi = parse_fcidump(fixture_path(name))
            est = Estimator(mi, EstimatorConfig(truncation_tol=tol))
            reference = _groups_one_eigenvector_at_a_time(mi.eri, tol)
            assert est.n_groups == 1 + len(reference), name
            for g, (rotation, factor, weight) in zip(est._static_groups, reference):
                assert np.array_equal(g.rotation, rotation), name
                assert np.array_equal(g.factor, factor) and g.weight == weight, name


def test_energy_breakdown_total():
    bd = EnergyBreakdown(e0=-1.0, e1=-0.5, e2=-0.05, variance=0.0, diagnostics={})
    assert bd.total == -1.55
