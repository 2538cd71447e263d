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
)
from helpers import dense_perturbation
from omp2sim.circuits import Circuit, compile_orbital_rotation, double_excitation, prep_reference
from omp2sim import omp2, simulator
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


def test_enumerate_doubles_counts():
    # C(n_occ, 2) * C(n_virt, 2) in spin orbitals
    assert len(enumerate_doubles(4, 2)) == 1
    assert len(enumerate_doubles(6, 2)) == 6
    assert len(enumerate_doubles(8, 4)) == 36
    doubles = enumerate_doubles(6, 2)
    assert [(d.i, d.j, d.a, d.b) for d in doubles[:2]] == [(1, 2, 3, 4), (1, 2, 3, 5)]
    for d in doubles:
        assert d.i < d.j <= 2 < d.a < d.b


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(mode="bogus")
    with pytest.raises(ValueError):
        EstimatorConfig(mode="exact", noise=NoiseModel(0.0, 0.0, 0.1))
    with pytest.raises(ValueError):
        EstimatorConfig(mode="shots", shots=0)
    with pytest.raises(ValueError, match="postselection requires shots mode"):
        EstimatorConfig(mode="exact", postselect=True)
    with pytest.raises(ValueError, match="seed"):
        EstimatorConfig(mode="shots", seed=-1)
    EstimatorConfig(mode="shots", postselect=True)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-9])
def test_estimator_config_rejects_bad_truncation_tol(tol):
    # an infinite tolerance drops every two-body factor and returned an energy
    # 1.5 Ha below FCI on H2 with status ok
    with pytest.raises(ValueError, match="truncation_tol"):
        EstimatorConfig(truncation_tol=tol)


def test_filled_shell_optimize_is_theta_zero():
    # NORB=2, NELEC=4: no virtual orbitals, so no rotation angle to optimize
    mi = MolecularIntegrals(
        n_spatial=2, e_core=0.0, h1=np.diag([-1.0, -0.5]), eri=np.zeros((2, 2, 2, 2)),
        n_electrons=4,
    )
    est = Estimator(mi)
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
    e_hf = hartree_fock_energy(est.si, mi.e_core, mi.n_electrons)
    assert abs(bd.e2 - canonical_mp2(est.si, est.eps, mi.n_electrons)) <= 1e-8
    assert abs(bd.e0 + bd.e1 + mi.e_core - e_hf) <= 1e-8
    # second order lands between the variational FCI floor and HF
    e_fci = fci_energy(est.si, mi.e_core, mi.n_electrons)
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
    v_dense = dense_perturbation(np.kron(t, np.eye(2)), est.si)
    prep = prep_reference(n, mi.n_electrons)
    u_circ = compile_orbital_rotation(np.kron(u, np.eye(2)))
    base = circuit_unitary(prep)[:, 0]
    rotated = circuit_unitary(u_circ)
    ref = rotated @ base
    for (i, j, a, b), r_measured in bd.diagnostics["residuals"]:
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


def _closed_form(est, theta):
    h1, eri = est._measured_integrals()
    return omp2._omp2_energy_and_gradient(h1, eri, est.eps[0::2], theta)


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
        theta = _random_theta(est, rng)
        energy, _ = _closed_form(est, theta)
        assert abs(energy - est.mp2_energy(theta).total) <= 1e-12


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
    # 7 orbitals, 6 electrons: 3003 sector rows and 421 probe determinants,
    # each rotated once per group, never a sector row per probe column
    import tracemalloc

    monkeypatch.setattr(omp2, "MAX_QUBITS", 14)
    mi = _synthetic_integrals(7, 6, seed=5)
    tracemalloc.start()
    try:
        est = Estimator(mi)
        theta = _random_theta(est, np.random.default_rng(2), scale=0.3)
        total = est.mp2_energy(theta).total
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.n_qubits == 14
    assert abs(total - _closed_form(est, theta)[0]) <= 1e-10
    assert peak <= 50e6, f"peak {peak / 1e6:.0f} MB"


def test_closed_form_with_every_double_skipped():
    # no integrals: every denominator is 0, so every double is dropped
    mi = parse_fcidump("&FCI NORB=3,NELEC=2,MS2=0,\n&END\n")
    with pytest.warns(UserWarning, match="degenerate excitation denominators"):
        est = Estimator(mi)
    theta = ThetaParams(6, 2, (0.3, -0.2))
    energy, grad = _closed_form(est, theta)
    assert abs(energy - est.mp2_energy(theta).total) <= 1e-12
    assert np.isfinite(grad).all()


def test_large_angles_match_the_closed_form():
    # angles of order 1e5 rad on full-space LiH: both spin channels must
    # rotate by the one spatial u however much rounding exp(kappa) carries
    est = Estimator(parse_fcidump(fixture_path("lih_3.1.fcidump")))
    theta0 = ThetaParams.zeros(est.n_qubits, est.n_electrons)
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta = theta0.with_values(rng.normal(size=len(theta0.values)) * 1e5)
        energy, _ = _closed_form(est, theta)
        assert abs(est.mp2_energy(theta).total - energy) <= 1e-10


@pytest.mark.parametrize("molecule,distance", [("h3p", 2.4), ("h4", 2.6)])
def test_gradient_matches_circuit_central_differences(refs, molecule, distance):
    mi, _ = load_point(refs, molecule, distance)
    est = Estimator(mi)
    theta = _random_theta(est, np.random.default_rng(3), scale=0.3)
    _, grad = _closed_form(est, theta)
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


def test_shots_optimize_never_calls_the_gradient(refs, monkeypatch):
    def no_gradient(*args):
        raise AssertionError("shots mode must not use the closed-form gradient")

    monkeypatch.setattr(omp2, "_omp2_energy_and_gradient", no_gradient)
    mi, _ = load_point(refs, "h2", 1.4)
    cfg = EstimatorConfig(mode="shots", shots=500, seed=4)
    theta, bd = Estimator(mi, cfg).optimize(maxiter=5)
    # the optimum's stored evaluation equals a fresh one: streams are keyed
    # by seed, column and group, not by how many evaluations came before
    assert Estimator(mi, cfg).mp2_energy(theta) == bd


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
    return 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2


def _rosenbrock_gradient(x):
    return np.array(
        [-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]), 200.0 * (x[1] - x[0] ** 2)]
    )


def test_lbfgs_minimizes_a_convex_quadratic():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(6, 6))
    hess = a @ a.T + 0.5 * np.eye(6)
    b = rng.normal(size=6)
    res = omp2._lbfgs(
        lambda x: 0.5 * x @ hess @ x - b @ x, lambda x: hess @ x - b, np.zeros(6), 200
    )
    assert res.success
    assert np.abs(hess @ res.x - b).max() <= 1e-9
    assert np.abs(res.x - np.linalg.solve(hess, b)).max() <= 1e-8


def test_lbfgs_minimizes_rosenbrock():
    res = omp2._lbfgs(_rosenbrock, _rosenbrock_gradient, np.array([-1.2, 1.0]), 200)
    assert res.success
    assert 0 < res.nit < 200
    assert np.abs(res.x - 1.0).max() <= 1e-8


def test_lbfgs_caps_the_trial_step():
    trials = []

    def steep(x):
        trials.append(x.copy())
        return 500.0 * (x - 3.0) @ (x - 3.0)

    res = omp2._lbfgs(steep, lambda x: 1000.0 * (x - 3.0), np.zeros(3), 200)
    assert res.success
    assert np.abs(res.x - 3.0).max() <= 1e-9
    assert all(np.abs(b - a).max() <= 1.0 for a, b in zip(trials, trials[1:]))


def test_lbfgs_reports_running_out_of_iterations(refs):
    res = omp2._lbfgs(_rosenbrock, _rosenbrock_gradient, np.array([-1.2, 1.0]), 3)
    assert not res.success
    assert res.nit == 3
    assert "3 iterations" in res.message
    mi, _ = load_point(refs, "h4", 2.6)
    _, bd = Estimator(mi).optimize(maxiter=1)
    assert bd.diagnostics["converged"] is False
    assert bd.diagnostics["n_iterations"] == 1
    assert "1 iterations" in bd.diagnostics["optimizer_message"]


@pytest.mark.parametrize("molecule,distance", [("h3p", 2.4), ("h4", 2.6), ("lih", 3.1)])
def test_optimize_matches_scipy_lbfgsb(refs, molecule, distance):
    # scipy's L-BFGS-B on the same circuit energy and closed-form gradient
    mi, _ = load_point(refs, molecule, distance)
    est = Estimator(mi)
    _, bd = est.optimize()
    theta0 = ThetaParams.zeros(est.n_qubits, est.n_electrons)
    res = minimize(
        lambda x: est.mp2_energy(theta0.with_values(x)).total,
        np.zeros(len(theta0.values)),
        jac=lambda x: _closed_form(est, theta0.with_values(x))[1],
        method="L-BFGS-B",
        options={"ftol": 1e-12, "gtol": 1e-9},
    )
    assert res.success
    assert abs(bd.total - res.fun) <= 1e-10


def _newton_polish(est, theta, steps=4):
    """theta moved by Newton steps on the closed-form gradient (central-difference Hessian)."""

    def grad(x):
        return _closed_form(est, theta.with_values(x))[1]

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
    for key in ("residuals", "residual_variances", "var_e1"):
        assert raw.diagnostics[key] == plain.diagnostics[key]
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
    for d in est.doubles:
        for omega in (np.pi / 4, np.pi / 2):
            gates = double_excitation(d.i, d.j, d.a, d.b, omega)
            cols.append(apply_circuit(Circuit(n, gates), ref))
    return np.stack(cols, axis=1)[est._sector.states]


def _probe_matrix(sector, rows, probes):
    """The sector columns cos |ref> + sin |D> of the probe table, written out
    at the sector rows of its determinants."""
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
    assert np.array_equal(built.real, _probe_matrix(est._sector, est._probe_rows, est._probes))
    # one determinant per double, after the reference
    assert est._probe_rows.size == 1 + len(est.doubles)


@settings(max_examples=8, deadline=None)
@given(st.floats(-np.pi, np.pi, allow_nan=False))
def test_double_excitation_sign_on_the_reference(omega):
    # every double of every even filling up to 10 qubits
    for n in (4, 6, 8, 10):
        for n_electrons in range(2, n - 1, 2):
            sector = number_sector(n, n_electrons)
            doubles = enumerate_doubles(n, n_electrons)
            probes = omp2._excited_columns(n, n_electrons, doubles, (omega,))
            rows = np.searchsorted(sector.states, probes.states)
            cols = _probe_matrix(sector, rows, probes)
            ref = run(prep_reference(n, n_electrons))
            for k, d in enumerate(doubles):
                gates = double_excitation(d.i, d.j, d.a, d.b, omega)
                excited = apply_circuit(Circuit(n, gates), ref)
                expected = np.zeros(1 << n)
                expected[sector.states] = cols[:, 1 + k]
                assert np.array_equal(excited, expected)
            assert np.array_equal(ref[sector.states], cols[:, 0])


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


def _assert_wick_matches_rotated_determinants(est, rng, n_random=2):
    theta0 = ThetaParams.zeros(est.n_qubits, est.n_electrons)
    thetas = [theta0] + [
        theta0.with_values(rng.uniform(-1.0, 1.0, len(theta0.values))) for _ in range(n_random)
    ]
    for theta in thetas:
        u = omp2.expm_antisymmetric(theta.to_matrix())
        wick, variances = est._column_energies_exact(u)
        assert not variances.any()
        assert np.abs(wick - _rotated_column_energies(est, u)).max() <= 1e-12


def test_wick_columns_match_the_rotated_determinants(refs):
    # every packaged fixture in its full orbital space, and LiH also in the
    # active space the CLI runs it in; theta = 0 and two random theta
    rng = np.random.default_rng(23)
    spec = refs.molecules["lih"].active_space
    paths = sorted(Path(fixture_path("h2_1.4.fcidump")).parent.glob("*.fcidump"))
    assert len(paths) == 69
    for path in paths:
        mi = parse_fcidump(path)
        _assert_wick_matches_rotated_determinants(Estimator(mi), rng)
        if path.name.startswith("lih"):
            _assert_wick_matches_rotated_determinants(
                Estimator(freeze_active_space(mi, spec)), rng
            )


# 28 random factors push an orbital energy out of aufbau order, which is harmless here
@pytest.mark.filterwarnings("ignore:orbital energies are not aufbau ordered")
def test_wick_columns_match_the_rotated_determinants_at_fourteen_qubits(monkeypatch):
    # 7 orbitals, 6 electrons: 29 groups of 28 factors, 421 probe determinants
    monkeypatch.setattr(omp2, "MAX_QUBITS", 14)
    mi = _synthetic_integrals(7, 6, seed=5, n_factors=28)
    est = Estimator(mi)
    assert (est.n_qubits, est.n_groups) == (14, 29)
    _assert_wick_matches_rotated_determinants(est, np.random.default_rng(4))


def test_exact_mode_stays_in_the_sector(refs, monkeypatch):
    # exact mode builds no sector and rotates no determinant: its energies
    # come from Wick's theorem on M x M matrices; noiseless shots, with and
    # without postselection, rotate the probe determinants in the sector
    def full_space(*args, **kwargs):
        raise AssertionError("noiseless modes must not build 2^N states, counts or coefficients")

    for name in ("run", "coefficient_vector", "sample", "postselect"):
        monkeypatch.setattr(omp2, name, full_space)
    monkeypatch.setattr(simulator, "hamming_weights", full_space)
    occupations = simulator.occupations

    def sector_occupations(n_qubits, states=None):
        assert states is not None, "noiseless shots must not tabulate all 2^N occupations"
        return occupations(n_qubits, states)

    # the estimator reads the occupation table of the cached sector
    monkeypatch.setattr(simulator, "occupations", sector_occupations)
    simulator.number_sector.cache_clear()

    def no_compile(*args, **kwargs):
        raise AssertionError("noiseless modes must not compile circuits")

    monkeypatch.setattr(omp2, "compile_orbital_rotation", no_compile)
    monkeypatch.setattr(omp2, "double_excitation", no_compile)
    batches = []

    def sector_rotate(w, rows, sector):
        out = rotate_determinants(w, rows, sector)
        assert out.shape == (sector.size, len(rows))
        assert out.dtype == np.float64
        batches.append(len(rows))
        return out

    monkeypatch.setattr(omp2, "rotate_determinants", sector_rotate)
    rotations = []
    expm_antisymmetric = omp2.expm_antisymmetric

    def count_expm(kappa):
        rotations.append(kappa.shape)
        return expm_antisymmetric(kappa)

    monkeypatch.setattr(omp2, "expm_antisymmetric", count_expm)

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


def test_energy_breakdown_total():
    bd = EnergyBreakdown(e0=-1.0, e1=-0.5, e2=-0.05, variance=0.0, diagnostics={})
    assert bd.total == -1.55
