"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line on the real stderr (visible through
pytest's capture) before asserting, so a full run always yields exactly one
status line per criterion.
"""

import json
import sys
import time
from itertools import combinations

import numpy as np
from scipy.linalg import expm
from scipy.stats import special_ortho_group

import conftest
from conftest import load_point
from helpers import (
    circuit_unitary,
    dense_group_operator,
    dense_perturbation,
    ladder_ops,
    operator_norm,
    phase_distance,
    single_particle_action,
)
from omp2sim.chem import build_perturbation, orbital_energies, spin_orbitalize
from omp2sim.circuits import (
    Circuit,
    compile_orbital_rotation,
    double_excitation,
    prep_reference,
    single_excitation,
)
from omp2sim.cli import main
from omp2sim.lowrank import factor_supermatrix, factorize
from omp2sim.omp2 import Estimator, EstimatorConfig, ThetaParams
from omp2sim.oracle import (
    canonical_mp2,
    hartree_fock_energy,
    fixture_path,
)
from omp2sim.simulator import (
    NoiseModel,
    load_noise_presets,
    postselect,
    rng_stream,
    run,
    sample,
    trajectory_fidelity,
)

MOLECULES = ("h2", "h3p", "lih", "h4")
RESOURCE_FIXTURES = ("h2_1.4.fcidump", "h3p_1.4.fcidump", "lih_3.1.fcidump", "h4_1.8.fcidump")


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} ({name}): {status} - {detail}"
    conftest.acceptance_lines.append(line)
    print(line, file=sys.__stderr__, flush=True)


def test_criterion_1_resource_regression(tmp_path):
    t0 = time.time()
    want = {
        "h2": (4, 1, 24, 41, 12),
        "h3p": (6, 2, 36, 55, 91),
        "lih": (6, 2, 36, 55, 91),
        "h4": (8, 4, 48, 69, 803),
    }
    got = {}
    for name in RESOURCE_FIXTURES:
        out = tmp_path / (name + ".json")
        code = main(
            ["resources", "--fixture", str(fixture_path(name)), "--format", "json",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        got[doc["molecule"]] = (
            doc["n_qubits"],
            doc["n_parameters"],
            doc["reference_depth"],
            doc["residual_depth_max"],
            doc["circuits_per_evaluation"],
        )
    ok = got == want
    report(1, "resource regression", ok, f"qubits/params/depthA/depthB/circuits {got} in {time.time()-t0:.1f}s")
    assert got == want


def test_criterion_2_decomposition_equivalence():
    t0 = time.time()
    worst_exc = 0.0
    worst_qr = 0.0
    for n in (4, 6, 8):
        rng = np.random.default_rng(100 + n)
        low = ladder_ops(n)
        for k in range(100):
            if k % 2 == 0:
                p = int(rng.integers(1, n))
                alpha = float(rng.uniform(-3, 3))
                gen = low[p - 1].T @ low[p]
                u_ref = expm(alpha * (gen - gen.T))
                u_circ = circuit_unitary(Circuit(n, single_excitation(p, alpha)))
            else:
                i, j, a, b = map(int, sorted(rng.choice(n, size=4, replace=False) + 1))
                omega = float(rng.uniform(-3, 3))
                gen = low[a - 1].T @ low[b - 1].T @ low[j - 1] @ low[i - 1]
                u_ref = expm(omega * (gen - gen.T))
                u_circ = circuit_unitary(Circuit(n, double_excitation(i, j, a, b, omega)))
            worst_exc = max(worst_exc, phase_distance(u_circ.reshape(-1), u_ref.reshape(-1)))
        for _ in range(100):
            u = special_ortho_group.rvs(n, random_state=rng)
            c = compile_orbital_rotation(u)
            rebuilt = single_particle_action(circuit_unitary(c), n)
            worst_qr = max(worst_qr, float(np.abs(rebuilt - u).max()))
    dt = time.time() - t0
    ok = worst_exc < 1e-10 and worst_qr < 1e-8 and dt < 120
    report(2, "decomposition equivalence", ok,
           f"excitation vs exponential {worst_exc:.2e} (tol 1e-10), "
           f"compiled rotation rebuild {worst_qr:.2e} (tol 1e-8), {dt:.1f}s")
    assert worst_exc < 1e-10
    assert worst_qr < 1e-8
    assert dt < 120


def test_criterion_3_factorization_fidelity(refs):
    t0 = time.time()
    want_groups = {"h2": 4, "h3p": 7, "lih": 7, "h4": 11}
    midpoints = {"h2": 1.4, "h3p": 2.4, "lih": 3.1, "h4": 1.8}
    counts = {}
    worst = 0.0
    for mol in MOLECULES:
        mi, _ = load_point(refs, mol, midpoints[mol])
        si = spin_orbitalize(mi)
        eps = orbital_energies(si, mi.n_electrons)
        t = build_perturbation(mi.h1, eps[0::2], np.eye(mi.n_spatial))
        groups = factorize(t, mi.eri, 1e-12)
        counts[mol] = len(groups)
        rebuilt = sum(dense_group_operator(g, si.n_spin) for g in groups)
        err = operator_norm(rebuilt - dense_perturbation(np.kron(t, np.eye(2)), si))
        worst = max(worst, err, factor_supermatrix(mi.eri, 1e-12)[2])
    dt = time.time() - t0
    ok = counts == want_groups and worst <= 1e-8
    report(3, "factorization fidelity", ok,
           f"groups {counts}, worst reconstruction error {worst:.2e} (tol 1e-8), {dt:.1f}s")
    assert counts == want_groups
    assert worst <= 1e-8


def test_criterion_4_energy_identity_chain(refs):
    t0 = time.time()
    worst_hf = 0.0
    worst_mp2 = 0.0
    n_points = 0
    for mol in MOLECULES:
        for pt in refs.molecules[mol].points:
            mi, _ = load_point(refs, mol, pt.distance_bohr)
            si = spin_orbitalize(mi)
            eps = orbital_energies(si, mi.n_electrons)
            est = Estimator(mi)
            bd = est.mp2_energy(ThetaParams.zeros(est.n_qubits, mi.n_electrons))
            e_hf = hartree_fock_energy(si, mi.e_core, mi.n_electrons)
            e2 = canonical_mp2(si, eps, mi.n_electrons)
            worst_hf = max(worst_hf, abs(bd.e0 + bd.e1 + mi.e_core - e_hf))
            worst_mp2 = max(worst_mp2, abs(bd.e2 - e2))
            n_points += 1
    dt = time.time() - t0
    ok = worst_hf < 1e-8 and worst_mp2 < 1e-8 and dt < 300
    report(4, "energy identity chain", ok,
           f"{n_points} points, max |E0+E1+core-HF| {worst_hf:.2e}, "
           f"max |e2-MP2| {worst_mp2:.2e} (tol 1e-8), {dt:.1f}s")
    assert worst_hf < 1e-8
    assert worst_mp2 < 1e-8
    assert dt < 300


def test_criterion_5_optimization(refs):
    t0 = time.time()
    worst_theta_h2 = 0.0
    worst_omp2 = 0.0
    ordering_ok = True
    for mol in MOLECULES:
        for pt in refs.molecules[mol].points:
            mi, _ = load_point(refs, mol, pt.distance_bohr)
            est = Estimator(mi)
            theta, bd = est.optimize()
            e_total = bd.total + mi.e_core
            if mol == "h2":
                worst_theta_h2 = max(worst_theta_h2, max(abs(v) for v in theta.values))
            else:
                worst_omp2 = max(worst_omp2, abs(e_total - pt.e_omp2))
            if not (pt.e_fci - 1e-9 <= e_total <= pt.e_hf + 1e-9):
                ordering_ok = False
    dt = time.time() - t0
    ok = worst_theta_h2 < 1e-6 and worst_omp2 < 1e-6 and ordering_ok and dt < 900
    report(5, "optimization", ok,
           f"max |theta*(H2)| {worst_theta_h2:.2e} (tol 1e-6), "
           f"max |E-E_OMP2^ref| {worst_omp2:.2e} (tol 1e-6), "
           f"FCI<=E<=HF {'holds' if ordering_ok else 'violated'}, {dt:.1f}s")
    assert worst_theta_h2 < 1e-6
    assert worst_omp2 < 1e-6
    assert ordering_ok
    assert dt < 900


def test_criterion_6_shot_statistics(refs):
    t0 = time.time()
    worst_pull = 0.0
    worst_ratio_lo, worst_ratio_hi = np.inf, 0.0
    for pt in refs.molecules["h2"].points:
        mi, _ = load_point(refs, "h2", pt.distance_bohr)
        theta = ThetaParams.zeros(4, mi.n_electrons)
        exact = Estimator(mi).mp2_energy(theta)
        bd = Estimator(mi, EstimatorConfig(mode="shots", shots=100_000, seed=1)).mp2_energy(theta)
        sigma = np.sqrt(bd.variance)
        worst_pull = max(worst_pull, abs(bd.total - exact.total) / sigma)
        repeats = np.array([
            Estimator(mi, EstimatorConfig(mode="shots", shots=100_000, seed=s)).mp2_energy(theta).total
            for s in range(1, 31)
        ])
        sigmas = np.array([
            np.sqrt(Estimator(mi, EstimatorConfig(mode="shots", shots=100_000, seed=s)).mp2_energy(theta).variance)
            for s in range(1, 31)
        ])
        ratio = repeats.std(ddof=1) / sigmas.mean()
        worst_ratio_lo = min(worst_ratio_lo, ratio)
        worst_ratio_hi = max(worst_ratio_hi, ratio)
    dt = time.time() - t0
    ok = worst_pull < 3.0 and worst_ratio_lo > 0.5 and worst_ratio_hi < 2.0 and dt < 1800
    report(6, "shot statistics", ok,
           f"max pull {worst_pull:.2f} sigma (limit 3), scatter/reported-sigma in "
           f"[{worst_ratio_lo:.2f}, {worst_ratio_hi:.2f}] (window [0.5, 2]), {dt:.1f}s")
    assert worst_pull < 3.0
    assert 0.5 < worst_ratio_lo and worst_ratio_hi < 2.0
    assert dt < 1800


def test_criterion_7_noise_postselection(refs):
    t0 = time.time()
    mi, _ = load_point(refs, "h2", 1.4)
    est = Estimator(mi)
    n = est.n_qubits
    noise = load_noise_presets()["ibm_auckland"]
    n_traj = 200

    u0 = compile_orbital_rotation(np.eye(n))
    meas = est.measurement_circuits(ThetaParams.zeros(n, mi.n_electrons))
    prep = prep_reference(n, mi.n_electrons)
    set_a = Circuit(n, prep.gates + u0.gates + meas[0].gates)
    deepest = max(
        (Circuit(n, prep.gates + double_excitation(i, j, a, b, np.pi / 2) + u0.gates + m.gates)
         for i, j, a, b in est.doubles.tolist() for m in meas),
        key=lambda c: len(c.gates),
    )

    results = {}
    for label, circ in (("A", set_a), ("B", deepest)):
        ideal = run(circ)
        raw, ps = trajectory_fidelity(ideal, circ, noise, n_traj, mi.n_electrons, seed=1)
        results[label] = (raw, ps)
    sided_ok = True
    for label, (raw, ps) in results.items():
        se = float(np.hypot(raw.stderr, ps.stderr))
        if ps.fidelity - raw.fidelity < -1.645 * se:
            sided_ok = False
    order_ok = (
        results["B"][0].fidelity <= results["A"][0].fidelity
        and results["B"][1].fidelity <= results["A"][1].fidelity
    )

    state = run(set_a)
    readout = NoiseModel(p1=0.0, p2=0.0, p_readout=0.05)
    noisy_kept = postselect(sample(state, 4000, noise=readout, rng=rng_stream(2)), mi.n_electrons)
    clean_kept = postselect(sample(state, 4000, rng=rng_stream(2)), mi.n_electrons)
    noisy_fraction = noisy_kept.sum() / 4000
    clean_fraction = clean_kept.sum() / 4000
    kept_ok = noisy_fraction < 1.0 and clean_fraction == 1.0

    dt = time.time() - t0
    ok = sided_ok and order_ok and kept_ok and dt < 1200
    report(7, "noise and post-selection", ok,
           f"PS>=raw at 95% over {n_traj} trajectories "
           f"(A: {results['A'][1].fidelity:.3f} vs {results['A'][0].fidelity:.3f}, "
           f"B: {results['B'][1].fidelity:.3f} vs {results['B'][0].fidelity:.3f}), "
           f"B<=A {'holds' if order_ok else 'violated'}, kept {noisy_fraction:.3f}<1 noisy "
           f"and {clean_fraction:.0f}=1 clean, {dt:.1f}s")
    assert sided_ok
    assert order_ok
    assert kept_ok
    assert dt < 1200


def test_criterion_8_determinism(tmp_path):
    t0 = time.time()
    fixtures = fixture_path("h2_1.4.fcidump").parent
    commands = {
        "energy_shots": ["energy", "--fixture", str(fixture_path("h2_1.4.fcidump")),
                         "--mode", "shots", "--shots", "5000", "--seed", "7"],
        "curve_jobs": ["curve", "--fixture-dir", str(fixtures), "--molecule", "h2",
                       "--jobs", "2"],
        "resources": ["resources", "--fixture", str(fixture_path("h4_1.8.fcidump")),
                      "--format", "json"],
        "noise_study": ["noise-study", "--fixture", str(fixture_path("h2_1.4.fcidump")),
                        "--noise", "ibm_auckland", "--shots", "2000",
                        "--trajectories", "8", "--format", "json"],
    }
    identical = {}
    for label, argv in commands.items():
        a, b = tmp_path / f"{label}_a", tmp_path / f"{label}_b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        identical[label] = a.read_bytes() == b.read_bytes()
    dt = time.time() - t0
    ok = all(identical.values())
    report(8, "determinism", ok,
           f"byte-identical reruns for {sorted(k for k, v in identical.items() if v)} "
           f"{'(all)' if ok else '(FAILURES: ' + str([k for k, v in identical.items() if not v]) + ')'}, {dt:.1f}s")
    assert ok
