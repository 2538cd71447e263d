from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import special_ortho_group

from helpers import circuit_unitary, phase_distance
from omp2sim.circuits import (
    Circuit,
    cnot,
    compile_orbital_rotation,
    cz,
    lower_circuit,
    multi_cry,
    x,
)
from omp2sim.jw import hamming_weights
from omp2sim.simulator import (
    NoiseModel,
    _readout_distribution,
    apply_circuit,
    draw_counts,
    expectation_with_variance,
    load_noise_presets,
    number_sector,
    postselect,
    rng_stream,
    rotate_determinants,
    run,
    sample,
    trajectory_fidelity,
)


def random_circuit(n, seed, length=12):
    # superpositions come from X gates that open the controls of a MULTI_CRY
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(length):
        kind = rng.integers(4)
        q = int(rng.integers(1, n + 1))
        if kind == 0:
            gates.append(x(q))
        elif kind == 1:
            t = int(rng.choice([p for p in range(1, n + 1) if p != q]))
            gates.append(cnot(q, t) if rng.integers(2) else cz(q, t))
        else:
            others = [p for p in range(1, n + 1) if p != q]
            rng.shuffle(others)
            n_ctrl = int(rng.integers(1, min(3, len(others)) + 1))
            gates.append(multi_cry(tuple(sorted(others[:n_ctrl])), q, float(rng.normal())))
    return Circuit(n, tuple(gates))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(0, 2**31 - 1))
def test_apply_circuit_matches_dense_unitary(n, seed):
    c = random_circuit(n, seed)
    u = circuit_unitary(c)
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    assert np.abs(apply_circuit(c, state) - u[:, 0]).max() < 1e-12
    # batched columns go through the same kernels
    batch = np.eye(1 << n, dtype=complex)[:, :3]
    assert np.abs(apply_circuit(c, batch) - u[:, :3]).max() < 1e-12


def _spatial_rotations(n_orb, rng):
    """The identity, the orbital reversal (exact zeros), and a random SO(n_orb)."""
    reversal = np.eye(n_orb)[::-1].copy()
    if np.linalg.det(reversal) < 0:
        reversal[:, 0] *= -1.0
    rotations = [np.eye(n_orb), reversal]
    if n_orb > 1:
        rotations.append(special_ortho_group.rvs(n_orb, random_state=rng))
    return rotations


@settings(max_examples=10, deadline=None)
@given(st.sampled_from((2, 4, 6, 8, 10)), st.integers(0, 2**31 - 1))
def test_sector_kernel_matches_full_space(n, seed):
    # the gate kernel on the compiled circuit is the reference, for every
    # basis state of every filling; the two algorithms agree to rounding,
    # not bit for bit
    rng = np.random.default_rng(seed)
    for u in _spatial_rotations(n // 2, rng):
        c = compile_orbital_rotation(np.kron(u, np.eye(2)))
        full = apply_circuit(c, np.eye(1 << n))
        for n_electrons in range(n + 1):
            sector = number_sector(n, n_electrons)
            out = rotate_determinants(u, sector.states, sector)
            assert out.dtype == np.float64
            assert np.abs(out - full[np.ix_(sector.states, sector.states)]).max() < 1e-12
            # any subset of states, in any order and with repeats
            some = rng.integers(sector.size, size=5)
            assert np.array_equal(rotate_determinants(u, sector.states[some], sector), out[:, some])


@settings(max_examples=20, deadline=None)
@given(st.sampled_from((4, 6, 8)), st.data())
def test_sector_kernel_composes_rotations(n, data):
    # Cauchy-Binet: the minors of g^T u are products of the minors of g^T
    # and of u, so rotating by g^T u is rotating by u, then by g^T
    n_electrons = data.draw(st.integers(0, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    u, g = special_ortho_group.rvs(n // 2, size=2, random_state=rng)
    sector = number_sector(n, n_electrons)
    states = sector.states[rng.integers(sector.size, size=7)]
    then = rotate_determinants(g.T, sector.states, sector)
    once = rotate_determinants(g.T @ u, states, sector)
    assert np.abs(once - then @ rotate_determinants(u, states, sector)).max() < 1e-12


@pytest.mark.parametrize("n", [4, 10])
def test_number_sector_holds_every_state_of_its_weight(n):
    for n_electrons in range(n + 2):
        sector = number_sector(n, n_electrons)
        states = sector.states
        assert np.array_equal(states, np.flatnonzero(hamming_weights(n) == n_electrons))
        for table in (states, sector.alpha_strings, sector.beta_strings, sector.spin_signs):
            assert not table.flags.writeable


def test_orbital_rotation_rejects_bad_input():
    sector = number_sector(4, 2)
    states = sector.states
    # the spin-orbital matrix instead of the spatial one, and a non-square w
    for w in (np.eye(4), np.eye(3), np.eye(2)[:1]):
        with pytest.raises(ValueError, match="w must be"):
            rotate_determinants(w, states, sector)
    # another electron count, outside the 4 qubits, negative, not a vector, not integers
    for bad in (states + 1, states + 16, states - 4, states[:, None], states.astype(float), ["0"]):
        with pytest.raises(ValueError, match="sector"):
            rotate_determinants(np.eye(2), bad, sector)
    with pytest.raises(ValueError, match="even"):
        number_sector(5, 2)


# (|01> + |10>) / sqrt(2)
BELL = Circuit(2, (x(2), multi_cry((2,), 1, np.pi / 2), cnot(1, 2)))


def test_run_produces_normalized_state():
    amps = run(BELL)
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
    assert abs(abs(amps[0b01]) ** 2 - 0.5) < 1e-12
    assert abs(abs(amps[0b10]) ** 2 - 0.5) < 1e-12
    assert run(Circuit(3, ())).tolist() == [1.0] + [0.0] * 7


def test_sample_rejects_bad_input():
    amps = run(BELL)
    with pytest.raises(ValueError, match="shots"):
        sample(amps, 0, rng=rng_stream(1))
    for bad in (amps[:3], amps.reshape(2, 2), np.zeros(0), np.stack([amps, amps])):
        with pytest.raises(ValueError, match="2\\^N"):
            sample(bad, 10, rng=rng_stream(1))
    with pytest.raises(TypeError, match="rng"):
        sample(amps, 10)  # no fallback seed: the caller names the stream


def test_sample_is_deterministic_per_stream():
    amps = run(BELL)
    c1 = sample(amps, 500, rng=rng_stream(9, 1))
    c2 = sample(amps, 500, rng=rng_stream(9, 1))
    c3 = sample(amps, 500, rng=rng_stream(9, 2))
    assert np.array_equal(c1, c2)
    assert not np.array_equal(c1, c3)
    assert c1.sum() == 500
    assert c1.shape == (4,)


def test_sample_never_draws_an_outcome_of_probability_zero():
    # zeros first, last and between outcomes; the amplitudes are not normalized
    amps = np.zeros(16)
    amps[[1, 2, 7, 13]] = (0.5, 0.1, 0.8, 0.3)
    shots = 200_000
    counts = sample(amps, shots, rng=rng_stream(4))
    assert counts.sum() == shots
    assert np.array_equal(np.flatnonzero(counts), [1, 2, 7, 13])
    probs = amps**2 / (amps**2).sum()
    assert np.all(np.abs(counts / shots - probs) <= 5.0 * np.sqrt(probs / shots))
    # the same through draw_counts, with zeros next to each other
    probs = np.array([0.0, 0.0, 0.25, 0.0, 0.0, 0.75, 0.0])
    counts = draw_counts(probs, 10_000, rng_stream(5))
    assert np.array_equal(np.flatnonzero(counts), [2, 5])


def test_a_roundoff_probability_moves_no_seeded_count():
    # whether roundoff leaves an outcome at probability 1e-30 or exactly zero
    # must not shift the counts of the other outcomes
    gates = (x(3), multi_cry((3,), 1, np.pi / 2), multi_cry((3,), 2, 0.7), cnot(1, 3))
    amps = run(Circuit(3, gates))
    tiny = amps.copy()
    tiny[np.flatnonzero(amps == 0)[0]] = 1e-15
    for key in range(20):
        exact = sample(amps, 1000, rng=rng_stream(3, key))
        assert np.array_equal(sample(tiny, 1000, rng=rng_stream(3, key)), exact)


def test_draw_counts_of_a_matrix_draws_each_row():
    # one row per circuit: zeros first, last and between, and unequal sums
    probs = np.array([
        [0.0, 0.2, 0.0, 0.8, 0.0],
        [0.5, 0.0, 0.0, 0.0, 0.5],
        [0.0, 0.0, 0.0, 0.0, 3.0],
        [1.0, 2.0, 3.0, 4.0, 0.0],
    ])
    counts = draw_counts(probs, 1000, rng_stream(6))
    assert counts.shape == probs.shape
    assert np.all(counts.sum(axis=1) == 1000)
    assert np.array_equal(counts > 0, probs > 0)
    p = probs / probs.sum(axis=1, keepdims=True)
    assert np.all(np.abs(counts / 1000 - p) <= 5.0 * np.sqrt(p * (1.0 - p) / 1000))
    # the first row draws as a single distribution does
    assert np.array_equal(counts[0], draw_counts(probs[0], 1000, rng_stream(6)))


def test_draw_counts_rejects_an_invalid_row():
    ok = [0.25, 0.75, 0.0]
    for bad, reason in (
        ([0.0, np.nan, 0.5], "row 1 has a non-finite sum"),
        ([np.inf, 0.0, 0.5], "row 1 has a non-finite sum"),
        ([5.0, -2.0, 7.0], "row 1 has a negative entry"),
        # far below the 1e-20 that draws nothing, but never silently dropped
        ([1.0, -1e-300, 0.0], "row 1 has a negative entry"),
        ([0.0, 0.0, 0.0], "row 1 sums to zero"),
    ):
        with pytest.raises(ValueError, match=reason):
            draw_counts(np.array([ok, bad]), 10, rng_stream(1))
    with pytest.raises(ValueError, match="row 0 sums to zero"):
        sample(np.zeros(4), 10, rng=rng_stream(1))
    with pytest.raises(ValueError, match="row 0 has a non-finite sum"):
        sample(np.array([0.5, np.nan, 0.5, 0.5]), 10, NoiseModel(0, 0, 0.01), rng=rng_stream(1))


def test_draw_counts_costs_outcomes_not_shots():
    # 10**12 shots in one call: the counts sum exactly, and the zeros stay zero
    probs = np.array([[0.0, 0.1, 0.0, 0.6, 0.3, 0.0], [0.5, 0.0, 0.0, 0.0, 0.0, 0.5]])
    shots = 10**12
    counts = draw_counts(probs, shots, rng_stream(7))
    assert np.all(counts.sum(axis=1) == shots)
    assert np.array_equal(counts > 0, probs > 0)
    assert np.all(np.abs(counts / shots - probs) <= 5.0 * np.sqrt(probs / shots))


def test_draw_counts_never_draws_a_zero_even_after_roundoff():
    # the binomials leave the roundoff of 1 - sum(p) to the last outcome drawn;
    # with 10**15 shots a zero there would be drawn in about one row of twenty
    gen = np.random.default_rng(12)
    probs = gen.random((400, 24)) * (gen.random((400, 24)) < 0.5)
    probs[:, -1] = 0.0
    probs[:, 0] += 0.01  # no row sums to zero
    counts = draw_counts(probs, 10**15, rng_stream(8))
    assert np.all(counts.sum(axis=1) == 10**15)
    assert not np.any(counts[probs == 0.0])


def test_a_scaled_row_draws_the_same_counts():
    probs = np.array([[0.0, 0.2, 1e-25, 0.8, 0.0], [1.0, 2.0, 3.0, 4.0, 1e-19]])
    counts = draw_counts(probs, 1000, rng_stream(9))
    for scale in (2.0**-900, 2.0**900):
        assert np.array_equal(draw_counts(probs * scale, 1000, rng_stream(9)), counts)


def test_postselect_and_expectation_of_a_matrix_act_per_row():
    counts = np.zeros((3, 16), dtype=np.int64)
    counts[0, [0b1100, 0b1000, 0b1110]] = (60, 25, 15)
    counts[1, [0b0011, 0b0001]] = (7, 5)
    counts[2, [0b0101, 0b1111]] = (1, 40)
    kept = postselect(counts, 2)
    assert np.array_equal(kept, [postselect(row, 2) for row in counts])
    coeff = np.linspace(-1.0, 2.0, 16)
    means, variances = expectation_with_variance(kept, coeff)
    assert means.shape == variances.shape == (3,)
    for row, mean, var in zip(kept, means, variances):
        assert (mean, var) == expectation_with_variance(row, coeff)
    with pytest.raises(ValueError, match="no shots"):
        expectation_with_variance(postselect(counts, 3), coeff)


def test_full_readout_flip():
    noisy = NoiseModel(p1=0.0, p2=0.0, p_readout=1.0)
    counts = sample(run(Circuit(3, ())), 100, noise=noisy, rng=rng_stream(1))
    assert counts.tolist() == [0] * 7 + [100]


@pytest.mark.parametrize("p_flip", [0.0, 0.13, 0.5])
@pytest.mark.parametrize("n", range(1, 6))
def test_readout_channel_matches_kron_reference(n, p_flip):
    probs = np.random.default_rng(n).random(1 << n)
    probs /= probs.sum()
    given_probs = probs.copy()
    flip = np.array([[1.0 - p_flip, p_flip], [p_flip, 1.0 - p_flip]])
    expected = reduce(np.kron, [flip] * n) @ probs
    assert np.abs(_readout_distribution(probs, n, p_flip) - expected).max() < 1e-15
    assert np.array_equal(probs, given_probs)


def test_postselect_filters_by_weight():
    counts = np.zeros(16, dtype=np.int64)
    counts[[0b1100, 0b1000, 0b1110]] = (60, 25, 15)
    kept = postselect(counts, 2)
    assert np.flatnonzero(kept).tolist() == [0b1100]
    assert kept[0b1100] == 60
    assert kept.sum() / counts.sum() == 0.6


def test_postselect_empty_result_allowed():
    kept = postselect(np.array([0, 0, 5, 0]), 2)
    assert not kept.any()
    with pytest.raises(ValueError):
        expectation_with_variance(kept, np.ones(4))


def test_expectation_closed_form():
    # basis order 00, 01, 10, 11; the value is +1 when qubit 1 is occupied
    counts = np.array([0, 25, 75, 0])
    mean, var = expectation_with_variance(counts, np.array([-1.0, -1.0, 1.0, 1.0]))
    assert abs(mean - 0.5) < 1e-12
    # population variance of +-1 outcomes over the counts, divided by shots
    assert abs(var - (1.0 - 0.5**2) / 100) < 1e-12


def test_single_outcome_has_zero_variance():
    counts = np.array([0, 0, 0, 40])
    mean, var = expectation_with_variance(counts, np.array([0.0, 1.0, 1.0, 2.0]))
    assert mean == 2.0
    assert var == 0.0


def test_noise_trajectories_deterministic():
    c = Circuit(3, (x(2), multi_cry((2,), 1, np.pi / 2), cnot(1, 2), cnot(2, 3)))
    noise = NoiseModel(p1=0.05, p2=0.2, p_readout=0.0)
    s1 = run(c, noise=noise, rng=rng_stream(4, 0))
    s2 = run(c, noise=noise, rng=rng_stream(4, 0))
    assert np.array_equal(s1, s2)
    others = [run(c, noise=noise, rng=rng_stream(4, k)) for k in range(1, 20)]
    assert any(not np.array_equal(s1, a) for a in others)


_DENSE_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, -1j], [1j, 0.0]]),
    np.diag([1.0, -1.0]),
)


def _dense_pauli(n, q, letter):
    """Pauli letter (0, 1, 2 = X, Y, Z) on qubit q of n; qubit 1 is the leftmost factor."""
    factors = [np.eye(2)] * n
    factors[q - 1] = _DENSE_PAULIS[letter]
    return reduce(np.kron, factors)


@pytest.mark.parametrize("p", [1.0, 0.5])
@pytest.mark.parametrize("key", range(4))
def test_pauli_errors_match_dense_reference(p, key):
    # replay the trajectory's draws on a second stream of the same key: one
    # random() per lowered gate and, on a hit, the Pauli on its qubits
    n = 4
    c = Circuit(
        n,
        (x(1), multi_cry((1,), 2, np.pi / 2), cnot(1, 3), cz(2, 4), multi_cry((1, 3), 4, 0.7)),
    )
    noise = NoiseModel(p1=p, p2=p, p_readout=0.0)
    draws = rng_stream(11, key)
    expected = np.zeros(1 << n, dtype=complex)
    expected[0] = 1.0
    for g in lower_circuit(c).gates:
        expected = circuit_unitary(Circuit(n, (g,))) @ expected
        if draws.random() < p:
            if len(g.qubits) == 1:
                expected = _dense_pauli(n, g.qubits[0], int(draws.integers(3))) @ expected
                continue
            for q, letter in zip(g.qubits, divmod(int(draws.integers(15)) + 1, 4)):
                if letter:
                    expected = _dense_pauli(n, q, letter - 1) @ expected
    assert phase_distance(expected, run(c, noise, rng_stream(11, key))) < 1e-12


def test_real_amplitudes_stay_float64_and_complex_stay_complex():
    c = random_circuit(4, 7)
    noise = NoiseModel(p1=0.5, p2=0.5, p_readout=0.0)
    real = np.eye(16)[:, :3]
    for out in (
        apply_circuit(c, real),
        apply_circuit(c, np.eye(16, dtype=int)[:, 0]),
        apply_circuit(c, real, noise, rng_stream(1)),
        run(c),
        run(c, noise, rng_stream(2)),
    ):
        assert out.dtype == np.float64
    # the kernel is linear and its noise draws do not read the state
    noisy = apply_circuit(c, real, noise, rng_stream(1))
    out = apply_circuit(c, 1j * real, noise, rng_stream(1))
    assert out.dtype == np.complex128
    assert np.abs(out - 1j * noisy).max() < 1e-15


def test_noisy_run_requires_rng():
    c = Circuit(2, (cnot(1, 2),))
    with pytest.raises(ValueError):
        apply_circuit(c, np.eye(4, dtype=complex)[:, 0], noise=NoiseModel(0.1, 0.1, 0.0))


def test_trajectory_fidelity_noiseless_is_one():
    c = Circuit(2, (x(1), cnot(1, 2)))
    ideal = run(c)
    silent = NoiseModel(p1=0.0, p2=0.0, p_readout=0.0)
    _, est = trajectory_fidelity(ideal, c, silent, 8, 2, seed=1)
    assert est.fidelity == 1.0
    assert est.kept_fraction_mean == 1.0


def test_trajectory_fidelity_postselection_helps():
    c = Circuit(4, (x(1), x(2), cnot(1, 3), cnot(2, 4), cnot(1, 2), cnot(3, 4)))
    ideal = run(c)
    noise = NoiseModel(p1=0.01, p2=0.05, p_readout=0.0)
    raw, ps = trajectory_fidelity(ideal, c, noise, 300, 2, seed=3)
    assert ps.kept_fraction_mean < 1.0
    assert ps.fidelity > raw.fidelity
    assert raw.stderr > 0.0


def test_noise_presets_load():
    presets = load_noise_presets()
    assert set(presets) == {"ibm_auckland", "ibm_lima", "ionq_harmony"}
    for nm in presets.values():
        assert 0.0 < nm.p2 < 0.1
        assert nm.p1 < nm.p2
