"""Statevector execution, shot sampling, noise, and post-selection.

Exact mode runs no circuit and needs no measurement basis: the estimator
takes its energies in closed form from the integrals the groups measure,
rotated by u (`omp2`).  Noiseless shots run the reference column
preparation, the orbital rotation U(theta) and one measurement rotation.
Every probe column is a determinant or cos(omega) |ref> + sin(omega) |D>
of two determinants, and both rotations are spin-free, kron(u, I_2), and
conserve particle number, so they run in the fixed-number sector
(`NumberSector`): only the amplitudes of basis states with n_electrons
set bits are stored, and `rotate_determinants` gives the exact action of
the compiled Givens network on each determinant, one outer product of
columns of the minors of u per determinant, the determinant picture of
the Fermionic Quantum Emulator (Rubin et al., Quantum 5, 568 (2021)).
Determinants are given as basis states, and `jw.spin_strings` alone
splits them into their alpha and beta strings, numbered as jw numbers
them.  u is real, so the rotated determinants are float64.
`apply_circuit` runs gates on all 2^N amplitudes; noisy circuits need
it, because a Pauli error leaves the sector.  Noiseless shots stay in
the sector, so the estimator draws them over the sector rows itself;
`run` and `sample` serve the noisy path, whose counts the estimator
sums onto spatial occupation patterns as it does the sector's (`omp2`).

One kernel does the full-space work: every gate, Pauli error and readout
flip is one real 2x2 matrix on its target qubit under its controls (X
for X and CNOT, Z on CZ's second qubit, [[c, -s], [s, c]] for MULTI_CRY,
[[1 - p, p], [p, 1 - p]] for a readout flip on each qubit).  Every gate
the circuits hold is real, so a real state stays float64 from |0...0>
on; a complex input stays complex.

Noise is a stochastic Pauli trajectory model: after each gate, with
probability p1 (one-qubit) or p2 (two-qubit), a uniformly random
non-identity Pauli acts on the gate's qubits; measurement flips each
read bit with probability p_readout.  A Y error is applied as the real
[[0, -1], [1, 0]] = -iY, so a trajectory's state differs from the one Y
would give only by a global phase i^k, which no probability, count or
overlap modulus sees.  Multi-controlled rotations are lowered to their
CRY/CNOT network before noisy execution so error counts follow the depth
accounting.

States and shots are plain arrays: `run` returns the normalized 2^N
amplitudes, `sample` returns shot counts indexed like those amplitudes,
and `postselect` returns the counts with every outcome of another
electron number zeroed, so the kept fraction is kept shots over all
shots.  Every count array, noisy or noiseless, is one multinomial draw
per row in `draw_counts`; it, `postselect` and `expectation_with_variance`
take one row per circuit.  Postselection reads what was drawn and runs
nothing again: `trajectory_fidelity` gives the raw and the postselected
fidelity of one set of trajectories.  Every stochastic routine takes its
generator or seed from the caller, and every generator derives from (seed,
stream key), so counts are bit-reproducible regardless of execution order;
the `STREAM_*` constants name every stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from importlib import resources

import numpy as np

from .circuits import Circuit, Gate, lower_circuit
from .jw import hamming_weights, occupations, spin_strings

_ROW_CHUNK = 1024  # sector rows per step of rotate_determinants

@dataclass(frozen=True)
class NoiseModel:
    """Depolarizing rates after one- and two-qubit gates, and a readout flip probability."""

    p1: float
    p2: float
    p_readout: float

    def __post_init__(self):
        for p in (self.p1, self.p2, self.p_readout):
            if not 0.0 <= p <= 1.0:
                raise ValueError("noise probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class FidelityEstimate:
    """A mean trajectory fidelity and its standard error; a postselected one
    also carries the mean kept fraction."""

    fidelity: float
    stderr: float
    kept_fraction_mean: float | None = None


# the keys of every rng_stream; seeded output depends on their values
STREAM_SAMPLE = 0x5A  # (seed, group): a group's noiseless count matrix
STREAM_TRAJECTORY = 0x7A  # (seed, column, group, trajectory): one noisy trajectory
STREAM_FIDELITY = 0xF1D  # (seed, trajectory): one trajectory of trajectory_fidelity
STREAM_FINAL = 0xF1  # appended to the keys of optimize's final shots evaluation


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key); order-independent reproducibility."""
    squashed = tuple(int(k) & 0xFFFFFFFF for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=squashed))


# ---------------------------------------------------------------------------
# the gate kernel: one 2x2 matrix on a target qubit where every control is 1

# matrices are ((m00, m01), (m10, m11)) tuples of Python numbers
_X = ((0.0, 1.0), (1.0, 0.0))
_Z = ((1.0, 0.0), (0.0, -1.0))
_PAULIS = (_X, ((0.0, -1.0), (1.0, 0.0)), _Z)  # X, -iY, Z
_FIXED_MATRICES = {"X": _X, "CNOT": _X, "CZ": _Z}


def _apply_controlled(tensor, controls, target, mat):
    """tensor <- mat on qubit target where every qubit in controls is 1, in place.

    tensor has shape (2,)*N + batch, qubit q on axis q - 1; the two target
    halves are basic-index views, so nothing is transposed.  Diagonal and
    anti-diagonal matrices skip their zero terms.
    """
    index = [slice(None)] * max((target, *controls)) + [Ellipsis]  # Ellipsis keeps 0-d views
    for q in controls:
        index[q - 1] = 1
    index[target - 1] = 0
    a0 = tensor[tuple(index)]
    index[target - 1] = 1
    a1 = tensor[tuple(index)]
    (m00, m01), (m10, m11) = mat
    if m01 == 0 == m10:
        a0 *= m00
        a1 *= m11
    elif m00 == 0 == m11:
        a0[...], a1[...] = m01 * a1, m10 * a0
    else:
        a0[...], a1[...] = m00 * a0 + m01 * a1, m10 * a0 + m11 * a1


def _gate_matrix(g: Gate):
    """The 2x2 matrix a gate applies to its last qubit, controlled by the others."""
    if g.kind != "MULTI_CRY":
        return _FIXED_MATRICES[g.kind]
    c, s = math.cos(g.angle / 2.0), math.sin(g.angle / 2.0)
    return ((c, -s), (s, c))


@dataclass(frozen=True, eq=False)
class NumberSector:
    """Basis states of n_qubits (even) with exactly n_electrons set bits.

    states holds their sorted basis indices; sector amplitudes are the
    full-space amplitudes gathered at states.  Per state, alpha_strings,
    beta_strings and spin_signs are jw.spin_strings(n_qubits, states): its
    strings, in the one numbering that jw owns, and its spin sign.
    """

    n_qubits: int
    n_electrons: int
    states: np.ndarray
    alpha_strings: np.ndarray
    beta_strings: np.ndarray
    spin_signs: np.ndarray

    @property
    def size(self) -> int:
        return self.states.size


@lru_cache(maxsize=None)
def number_sector(n_qubits: int, n_electrons: int) -> NumberSector:
    """The (cached, read-only) sector of n_electrons among n_qubits (even)."""
    if n_qubits % 2:
        raise ValueError(f"a number sector needs an even number of qubits, got {n_qubits}")
    fillings = combinations(range(1, n_qubits + 1), n_electrons)
    states = np.array(sorted(sum(1 << (n_qubits - p) for p in f) for f in fillings), np.intp)
    tables = (states, *spin_strings(n_qubits, states))
    for a in tables:
        a.setflags(write=False)
    return NumberSector(n_qubits, n_electrons, *tables)


def rotate_determinants(w: np.ndarray, states, sector: NumberSector) -> np.ndarray:
    """R(w)|det> for the determinant of each of the given basis states.

    R(w) is the spin-free orbital rotation kron(w, I_2) for the (N/2, N/2)
    spatial matrix w.  Column j of the (sector.size, len(states)) float64
    result is apply_circuit(compile_orbital_rotation(np.kron(w, np.eye(2))),
    e)[sector.states] for the basis vector e of states[j], a sector state.
    With every alpha creation operator moved ahead of every beta one, the
    determinant of alpha string a and beta string b goes to
    Lambda(w)[:, a] (x) Lambda(w)[:, b], where Lambda(w)[I, J] = det w[I, J]
    for strings I, J of one length, numbered as in jw, and 0 between lengths
    (Rubin et al., Quantum 5, 568 (2021)): one outer product per
    determinant, read at the sector's strings, with the spin signs
    converting the determinant and each output row from and to qubit
    order.  Minors multiply, so R(v) R(w) = R(v w) (Cauchy-Binet).
    """
    n_orb = sector.n_qubits // 2
    w = np.asarray(w, dtype=float)
    if w.shape != (n_orb, n_orb):
        raise ValueError(f"w must be {n_orb} x {n_orb}, got shape {w.shape}")
    states = np.asarray(states)
    strings = occupations(n_orb)  # row s: the orbitals of string s
    lengths = strings.sum(axis=1)
    n_e = sector.n_electrons
    # states >> n_qubits is 0 for the basis states of n_qubits, -1 for negative ones
    valid = states.ndim == 1 and states.dtype.kind in "iu" and not np.any(states >> sector.n_qubits)
    if not valid or np.any(occupations(sector.n_qubits, states).sum(axis=1) != n_e):
        raise ValueError(f"states must be basis states of the sector's {n_e} electrons")
    alpha, beta, signs = spin_strings(sector.n_qubits, states)
    lam = np.zeros((1 << n_orb,) * 2)
    for k in range(max(0, n_e - n_orb), min(n_e, n_orb) + 1):  # the sector's string lengths
        numbers = np.flatnonzero(lengths == k)
        orbitals = np.nonzero(strings[numbers])[1].reshape(numbers.size, k)
        minors = w[orbitals[:, None, :, None], orbitals[None, :, None, :]]
        lam[numbers[:, None], numbers] = np.linalg.det(minors)
    # np.take copies whole rows, several times faster here than lam[index]
    out = np.take(lam[:, alpha] * signs, sector.alpha_strings, axis=0)
    out *= sector.spin_signs[:, None]
    betas = lam[:, beta]
    # a chunk of rows at a time, so the gathered beta factors stay in cache
    # instead of filling a second array the size of out
    for start in range(0, sector.size, _ROW_CHUNK):
        block = out[start : start + _ROW_CHUNK]
        block *= np.take(betas, sector.beta_strings[start : start + _ROW_CHUNK], axis=0)
    return out


def apply_circuit(
    c: Circuit,
    amplitudes: np.ndarray,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Apply c to amplitudes of shape (2^N, ...batch); returns a new array of
    the amplitudes' floating dtype (float64 for real or integer input).

    With noise, one stochastic Pauli trajectory is produced (rng required).
    """
    if noise is not None and rng is None:
        raise ValueError("noisy execution needs an rng")
    batch = amplitudes.shape[1:]
    work = amplitudes.astype(np.result_type(amplitudes, float)).reshape((2,) * c.n_qubits + batch)
    gates = c.gates if noise is None else lower_circuit(c).gates
    for g in gates:
        _apply_controlled(work, g.qubits[:-1], g.qubits[-1], _gate_matrix(g))
        if noise is None:
            continue
        p = noise.p1 if len(g.qubits) == 1 else noise.p2
        if p > 0.0 and rng.random() < p:
            # letter 0 is the identity, 1..3 are X, Y, Z
            if len(g.qubits) == 1:
                letters = (int(rng.integers(3)) + 1,)
            else:
                letters = divmod(int(rng.integers(15)) + 1, 4)  # (P_a, P_b) != (I, I)
            for q, letter in zip(g.qubits, letters):
                if letter:
                    _apply_controlled(work, (), q, _PAULIS[letter - 1])
    return work.reshape((-1,) + batch)


def run(
    c: Circuit,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Normalized float64 amplitudes of c applied to |0...0>."""
    zero = np.zeros(1 << c.n_qubits)
    zero[0] = 1.0
    amps = apply_circuit(c, zero, noise, rng)
    amps /= np.linalg.norm(amps)
    return amps


def _readout_distribution(probs: np.ndarray, n_qubits: int, p_flip: float) -> np.ndarray:
    flip = ((1.0 - p_flip, p_flip), (p_flip, 1.0 - p_flip))
    t = np.array(probs, dtype=float).reshape((2,) * n_qubits)
    for q in range(1, n_qubits + 1):
        _apply_controlled(t, (), q, flip)
    return t.reshape(-1)


def sample(
    amplitudes: np.ndarray,
    shots: int,
    noise: NoiseModel | None = None,
    *,
    rng: np.random.Generator,
) -> np.ndarray:
    """Shot counts per basis state, indexed like amplitudes (one vector of 2^N)."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n_qubits = amplitudes.size.bit_length() - 1
    if amplitudes.ndim != 1 or n_qubits < 0 or amplitudes.size != 1 << n_qubits:
        raise ValueError(f"need one vector of 2^N amplitudes, got shape {amplitudes.shape}")
    probs = np.abs(amplitudes) ** 2
    if noise is not None and noise.p_readout > 0.0:
        probs = _readout_distribution(probs, n_qubits, noise.p_readout)
    return draw_counts(probs, shots, rng)


def draw_counts(probs: np.ndarray, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Counts of shots draws from the distribution proportional to probs, or
    to each row of probs, one row per circuit; rows draw from rng in order.

    One multinomial draw per row, by one conditional binomial per outcome
    (Devroye, Non-Uniform Random Variate Generation, Springer 1986, ch. XI),
    so the cost grows with the outcomes, not the shots.  A probability below
    1e-20 of its row's sum is set to 0 and never drawn, so roundoff that
    moves one between 0 and 1e-30 changes no count; the mass so dropped,
    below n_outcomes * 1e-20 of the row's, goes to the row's largest
    outcome.  That outcome is drawn last, as the last takes every shot the
    binomials leave, so an outcome of probability 0 is never drawn.  A row
    with a non-finite sum, a negative entry or a zero sum raises ValueError.
    """
    rows = np.array(probs, dtype=float).reshape(-1, np.shape(probs)[-1])
    sums = rows.sum(axis=1)
    for bad, reason in (
        (~np.isfinite(sums), "has a non-finite sum"),
        ((rows < 0.0).any(axis=1), "has a negative entry"),
        (sums == 0.0, "sums to zero"),
    ):
        if bad.any():
            raise ValueError(f"probability row {np.flatnonzero(bad)[0]} {reason}")
    rows[rows < 1e-20 * sums[:, None]] = 0.0
    k, top, last = np.arange(len(rows)), rows.argmax(axis=1), rows.shape[1] - 1
    rows[k, top], rows[k, last] = rows[k, last], rows[k, top]
    counts = rng.multinomial(shots, rows / sums[:, None])
    counts[k, top], counts[k, last] = counts[k, last], counts[k, top]
    return counts.reshape(np.shape(probs))


def postselect(counts: np.ndarray, n_electrons: int) -> np.ndarray:
    """counts, one row of shot counts or one row per circuit, with every
    outcome of another electron number set to zero."""
    n_qubits = counts.shape[-1].bit_length() - 1
    return np.where(hamming_weights(n_qubits) == n_electrons, counts, 0)


def expectation_with_variance(counts: np.ndarray, coeff: np.ndarray):
    """Empirical mean of coeff over the counts and its squared standard error.

    counts is one row of shot counts, or one row per circuit; coeff holds
    one value per outcome, indexed like a row.  One row gives two scalars,
    a matrix two arrays with one entry per row.  The variance of the
    values is the plug-in one, over the n shots and not n - 1.
    """
    weights = np.asarray(counts, dtype=float)
    total = weights.sum(axis=-1)
    if not np.all(total):
        raise ValueError("no shots to average (all shots rejected?)")
    mean = (weights * coeff).sum(axis=-1) / total
    return mean, (weights * (coeff - mean[..., None]) ** 2).sum(axis=-1) / total / total


def trajectory_fidelity(
    ideal: np.ndarray,
    c: Circuit,
    noise: NoiseModel,
    n_traj: int,
    n_electrons: int,
    *,
    seed: int,
) -> tuple[FidelityEstimate, FidelityEstimate]:
    """(raw, postselected) mean overlap of noisy trajectories of c with the
    ideal amplitudes, both from the same trajectories.

    Post-selected overlaps project both states on the n_electrons subspace,
    renormalize, and weight by the trajectory's kept norm.
    """
    if n_traj < 1:
        raise ValueError("need at least one trajectory")
    mask = hamming_weights(c.n_qubits) == n_electrons
    ideal_p = ideal * mask
    ideal_norm = np.linalg.norm(ideal_p)
    if ideal_norm > 0:
        ideal_p = ideal_p / ideal_norm
    raw, ps, kept = np.empty((3, n_traj))
    for t in range(n_traj):
        state = run(c, noise, rng_stream(seed, STREAM_FIDELITY, t))
        raw[t] = abs(np.vdot(ideal, state)) ** 2
        proj = state * mask
        kept[t] = w = float(np.linalg.norm(proj) ** 2)
        ps[t] = abs(np.vdot(ideal_p, proj / math.sqrt(w))) ** 2 if w > 0 else 0.0
    raw_estimate = FidelityEstimate(
        fidelity=float(raw.mean()),
        stderr=float(raw.std(ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else 0.0,
    )
    total_kept = kept.sum()
    fid = float(np.dot(kept, ps) / total_kept) if total_kept > 0 else 0.0
    stderr = 0.0  # delta-method error of the kept-weighted mean
    if n_traj > 1 and total_kept > 0:
        norm = np.linalg.norm(kept * (ps - fid))
        stderr = float(norm / total_kept * math.sqrt(n_traj / (n_traj - 1)))
    return raw_estimate, FidelityEstimate(
        fidelity=fid,
        stderr=stderr,
        kept_fraction_mean=float(kept.mean()),
    )


# ---------------------------------------------------------------------------
# noise presets


def load_noise_presets() -> dict[str, NoiseModel]:
    text = resources.files("omp2sim.data").joinpath("noise_presets.json").read_text()
    raw = json.loads(text)
    return {
        name: NoiseModel(
            p1=float(fields["p1"]),
            p2=float(fields["p2"]),
            p_readout=float(fields["p_readout"]),
        )
        for name, fields in raw["presets"].items()
    }
