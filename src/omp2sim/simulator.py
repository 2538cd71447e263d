"""Statevector execution, shot sampling, noise, and post-selection.

Exact mode runs no circuit here: the estimator takes its energies from
Wick's theorem on the probe determinants (`omp2`).  Noiseless shots run
the reference column preparation, the orbital rotation U(theta) and one
measurement rotation.  Every probe column is a determinant or
cos(omega) |ref> + sin(omega) |D> of two determinants, and both rotations
are spin-free, kron(u, I_2), and conserve particle number, so they run in
the fixed-number sector (`NumberSector`): only the amplitudes of basis
states with n_electrons set bits are stored, and `rotate_determinants`
gives the exact action of the compiled Givens network on each determinant,
one outer product of columns of the minors of u per determinant, the
determinant picture of the Fermionic Quantum Emulator (Rubin et al.,
Quantum 5, 568 (2021)).  u is real, so the rotated determinants are
float64.  `apply_circuit` runs gates on all 2^N complex amplitudes; noisy
circuits need it, because a Pauli error leaves the sector and Y is not
real.  Noiseless shots stay in the sector, so the estimator draws them
over the sector rows itself; `run`, `sample` and `postselect` serve the
noisy path.

One kernel does the full-space work: every gate, Pauli error and readout
flip is one 2x2 matrix on its target qubit under its controls (X for X
and CNOT, Z on CZ's second qubit, [[c, -s], [s, c]] for RY and MULTI_CRY,
[[1 - p, p], [p, 1 - p]] for a readout flip on each qubit).

Noise is a stochastic Pauli trajectory model: after each gate, with
probability p1 (one-qubit) or p2 (two-qubit), a uniformly random
non-identity Pauli acts on the gate's qubits; measurement flips each
read bit with probability p_readout.  Multi-controlled rotations are
lowered to their CRY/CNOT network before noisy execution so error
counts follow the depth accounting.

States and shots are plain arrays: `run` returns the normalized 2^N
amplitudes, `sample` returns shot counts indexed like those amplitudes,
and `postselect` returns the counts with every outcome of another
electron number zeroed, so the kept fraction is kept shots over all
shots.  Every count array, noisy or noiseless, comes from `draw_counts`,
one inverse-CDF lookup per shot.  Postselection reads what was drawn and
runs nothing again: `trajectory_fidelity` gives the raw and the
postselected fidelity of one set of trajectories.  Every stochastic
routine takes its generator or seed from the caller, and every generator
derives from (seed, stream key), so counts are bit-reproducible
regardless of execution order.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from importlib import resources

import numpy as np

from .circuits import Circuit, Gate, lower_circuit
from .jw import hamming_weights, occupations

SEED_ENV_VAR = "OMP2SIM_SEED"
_ROW_CHUNK = 1024  # sector rows per step of rotate_determinants

@dataclass(frozen=True)
class NoiseModel:
    p1: float
    p2: float
    p_readout: float

    def __post_init__(self):
        for p in (self.p1, self.p2, self.p_readout):
            if not 0.0 <= p <= 1.0:
                raise ValueError("noise probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class FidelityEstimate:
    fidelity: float
    stderr: float
    n_trajectories: int
    kept_fraction_mean: float | None = None


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key); order-independent reproducibility."""
    squashed = tuple(int(k) & 0xFFFFFFFF for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=squashed))


def default_seed() -> int:
    """The CLI's seed when --seed is not given: OMP2SIM_SEED, else 1."""
    text = os.environ.get(SEED_ENV_VAR, "1")
    if not text.strip().isdecimal():
        raise ValueError(f"{SEED_ENV_VAR} must be a non-negative integer, got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# the gate kernel: one 2x2 matrix on a target qubit where every control is 1

# matrices are ((m00, m01), (m10, m11)) tuples of Python numbers
_X = ((0.0, 1.0), (1.0, 0.0))
_Z = ((1.0, 0.0), (0.0, -1.0))
_PAULIS = (_X, ((0.0, -1j), (1j, 0.0)), _Z)  # X, Y, Z
_H = tuple(tuple(m / math.sqrt(2.0) for m in row) for row in ((1.0, 1.0), (1.0, -1.0)))
_FIXED_MATRICES = {"X": _X, "CNOT": _X, "CZ": _Z, "H": _H}


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
    if g.kind in _FIXED_MATRICES:
        return _FIXED_MATRICES[g.kind]
    if g.kind not in ("RY", "MULTI_CRY", "RZ"):
        raise ValueError(f"unknown gate kind {g.kind}")
    c, s = math.cos(g.angle / 2.0), math.sin(g.angle / 2.0)
    if g.kind == "RZ":
        return ((complex(c, -s), 0.0), (0.0, complex(c, s)))
    return ((c, -s), (s, c))


@dataclass(frozen=True, eq=False)
class NumberSector:
    """Basis states of n_qubits with exactly n_electrons set bits.

    states holds their sorted basis indices; sector amplitudes are the
    full-space amplitudes gathered at states.  occupations is the 0/1
    table jw.occupations(n_qubits, states).  For even n_qubits, qubit
    2k - 1 is spin orbital alpha_k and qubit 2k is beta_k, and the sector
    also holds the tables of rotate_determinants:

      subsets[k]: every k-subset of the n_qubits / 2 spatial orbitals
        (0-based), in itertools.combinations order.  A string of one
        spin is indexed by its row in the concatenation of subsets[0],
        subsets[1], ..., so strings of different lengths never share an
        index.
      alpha_strings, beta_strings: per sector row, the index of its alpha
        and of its beta string.
      spin_signs: +-1 per sector row, (-1)^(sum over beta electrons of
        the alpha electrons on later orbitals): the sign of moving every
        alpha creation operator ahead of every beta one.

    For odd n_qubits the four are None.
    """

    n_qubits: int
    n_electrons: int
    states: np.ndarray
    occupations: np.ndarray
    subsets: tuple[np.ndarray, ...] | None = None
    alpha_strings: np.ndarray | None = None
    beta_strings: np.ndarray | None = None
    spin_signs: np.ndarray | None = None

    @property
    def size(self) -> int:
        return self.states.size


@lru_cache(maxsize=None)
def number_sector(n_qubits: int, n_electrons: int) -> NumberSector:
    """The (cached, read-only) sector of n_electrons among n_qubits."""
    states = np.array(
        sorted(
            sum(1 << (n_qubits - p) for p in occ)
            for occ in combinations(range(1, n_qubits + 1), n_electrons)
        ),
        dtype=np.intp,
    )
    occ = occupations(n_qubits, states)  # column p - 1 is qubit p
    for a in (states, occ):
        a.setflags(write=False)
    if n_qubits % 2:
        return NumberSector(n_qubits, n_electrons, states, occ)
    n_orb = n_qubits // 2
    subsets = tuple(
        np.array(list(combinations(range(n_orb), k)), dtype=np.intp, ndmin=2)
        for k in range(n_orb + 1)
    )
    # index[mask] is the string index of the orbitals set in mask
    index = np.empty(1 << n_orb, dtype=np.intp)
    start = 0
    for rows in subsets:
        index[(1 << rows).sum(axis=1)] = np.arange(start, start + len(rows))
        start += len(rows)
    occ_a, occ_b = occ[:, 0::2], occ[:, 1::2]
    weights = 1 << np.arange(n_orb)
    alpha_strings, beta_strings = index[occ_a @ weights], index[occ_b @ weights]
    later_a = occ_a[:, ::-1].cumsum(axis=1)[:, ::-1] - occ_a
    spin_signs = 1.0 - 2.0 * ((occ_b * later_a).sum(axis=1) % 2)
    for a in (*subsets, alpha_strings, beta_strings, spin_signs):
        a.setflags(write=False)
    return NumberSector(
        n_qubits, n_electrons, states, occ, subsets, alpha_strings, beta_strings, spin_signs
    )


def rotate_determinants(w: np.ndarray, rows, sector: NumberSector) -> np.ndarray:
    """R(w)|det> for the determinant at each of the given sector rows.

    R(w) is the spin-free orbital rotation kron(w, I_2) for the (N/2, N/2)
    spatial matrix w; column j of the (sector.size, len(rows)) float64
    result, rows in sector.states order, equals
    apply_circuit(compile_orbital_rotation(np.kron(w, np.eye(2))),
    e)[sector.states] for the basis vector e of state states[rows[j]].
    With every alpha creation operator moved ahead of every beta one, the
    determinant of alpha string a and beta string b goes to
    Lambda(w)[:, a] (x) Lambda(w)[:, b], where Lambda(w) is the block
    diagonal of the matrices Lambda^k(w) of k x k minors of w (Rubin et
    al., Quantum 5, 568 (2021)): one outer product per determinant, read
    at the sector's strings, with spin_signs converting the determinant
    and each output row from and to qubit order.  Minors multiply, so
    R(v) R(w) = R(v w) (Cauchy-Binet).
    """
    if sector.spin_signs is None:
        raise ValueError("orbital rotations need an even number of qubits")
    n_orb = sector.n_qubits // 2
    w = np.asarray(w, dtype=float)
    if w.shape != (n_orb, n_orb):
        raise ValueError(f"w must be {n_orb} x {n_orb}, got shape {w.shape}")
    rows = np.asarray(rows)
    in_range = rows.dtype.kind in "iu" and np.all((rows >= 0) & (rows < sector.size))
    if rows.ndim != 1 or not in_range:
        raise ValueError(f"rows must index the {sector.size} rows of the sector")
    n_e = sector.n_electrons
    lam = np.zeros((1 << n_orb,) * 2)
    # the minors of sizes 0 and 1: the empty string, then one per orbital
    lam[0, 0] = 1.0
    lam[1 : n_orb + 1, 1 : n_orb + 1] = w
    start = n_orb + 1
    for k, strings in enumerate(sector.subsets[2:], start=2):
        stop = start + len(strings)
        if n_e - n_orb <= k <= n_e:  # a string length of the sector
            # Lambda^k(w)[I, J] = det w[I, J] over the k-subsets I, J
            lam[start:stop, start:stop] = np.linalg.det(
                w[strings[:, None, :, None], strings[None, :, None, :]]
            )
        start = stop
    # np.take copies whole rows, several times faster here than lam[index]
    alphas = lam[:, sector.alpha_strings[rows]] * sector.spin_signs[rows]
    out = np.take(alphas, sector.alpha_strings, axis=0)
    out *= sector.spin_signs[:, None]
    betas = lam[:, sector.beta_strings[rows]]
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
    """Apply c to amplitudes of shape (2^N, ...batch); returns a new complex array.

    With noise, one stochastic Pauli trajectory is produced (rng required).
    """
    if noise is not None and rng is None:
        raise ValueError("noisy execution needs an rng")
    batch = amplitudes.shape[1:]
    work = amplitudes.astype(complex).reshape((2,) * c.n_qubits + batch)
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
    """Normalized amplitudes of c applied to |0...0>."""
    zero = np.zeros(1 << c.n_qubits, dtype=complex)
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
    """Counts of shots draws from the distribution proportional to probs.

    Each shot is one uniform number x in [0, cdf[-1]) that picks the first
    outcome whose cumulative sum exceeds it (inverse CDF): an outcome of
    probability zero is never drawn, and a probability that roundoff moves
    between 0 and 1e-30 changes no other outcome's count.  The counts are
    bincount(searchsorted(cdf, x, side="right")); with the draws sorted,
    that is one search per outcome instead of one per shot.
    """
    cdf = np.cumsum(probs)
    draws = np.sort(rng.random(shots) * cdf[-1])
    return np.diff(np.searchsorted(draws, cdf), prepend=0)


def postselect(counts: np.ndarray, n_electrons: int) -> np.ndarray:
    """counts with every outcome of another electron number set to zero."""
    n_qubits = counts.size.bit_length() - 1
    return np.where(hamming_weights(n_qubits) == n_electrons, counts, 0)


def expectation_with_variance(counts: np.ndarray, coeff: np.ndarray) -> tuple[float, float]:
    """Empirical mean of coeff over the counts and its squared standard error.

    coeff holds one value per basis state, indexed like counts.
    """
    # summing only the observed outcomes, in basis order, fixes the float
    # rounding that seeded output is compared against byte for byte
    seen = np.flatnonzero(counts)
    if not seen.size:
        raise ValueError("no shots to average (all shots rejected?)")
    values = coeff[seen]
    weights = counts[seen].astype(float)
    total = weights.sum()
    mean = float(np.dot(weights, values) / total)
    var = float(np.dot(weights, (values - mean) ** 2) / total)
    return mean, var / total


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
        state = run(c, noise, rng_stream(seed, 0xF1D, t))
        raw[t] = abs(np.vdot(ideal, state)) ** 2
        proj = state * mask
        kept[t] = w = float(np.linalg.norm(proj) ** 2)
        ps[t] = abs(np.vdot(ideal_p, proj / math.sqrt(w))) ** 2 if w > 0 else 0.0
    raw_estimate = FidelityEstimate(
        fidelity=float(raw.mean()),
        stderr=float(raw.std(ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else 0.0,
        n_trajectories=n_traj,
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
        n_trajectories=n_traj,
        kept_fraction_mean=float(kept.mean()),
    )


# ---------------------------------------------------------------------------
# noise presets


def load_noise_presets(path=None) -> dict[str, NoiseModel]:
    if path is None:
        text = resources.files("omp2sim.data").joinpath("noise_presets.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    raw = json.loads(text)
    return {
        name: NoiseModel(
            p1=float(fields["p1"]),
            p2=float(fields["p2"]),
            p_readout=float(fields["p_readout"]),
        )
        for name, fields in raw["presets"].items()
    }
