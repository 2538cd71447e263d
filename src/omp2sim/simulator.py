"""Statevector execution, shot sampling, noise, and post-selection.

Exact and noiseless circuits conserve particle number, so they run in
the fixed-number sector: only the amplitudes of basis states with
n_electrons set bits are stored, and each Givens triple
CNOT(p,p+1) MULTI_CRY((p+1,),p) CNOT(p,p+1) is one rotation on
precomputed row pairs (`NumberSector`).  Every gate on that path is real,
so sector amplitudes keep their input's floating dtype and a float64
batch stays float64.  Noisy circuits run on all 2^N complex amplitudes,
because a Pauli error leaves the sector and Y is not real.

Noise is a stochastic Pauli trajectory model: after each gate, with
probability p1 (one-qubit) or p2 (two-qubit), a uniformly random
non-identity Pauli acts on the gate's qubits; measurement flips each
read bit with probability p_readout.  Multi-controlled rotations are
lowered to their CRY/CNOT network before noisy execution so error
counts follow the depth accounting.

States and shots are plain arrays: `run` returns the normalized 2^N
amplitudes, `sample` returns multinomial shot counts indexed like those
amplitudes, and `postselect` returns the counts with every outcome of
another electron number zeroed, so the kept fraction is kept shots over
all shots.  Every stochastic routine draws from a generator derived from
(seed, stream key) so counts are bit-reproducible regardless of
execution order.
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
from .jw import hamming_weights

SEED_ENV_VAR = "OMP2SIM_SEED"

_PAULIS_1Q = ("X", "Y", "Z")


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
    text = os.environ.get(SEED_ENV_VAR, "1")
    if not text.strip().isdecimal():
        raise ValueError(f"{SEED_ENV_VAR} must be a non-negative integer, got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# gate application on a (2,)*n (+ batch axes) tensor, in place


def _apply_1q(tensor, q, mat):
    t = np.moveaxis(tensor, q - 1, 0)
    a0 = t[0].copy()
    a1 = t[1].copy()
    t[0] = mat[0, 0] * a0 + mat[0, 1] * a1
    t[1] = mat[1, 0] * a0 + mat[1, 1] * a1


def _apply_pauli(tensor, q, letter):
    t = np.moveaxis(tensor, q - 1, 0)
    if letter == "X":
        tmp = t[0].copy()
        t[0] = t[1]
        t[1] = tmp
    elif letter == "Y":
        tmp = t[0].copy()
        t[0] = -1j * t[1]
        t[1] = 1j * tmp
    else:
        t[1] = -t[1]


def _ry_matrix(angle):
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]])


_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def _apply_gate(tensor, g: Gate):
    kind = g.kind
    if kind == "X":
        _apply_pauli(tensor, g.qubits[0], "X")
    elif kind == "H":
        _apply_1q(tensor, g.qubits[0], _H_MATRIX)
    elif kind == "RY":
        _apply_1q(tensor, g.qubits[0], _ry_matrix(g.angle))
    elif kind == "RZ":
        half = g.angle / 2.0
        t = np.moveaxis(tensor, g.qubits[0] - 1, 0)
        t[0] = t[0] * complex(math.cos(half), -math.sin(half))
        t[1] = t[1] * complex(math.cos(half), math.sin(half))
    elif kind == "CNOT":
        c, tq = g.qubits
        t = np.moveaxis(tensor, (c - 1, tq - 1), (0, 1))
        tmp = t[1, 0].copy()
        t[1, 0] = t[1, 1]
        t[1, 1] = tmp
    elif kind == "CZ":
        a, b = g.qubits
        t = np.moveaxis(tensor, (a - 1, b - 1), (0, 1))
        t[1, 1] = -t[1, 1]
    elif kind == "MULTI_CRY":
        controls, target = g.controls, g.target
        axes = tuple(q - 1 for q in (*controls, target))
        t = np.moveaxis(tensor, axes, range(len(axes)))
        sub = t[(1,) * len(controls)]
        c, s = math.cos(g.angle / 2.0), math.sin(g.angle / 2.0)
        a0 = sub[0].copy()
        a1 = sub[1].copy()
        sub[0] = c * a0 - s * a1
        sub[1] = s * a0 + c * a1
    else:
        raise ValueError(f"unknown gate kind {kind}")


@dataclass(frozen=True, eq=False)
class NumberSector:
    """Basis states of n_qubits with exactly n_electrons set bits.

    states holds their sorted basis indices; sector amplitudes are the
    full-space amplitudes gathered at states.  pairs[p - 1] is (rows_p,
    rows_q) for the adjacent qubits (p, q = p + 1): sector rows with p
    occupied and q empty, and, at the same positions, the rows that
    differ from them only by moving that electron from p to q.
    """

    n_qubits: int
    n_electrons: int
    states: np.ndarray
    pairs: tuple[tuple[np.ndarray, np.ndarray], ...]

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
    pairs = []
    for p in range(1, n_qubits):
        bit_p, bit_q = 1 << (n_qubits - p), 1 << (n_qubits - p - 1)
        rows_p = np.flatnonzero((states & bit_p != 0) & (states & bit_q == 0))
        rows_q = np.searchsorted(states, states[rows_p] ^ (bit_p | bit_q))
        pairs.append((rows_p, rows_q))
    for a in (states, *(r for pair in pairs for r in pair)):
        a.setflags(write=False)
    return NumberSector(n_qubits, n_electrons, states, tuple(pairs))


def _apply_sector(c: Circuit, work: np.ndarray, sector: NumberSector) -> None:
    # only Givens triples (single_excitation) occur on the sector path; each
    # is the full-space CNOT/MULTI_CRY/CNOT restricted to its moved rows,
    # with _apply_gate's expressions, so the amplitudes are bit-identical
    gates = c.gates
    k = 0
    while k < len(gates):
        g = gates[k]
        p = g.qubits[0]
        if (
            g.kind != "CNOT"
            or g.qubits[1] != p + 1
            or k + 2 >= len(gates)
            or gates[k + 1].kind != "MULTI_CRY"
            or gates[k + 1].qubits != (p + 1, p)
            or gates[k + 2] != g
        ):
            raise ValueError(f"gate {g.to_text()!r} is not a Givens triple; no sector kernel")
        angle = gates[k + 1].angle
        c_, s_ = math.cos(angle / 2.0), math.sin(angle / 2.0)
        rows_p, rows_q = sector.pairs[p - 1]
        a0 = work[rows_q]
        a1 = work[rows_p]
        work[rows_q] = c_ * a0 - s_ * a1
        work[rows_p] = s_ * a0 + c_ * a1
        k += 3


def apply_circuit(
    c: Circuit,
    amplitudes: np.ndarray,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
    sector: NumberSector | None = None,
) -> np.ndarray:
    """Apply c to amplitudes of shape (2^N, ...batch); returns a new array.

    With noise, one stochastic Pauli trajectory is produced (rng required).
    With a sector, amplitudes have shape (sector.size, ...batch) and c
    must consist of Givens triples; anything else raises ValueError.
    The sector result keeps a floating input dtype (integers become
    float64); the full-space result is always complex.
    """
    if sector is not None:
        if noise is not None:
            raise ValueError("noisy execution leaves the number sector")
        if c.n_qubits != sector.n_qubits or amplitudes.shape[0] != sector.size:
            raise ValueError("amplitudes do not match the sector")
        work = amplitudes.astype(np.result_type(amplitudes, float))
        _apply_sector(c, work, sector)
        return work
    batch = amplitudes.shape[1:]
    work = amplitudes.astype(complex).reshape((2,) * c.n_qubits + batch)
    if noise is None:
        for g in c.gates:
            _apply_gate(work, g)
    else:
        if rng is None:
            raise ValueError("noisy execution needs an rng")
        for g in lower_circuit(c).gates:
            _apply_gate(work, g)
            p = noise.p1 if len(g.qubits) == 1 else noise.p2
            if p > 0.0 and rng.random() < p:
                if len(g.qubits) == 1:
                    _apply_pauli(work, g.qubits[0], _PAULIS_1Q[rng.integers(3)])
                else:
                    pick = int(rng.integers(15)) + 1  # 1..15 over (P_a, P_b) != (I, I)
                    pa, pb = divmod(pick, 4)
                    for q, letter_idx in zip(g.qubits, (pa, pb)):
                        if letter_idx:
                            _apply_pauli(work, q, _PAULIS_1Q[letter_idx - 1])
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
    flip = np.array([[1.0 - p_flip, p_flip], [p_flip, 1.0 - p_flip]])
    t = probs.reshape((2,) * n_qubits)
    for q in range(n_qubits):
        t = np.moveaxis(np.tensordot(flip, t, axes=([1], [q])), 0, q)
    return t.reshape(-1)


def sample(
    amplitudes: np.ndarray,
    shots: int,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Shot counts per basis state, indexed like amplitudes (one vector of 2^N)."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n_qubits = amplitudes.size.bit_length() - 1
    if amplitudes.ndim != 1 or n_qubits < 0 or amplitudes.size != 1 << n_qubits:
        raise ValueError(f"need one vector of 2^N amplitudes, got shape {amplitudes.shape}")
    probs = np.abs(amplitudes) ** 2
    probs /= probs.sum()
    if noise is not None and noise.p_readout > 0.0:
        probs = _readout_distribution(probs, n_qubits, noise.p_readout)
    if rng is None:
        rng = rng_stream(default_seed())
    return rng.multinomial(shots, probs)


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
    postselect_n: int | None = None,
    seed: int | None = None,
) -> FidelityEstimate:
    """Mean overlap of noisy trajectories of c with the ideal amplitudes.

    Post-selected overlaps project both states on the electron-number
    subspace, renormalize, and weight by the trajectory's kept norm.
    """
    if n_traj < 1:
        raise ValueError("need at least one trajectory")
    base_seed = default_seed() if seed is None else seed
    raw = np.empty(n_traj)
    if postselect_n is not None:
        mask = hamming_weights(c.n_qubits) == postselect_n
        ideal_p = ideal * mask
        ideal_norm = np.linalg.norm(ideal_p)
        if ideal_norm > 0:
            ideal_p = ideal_p / ideal_norm
        ps = np.empty(n_traj)
        kept = np.empty(n_traj)
    for t in range(n_traj):
        state = run(c, noise, rng_stream(base_seed, 0xF1D, t))
        raw[t] = abs(np.vdot(ideal, state)) ** 2
        if postselect_n is not None:
            proj = state * mask
            w = float(np.linalg.norm(proj) ** 2)
            kept[t] = w
            ps[t] = abs(np.vdot(ideal_p, proj / math.sqrt(w))) ** 2 if w > 0 else 0.0
    if postselect_n is None:
        return FidelityEstimate(
            fidelity=float(raw.mean()),
            stderr=float(raw.std(ddof=1) / math.sqrt(n_traj)) if n_traj > 1 else 0.0,
            n_trajectories=n_traj,
        )
    total_kept = kept.sum()
    fid = float(np.dot(kept, ps) / total_kept) if total_kept > 0 else 0.0
    # delta-method error of the kept-weighted mean
    if n_traj > 1 and total_kept > 0:
        resid = ps - fid
        stderr = float(
            np.linalg.norm(kept * resid) / total_kept * math.sqrt(n_traj / (n_traj - 1))
        )
    else:
        stderr = 0.0
    return FidelityEstimate(
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
