"""Fermionic operators, the Jordan-Wigner mapping, and dense matrices.

Occupation convention: qubit |1> = occupied, so the number operator maps
to (I - Z)/2.  Qubit p corresponds to spin orbital p (1-based), written
leftmost-first in bitstrings; basis index of |b_1 ... b_N> is
sum_p b_p 2^(N-p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COEFF_TOL = 1e-14
MAX_DENSE_QUBITS = 12

# single-qubit Pauli products: (left, right) -> (phase, result)
_PAULI_MUL = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}


@dataclass(frozen=True)
class FermionTerm:
    """coefficient * product of ladder operators, applied right to left."""

    coefficient: float
    ops: tuple[tuple[int, bool], ...]  # (1-based index, True = creation)

    def __post_init__(self):
        if len(self.ops) > 4:
            raise ValueError("ladder sequences longer than 4 unsupported")

    def dagger(self) -> "FermionTerm":
        return FermionTerm(
            self.coefficient, tuple((p, not dag) for p, dag in reversed(self.ops))
        )


@dataclass(frozen=True)
class PauliString:
    coefficient: complex
    letters: str

    def __post_init__(self):
        if any(c not in "IXYZ" for c in self.letters):
            raise ValueError(f"bad Pauli letters {self.letters!r}")


class QubitOperator:
    """Sparse sum of Pauli strings over a fixed qubit count."""

    def __init__(self, n_qubits: int, terms: dict[str, complex] | None = None):
        self.n_qubits = n_qubits
        self.terms: dict[str, complex] = {}
        if terms:
            for letters, coeff in terms.items():
                self._accumulate(letters, coeff)

    def _accumulate(self, letters: str, coeff: complex):
        if len(letters) != self.n_qubits:
            raise ValueError("letter pattern length mismatch")
        new = self.terms.get(letters, 0.0) + coeff
        if abs(new) < COEFF_TOL:
            self.terms.pop(letters, None)
        else:
            self.terms[letters] = new

    def __add__(self, other: "QubitOperator") -> "QubitOperator":
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit count mismatch")
        out = QubitOperator(self.n_qubits, dict(self.terms))
        for letters, coeff in other.terms.items():
            out._accumulate(letters, coeff)
        return out

    def __mul__(self, other):
        if np.isscalar(other):
            return QubitOperator(
                self.n_qubits, {k: v * other for k, v in self.terms.items()}
            )
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit count mismatch")
        out = QubitOperator(self.n_qubits)
        for la, ca in self.terms.items():
            for lb, cb in other.terms.items():
                phase = ca * cb
                letters = []
                for x, y in zip(la, lb):
                    ph, res = _PAULI_MUL[(x, y)]
                    phase *= ph
                    letters.append(res)
                out._accumulate("".join(letters), phase)
        return out

    __rmul__ = __mul__

    def pauli_strings(self) -> list[PauliString]:
        return [PauliString(c, l) for l, c in sorted(self.terms.items())]


def _ladder_qubit_op(p: int, creation: bool, n: int) -> QubitOperator:
    # a_p -> Z_1..Z_(p-1) (X_p + i Y_p)/2; creation takes the conjugate
    sign = -1j if creation else 1j
    zs = "Z" * (p - 1)
    tail = "I" * (n - p)
    return QubitOperator(n, {zs + "X" + tail: 0.5, zs + "Y" + tail: sign * 0.5})


def jw_map(terms, n_qubits: int) -> QubitOperator:
    """Map a FermionTerm or iterable of them onto Pauli strings."""
    if isinstance(terms, FermionTerm):
        terms = [terms]
    out = QubitOperator(n_qubits)
    for term in terms:
        acc = QubitOperator(n_qubits, {"I" * n_qubits: term.coefficient})
        # ops apply right to left; operator product order matches list order
        for p, creation in term.ops:
            if not 1 <= p <= n_qubits:
                raise ValueError(f"mode index {p} out of range")
            acc = acc * _ladder_qubit_op(p, creation, n_qubits)
        out = out + acc
    return out


def _parity(values: np.ndarray) -> np.ndarray:
    x = values.copy()
    shift = 1
    while (1 << shift) <= int(x.max(initial=1)):
        x ^= x >> shift
        shift *= 2
    x ^= x >> shift
    return x & 1


def operator_matrix(op: QubitOperator, n_qubits: int) -> np.ndarray:
    """Dense 2^N x 2^N matrix; each Pauli string is a signed permutation."""
    if n_qubits > MAX_DENSE_QUBITS:
        raise ValueError(f"dense matrices capped at {MAX_DENSE_QUBITS} qubits")
    dim = 1 << n_qubits
    cols = np.arange(dim)
    mat = np.zeros((dim, dim), dtype=complex)
    for letters, coeff in op.terms.items():
        flip = 0
        zmask = 0
        n_y = 0
        for k, letter in enumerate(letters):
            bit = 1 << (n_qubits - 1 - k)  # qubit 1 is the most significant bit
            if letter in "XY":
                flip |= bit
            if letter in "ZY":
                zmask |= bit
            if letter == "Y":
                n_y += 1
        rows = cols ^ flip
        signs = 1.0 - 2.0 * _parity(cols & zmask)
        mat[rows, cols] += coeff * (1j**n_y) * signs
    return mat


def occupations(n_qubits: int, states: np.ndarray | None = None) -> np.ndarray:
    """0/1 table: row k = basis index states[k] (default all 2^N in order),
    column q-1 = occupation of qubit q."""
    idx = np.arange(1 << n_qubits) if states is None else np.asarray(states)
    return (idx[:, None] >> np.arange(n_qubits - 1, -1, -1)) & 1


def hamming_weights(n_qubits: int) -> np.ndarray:
    return occupations(n_qubits).sum(axis=1)


def hamiltonian(si, e_core: float = 0.0) -> QubitOperator:
    """JW image of h1s + (1/2) h_pqrs a+_p a+_q a_r a_s (+ e_core as identity)."""
    n = si.n_spin
    terms = []
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            hpq = si.h1s[p - 1, q - 1]
            if abs(hpq) > COEFF_TOL:
                terms.append(FermionTerm(hpq, ((p, True), (q, False))))
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            for r in range(1, n + 1):
                for s in range(1, n + 1):
                    v = si.v2s(p, q, r, s)
                    if abs(v) > COEFF_TOL:
                        terms.append(
                            FermionTerm(
                                0.5 * v, ((p, True), (q, True), (r, False), (s, False))
                            )
                        )
    op = jw_map(terms, n)
    if e_core:
        op = op + QubitOperator(n, {"I" * n: e_core})
    return op
