"""The Jordan-Wigner basis convention, its occupation tables and spin strings.

Occupation convention: qubit |1> = occupied, so the number operator maps
to (I - Z)/2.  Qubit p corresponds to spin orbital p (1-based), written
leftmost-first in bitstrings; basis index of |b_1 ... b_N> is
sum_p b_p 2^(N-p).  The annihilator a_p is Z_1 ... Z_(p-1) (X_p + i Y_p)/2,
so a ladder operator on qubit p carries the sign (-1)^(occupied qubits
1 .. p-1).

Qubit 2k + 1 is spin orbital alpha_k and qubit 2k + 2 is beta_k (spatial
orbital k = 0 .. N/2 - 1).  This module owns the one numbering of the
alpha and beta strings a basis state splits into: a string is numbered as
the basis index of N/2 qubits with orbital k on qubit k + 1.
"""

from __future__ import annotations

import numpy as np


def occupations(n_qubits: int, states: np.ndarray | None = None) -> np.ndarray:
    """0/1 table: row k = basis index states[k] (default all 2^N in order),
    column q-1 = occupation of qubit q."""
    idx = np.arange(1 << n_qubits) if states is None else np.asarray(states)
    return (idx[:, None] >> np.arange(n_qubits - 1, -1, -1)) & 1


def hamming_weights(n_qubits: int) -> np.ndarray:
    return occupations(n_qubits).sum(axis=1)


def spin_strings(n_qubits: int, states) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The numbers of each basis state's alpha and beta strings, and its sign
    +-1.0 of moving every alpha creation operator ahead of every beta one:
    (-1)^(sum over beta electrons of the alpha electrons on later orbitals)."""
    m = n_qubits // 2
    occ = occupations(n_qubits, states).reshape(-1, m, 2)
    alpha, beta = np.einsum("dks,k->sd", occ, 1 << np.arange(m - 1, -1, -1))
    after = np.arange(m)[:, None] < np.arange(m)  # after[k, l]: orbital l is after k
    passes = np.einsum("dk,kl,dl->d", occ[:, :, 1], after, occ[:, :, 0])
    return alpha, beta, 1.0 - 2.0 * (passes % 2)
