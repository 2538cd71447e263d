"""The Jordan-Wigner basis convention and its occupation tables.

Occupation convention: qubit |1> = occupied, so the number operator maps
to (I - Z)/2.  Qubit p corresponds to spin orbital p (1-based), written
leftmost-first in bitstrings; basis index of |b_1 ... b_N> is
sum_p b_p 2^(N-p).  The annihilator a_p is Z_1 ... Z_(p-1) (X_p + i Y_p)/2,
so a ladder operator on qubit p carries the sign (-1)^(occupied qubits
1 .. p-1).
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
