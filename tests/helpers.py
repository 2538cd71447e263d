"""Test-only references: dense fermionic algebra built from raw kron chains,
full CI, a dense gate-by-gate circuit unitary and its one-particle block,
the double-excitation depth formula, and a phase-blind distance.

Kept independent of the package's operator machinery so tests have a
second opinion: annihilators are Z x .. x Z x lower x I x .. x I with
qubit 1 as the leftmost factor.  Full CI enumerates its own basis states
and builds the Hamiltonian term by term from the integrals; the circuit
unitary reads only the fields of each Gate, never the simulator kernels.
The depth formula is the one stated in the omp2sim.circuits docstring.
"""

from itertools import product

import numpy as np

from omp2sim.chem import SpinIntegrals
from omp2sim.circuits import Circuit, Gate

MAX_DENSE_CIRCUIT_QUBITS = 8

I2 = np.eye(2)
Z2 = np.diag([1.0, -1.0])
LOWER = np.array([[0.0, 1.0], [0.0, 0.0]])


def ladder_ops(n: int) -> list[np.ndarray]:
    """Annihilation operators a_1 .. a_n as dense 2^n matrices."""
    ops = []
    for p in range(1, n + 1):
        mats = [Z2] * (p - 1) + [LOWER] + [I2] * (n - p)
        full = mats[0]
        for m in mats[1:]:
            full = np.kron(full, m)
        ops.append(full)
    return ops


def excitation_matrices(n: int) -> np.ndarray:
    """E[p, q] = a+_p a_q as an (n, n, 2^n, 2^n) stack."""
    low = ladder_ops(n)
    dim = 1 << n
    e = np.zeros((n, n, dim, dim))
    for p in range(n):
        for q in range(n):
            e[p, q] = low[p].T @ low[q]
    return e


def dense_perturbation(t_spin: np.ndarray, si) -> np.ndarray:
    """sum T_pq a+_p a_q + 1/2 sum h_pqrs a+_p a+_q a_r a_s, dense."""
    n = si.n_spin
    e = excitation_matrices(n)
    h = np.zeros((n, n, n, n))
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            for r in range(1, n + 1):
                for s in range(1, n + 1):
                    h[p - 1, q - 1, r - 1, s - 1] = si.v2s(p, q, r, s)
    one = np.einsum("pq,pqab->ab", t_spin, e)
    # a+_p a+_q a_r a_s = E_ps E_qr - delta_sq E_pr
    two = 0.5 * np.einsum("pqrs,psab,qrbc->ac", h, e, e, optimize=True)
    two -= 0.5 * np.einsum("pqrq,prab->ab", h, e)
    return one + two


def dense_group_operator(g, n: int) -> np.ndarray:
    """sum_p linear_p N_p + weight/2 (sum_p factor_p N_p)^2 of one measurement
    group, with N_p the rotated spatial number operator of both spin channels."""
    low = ladder_ops(n)
    w = np.kron(g.rotation, I2)
    dim = 1 << n
    rotated_n = np.zeros((n, dim, dim))
    for q in range(n):
        d_dag = sum(w[p, q] * low[p].T for p in range(n))
        rotated_n[q] = d_dag @ d_dag.T
    spatial_n = rotated_n[0::2] + rotated_n[1::2]
    op = np.einsum("p,pab->ab", g.linear, spatial_n)
    square = np.einsum("p,pab->ab", g.factor, spatial_n)
    return op + 0.5 * g.weight * square @ square


def group_expectation_coefficients(g):
    """b -> sum_i d_i b_i + sum_ij d_ij b_i b_j over one spin-orbital
    occupation array, with d_i = linear[i // 2] and
    d_ij = weight/2 factor[i // 2] factor[j // 2]."""

    def coeff(occ: np.ndarray) -> float:
        total = 0.0
        for i, b_i in enumerate(occ):
            if not b_i:
                continue
            total += g.linear[i // 2]
            for j, b_j in enumerate(occ):
                if b_j:
                    total += 0.5 * g.weight * g.factor[i // 2] * g.factor[j // 2]
        return total

    return coeff


def operator_norm(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat, 2))


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max deviation after modding out a global phase."""
    flat_a = a.ravel()
    anchor = int(np.argmax(np.abs(flat_a)))
    ratio = b.ravel()[anchor] / flat_a[anchor]
    mag = abs(ratio)
    if mag < 1e-12:
        return float(np.abs(a - b).max())
    return float(np.abs(a * (ratio / mag) - b).max())


def double_excitation_depth_formula(i: int, j: int, a: int, b: int) -> int:
    """CNOT depth of circuits.double_excitation(i, j, a, b, omega)."""
    base = 17 + 2 * (0 if j == i + 1 else 1) + 2 * max(0, j - i - 2, b - a - 2)
    if j == i + 1 and b == a + 2:
        base += 2  # realizable minimum; see the omp2sim.circuits docstring
    return base


# ---------------------------------------------------------------------------
# exact diagonalization


def _number_block(si: SpinIntegrals, n_electrons: int) -> np.ndarray:
    """Hamiltonian on the basis states with n_electrons set bits, straight
    from the integrals (determinant CI: Knowles and Handy, Chem. Phys. Lett.
    111, 315 (1984)).

    Every nonzero term h1s[p, q] a+_p a_q and (1/2) h_pqrs a+_p a+_q a_r a_s
    acts on all those states at once; the ladder operator on qubit p flips
    bit 2^(N-p) and carries the sign (-1)^(occupied qubits 1 .. p-1), the
    convention of module jw.  Rows and columns follow the sorted states.
    """
    n = si.n_spin
    idx = np.arange(1 << n)
    weights = np.zeros(idx.size, dtype=np.int64)
    for q in range(n):
        weights += (idx >> q) & 1
    states = np.flatnonzero(weights == n_electrons)
    pos = np.full(idx.size, -1)
    pos[states] = np.arange(states.size)
    mat = np.zeros((states.size, states.size))

    def ladder(term, p: int, create: bool):
        # term: (columns, basis indices, signs) of the states not yet annihilated
        cols, x, signs = term
        bit = 1 << (n - p)
        keep = ((x & bit) == 0) == create
        x = x[keep]
        return cols[keep], x ^ bit, signs[keep] * (1 - 2 * (weights[x >> (n - p + 1)] & 1))

    def add(term, coeff: float):
        cols, x, signs = term
        rows = pos[x]
        if (rows < 0).any():
            raise ValueError("a Hamiltonian term leaves the number sector")
        # a ladder product maps distinct states to distinct states
        mat[rows, cols] += coeff * signs

    spin = range(1, n + 1)
    identity = (np.arange(states.size), states, np.ones(states.size))
    for q in spin:
        lowered = ladder(identity, q, False)
        for p in spin:
            if si.h1s[p - 1, q - 1]:
                add(ladder(lowered, p, True), si.h1s[p - 1, q - 1])
    for r, s in product(spin, spin):
        lowered = ladder(ladder(identity, s, False), r, False)
        for p, q in product(spin, spin):
            v = si.v2s(p, q, r, s)
            if v:
                add(ladder(ladder(lowered, q, True), p, True), 0.5 * v)
    return mat


def fci_energy(si: SpinIntegrals, e_core: float, n_electrons: int) -> float:
    mat = _number_block(si, n_electrons)
    if np.abs(mat - mat.T).max() > 1e-10:
        raise ValueError("number-block Hamiltonian is not symmetric")
    return float(np.linalg.eigvalsh(mat).min()) + e_core


# ---------------------------------------------------------------------------
# dense circuit unitary, built gate by gate without the simulator kernels


def _dense_gate(g: Gate, n_qubits: int) -> np.ndarray:
    dim = 1 << n_qubits
    cols = np.arange(dim)
    mat = np.zeros((dim, dim))

    def bit(q: int) -> int:
        return 1 << (n_qubits - q)

    if g.kind == "X":
        mat[cols ^ bit(g.qubits[0]), cols] = 1.0
    elif g.kind == "CNOT":
        c_b, t_b = bit(g.qubits[0]), bit(g.qubits[1])
        rows = np.where((cols & c_b) > 0, cols ^ t_b, cols)
        mat[rows, cols] = 1.0
    elif g.kind == "CZ":
        c_b, t_b = bit(g.qubits[0]), bit(g.qubits[1])
        both = ((cols & c_b) > 0) & ((cols & t_b) > 0)
        mat[cols, cols] = np.where(both, -1.0, 1.0)
    elif g.kind == "MULTI_CRY":
        t_b = bit(g.target)
        ctrl_mask = sum(bit(q) for q in g.controls)
        active = (cols & ctrl_mask) == ctrl_mask
        c, s = np.cos(g.angle / 2.0), np.sin(g.angle / 2.0)
        set_mask = (cols & t_b) > 0
        mat[cols, cols] = np.where(active, c, 1.0)
        # |0> -> c|0> + s|1>, |1> -> c|1> - s|0> on the target where controls are 1
        off = np.where(set_mask, -s, s)
        mat[cols[active] ^ t_b, cols[active]] = off[active]
    return mat


def circuit_unitary(c: Circuit) -> np.ndarray:
    if c.n_qubits > MAX_DENSE_CIRCUIT_QUBITS:
        raise ValueError("dense circuit unitary capped at 8 qubits")
    u = np.eye(1 << c.n_qubits)
    for g in c.gates:
        u = _dense_gate(g, c.n_qubits) @ u
    return u


def single_particle_action(circuit_unitary: np.ndarray, n_qubits: int) -> np.ndarray:
    """Extract V with U a+_m U^+ = sum_n V[n,m] a+_n from a number-conserving
    circuit unitary (restriction to the one-particle sector)."""
    idx = [1 << (n_qubits - p) for p in range(1, n_qubits + 1)]  # |e_p> basis states
    return circuit_unitary[np.ix_(idx, idx)]
