"""Test-only references: dense fermionic algebra built from raw kron chains,
the double-excitation depth formula, and a phase-blind distance.

Kept independent of the package's operator machinery so tests have a
second opinion: annihilators are Z x .. x Z x lower x I x .. x I with
qubit 1 as the leftmost factor.  The depth formula is the one stated in
the omp2sim.circuits docstring.
"""

import numpy as np

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
