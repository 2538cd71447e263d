"""Independent classical references for validating the circuit pipeline.

Everything here is computed without the statevector simulator, the
low-rank groups or the estimator, and with its own enumeration of basis
states: full CI on the fixed-number sector, built term by term from the
integrals, the closed-form second-order correlation energy, a dense
gate-by-gate circuit unitary, real as every gate is, and its one-particle
block, and the packaged reference energy tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from itertools import combinations, product

import numpy as np

from .chem import ActiveSpaceSpec, SpinIntegrals
from .circuits import Circuit, Gate

MAX_DENSE_CIRCUIT_QUBITS = 8
_ORDERING_SLACK = 1e-10


# ---------------------------------------------------------------------------
# packaged reference energies


@dataclass(frozen=True)
class ReferencePoint:
    """The packaged reference energies (hartree) of one geometry and its fixture's name."""

    distance_bohr: float
    e_hf: float
    e_mp2: float
    e_omp2: float
    e_fci: float
    orbital_energies: tuple[float, ...]
    fcidump: str


@dataclass(frozen=True)
class MoleculeReference:
    """One molecule's reference curve and the active space the CLI applies to it."""

    name: str
    n_electrons: int
    n_spatial: int
    active_space: ActiveSpaceSpec
    points: tuple[ReferencePoint, ...]

    def point_at(self, distance: float) -> ReferencePoint:
        for pt in self.points:
            if abs(pt.distance_bohr - distance) <= 1e-9:
                return pt
        raise KeyError(f"{self.name}: no reference at {distance} bohr")


@dataclass(frozen=True)
class ReferenceValues:
    """The packaged reference table, by molecule; `load` reads it."""

    source: str
    molecules: dict[str, MoleculeReference]

    @classmethod
    def load(cls, path=None) -> "ReferenceValues":
        if path is None:
            ref = resources.files("omp2sim.data") / "reference_values.json"
            raw = json.loads(ref.read_text())
        else:
            with open(path) as fh:
                raw = json.load(fh)
        if raw.get("schema") != 1:
            raise ValueError("unsupported reference table schema")
        molecules = {}
        for name, body in raw["molecules"].items():
            spec = ActiveSpaceSpec(
                frozen_occupied=tuple(body["active_space"]["frozen_occupied"]),
                deleted_virtual=tuple(body["active_space"]["deleted_virtual"]),
            )
            points = []
            for rec in body["points"]:
                pt = ReferencePoint(
                    distance_bohr=rec["distance_bohr"],
                    e_hf=rec["e_hf"],
                    e_mp2=rec["e_mp2"],
                    e_omp2=rec["e_omp2"],
                    e_fci=rec["e_fci"],
                    orbital_energies=tuple(rec["orbital_energies"]),
                    fcidump=rec["fcidump"],
                )
                _check_ordering(name, pt)
                points.append(pt)
            molecules[name] = MoleculeReference(
                name=name,
                n_electrons=body["n_electrons"],
                n_spatial=body["n_spatial"],
                active_space=spec,
                points=tuple(points),
            )
        return cls(source=raw["source"], molecules=molecules)


def _check_ordering(name: str, pt: ReferencePoint) -> None:
    chain = (pt.e_fci, pt.e_omp2, pt.e_mp2, pt.e_hf)
    for lo, hi in zip(chain, chain[1:]):
        if lo > hi + _ORDERING_SLACK:
            raise ValueError(
                f"{name} at {pt.distance_bohr}: reference energies out of order"
            )


def fixture_path(fcidump_name: str):
    return resources.files("omp2sim.data") / "fixtures" / fcidump_name


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


def hartree_fock_energy(si: SpinIntegrals, e_core: float, n_electrons: int) -> float:
    occ = range(1, n_electrons + 1)
    e = sum(si.h1s[i - 1, i - 1] for i in occ)
    for i, j in product(occ, occ):
        e += 0.5 * (si.v2s(i, j, j, i) - si.v2s(i, j, i, j))
    return float(e) + e_core


def canonical_mp2(si: SpinIntegrals, eps: np.ndarray, n_electrons: int) -> float:
    """Closed-form second-order correlation from antisymmetrized elements."""
    e2 = 0.0
    for i, j in combinations(range(1, n_electrons + 1), 2):
        for a, b in combinations(range(n_electrons + 1, si.n_spin + 1), 2):
            num = si.v2s(i, j, b, a) - si.v2s(i, j, a, b)
            if abs(num) < 1e-14:
                continue
            denom = eps[i - 1] + eps[j - 1] - eps[a - 1] - eps[b - 1]
            e2 += num * num / denom
    return float(e2)


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
