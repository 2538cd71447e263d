"""Circuit builders and exact depth accounting.

Gate alphabet: X, CNOT, CZ and MULTI_CRY with at least one control, the
gates the builders emit; every one is real.  Depth is counted over
2-qubit entangling gates only, after lowering multi-controlled rotations
to their CRY/CNOT network; a single-control MULTI_CRY is itself an
atomic 2-qubit gate.  X gates are free.  The lowering is the
Gray-code network of Barenco et al., PRA 52, 3457 (1995): k controls give
2^k - 1 CRYs by +-angle / 2^(k-1), one per nonzero k-bit Gray code, and
2^k - 2 CNOTs, all in sequence, so CNOT depth 2^(k+1) - 3.

Builders target the fermionic generators under the Jordan-Wigner
convention of module jw (qubit p = spin orbital p, |1> = occupied):

  single_excitation(p, alpha):  exp[alpha (a+_p a_{p+1} - h.c.)], depth 3
  double_excitation(i,j,a,b,w): exp[w (a+_a a+_b a_j a_i - h.c.)],
      depth 17 + 2(1 - d_{j,i+1}) + 2 max{0, j-i-2, b-a-2}, except the
      gap pattern (j = i+1, b = a+2) where the minimum realizable depth
      is 19, two above the formula: the lone string CZ cannot share a
      layer with the frame because every anchor qubit is busy in both
      edge layers, and folding it inside the frame provably cancels the
      very phase it must apply.  The tests' copy of this formula is
      double_excitation_depth_formula in tests/helpers.py.
  compile_orbital_rotation(U):  Givens network, depth exactly 3N
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

GIVENS_ZERO_TOL = 1e-14
ORTHO_TOL = 1e-10

ONE_QUBIT_KINDS = frozenset({"X"})
TWO_QUBIT_KINDS = frozenset({"CNOT", "CZ"})


@dataclass(frozen=True)
class Gate:
    """One gate of the alphabet on 1-based qubits, (*controls, target).

    MULTI_CRY rotates its target by a finite angle when every control is
    set; X, CNOT and CZ take no angle.
    """

    kind: str
    qubits: tuple[int, ...]  # (*controls, target) for every kind
    angle: float | None = None

    def __post_init__(self):
        if not all(isinstance(q, numbers.Integral) for q in self.qubits):
            raise ValueError(f"qubit indices must be integers, got {self.qubits!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError("gate operands must be distinct")
        if any(q < 1 for q in self.qubits):
            raise ValueError("qubit indices are 1-based")
        if self.kind not in ONE_QUBIT_KINDS | TWO_QUBIT_KINDS | {"MULTI_CRY"}:
            raise ValueError(f"unknown gate kind {self.kind!r}; gates are X, CNOT, CZ, MULTI_CRY")
        n_ops = len(self.qubits)
        if self.kind in ONE_QUBIT_KINDS and n_ops != 1:
            raise ValueError(f"{self.kind} takes one operand")
        if self.kind in TWO_QUBIT_KINDS and n_ops != 2:
            raise ValueError(f"{self.kind} takes two operands")
        if self.kind == "MULTI_CRY":
            if n_ops < 2:
                raise ValueError("MULTI_CRY needs at least one control")
            if not isinstance(self.angle, numbers.Real) or not math.isfinite(self.angle):
                raise ValueError(f"MULTI_CRY needs a finite angle, got {self.angle!r}")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle, got {self.angle!r}")

    @property
    def controls(self) -> tuple[int, ...]:
        return self.qubits[:-1]

    @property
    def target(self) -> int:
        return self.qubits[-1]


def x(q):
    return Gate("X", (q,))


def cnot(control, target):
    return Gate("CNOT", (control, target))


def cz(a, b):
    return Gate("CZ", (a, b))


def multi_cry(controls, target, angle):
    return Gate("MULTI_CRY", (*controls, target), angle)


@dataclass(frozen=True)
class Circuit:
    """A gate sequence on n_qubits qubits, applied first to last."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if max(g.qubits) > self.n_qubits:
                raise ValueError(f"gate {g} exceeds {self.n_qubits} qubits")


@dataclass(frozen=True)
class ResourceReport:
    """The entangling cost of a circuit after lowering: CNOT-layer depth and CNOT count."""

    cnot_depth: int
    cnot_count: int


def prep_reference(n_qubits: int, n_electrons: int) -> Circuit:
    """X on qubits 1..n_electrons: the closed-shell reference determinant."""
    if n_electrons > n_qubits:
        raise ValueError("more electrons than qubits")
    return Circuit(n_qubits, tuple(x(q) for q in range(1, n_electrons + 1)))


def single_excitation(p: int, alpha: float) -> tuple[Gate, ...]:
    """Givens rotation on adjacent modes (p, p+1); exact, CNOT depth 3."""
    q = p + 1
    return (cnot(p, q), multi_cry((q,), p, 2.0 * alpha), cnot(p, q))


def double_excitation(i: int, j: int, a: int, b: int, omega: float) -> tuple[Gate, ...]:
    """exp[omega (a+_a a+_b a_j a_i - h.c.)] for occupied i < j, virtual a < b."""
    if not i < j < a < b:
        raise ValueError("need i < j < a < b")

    # Jordan-Wigner string qubits inside the (i,j) and (a,b) gaps; the
    # (j,a) gap strings cancel between the two ladder terms
    gap_ij = list(range(i + 1, j))
    gap_ab = list(range(a + 1, b))

    # dressing: one CZ per string qubit, anchored so the serialized chains
    # realize the depth formula rather than beating it
    dressing = []
    if gap_ij:
        dressing += [cz(s, j) for s in gap_ij]
        dressing += [cz(s, a) for s in gap_ab]
    else:
        dressing += [cz(s, a) for s in gap_ab[:-1]]
        dressing += [cz(s, j) for s in gap_ab[-1:]]

    # the frame maps the excitation sector {|b_i b_j b_a b_b> = 1100, 0011}
    # onto {i=1, j=0, b=0, a free}: rotate the target conditioned on i
    # closed and j, b open (X-conjugated)
    frame = [cnot(i, j), cnot(a, b), cnot(a, i)]
    opens = [x(j), x(b)]
    rotation = [multi_cry((i, j, b), a, 2.0 * omega)]

    gates = list(dressing) + frame + opens + rotation + opens + frame[::-1] + dressing[::-1]
    return tuple(gates)


def lower_multi_cry(gate: Gate) -> list[Gate]:
    """Rewrite MULTI_CRY into single-control CRY (atomic) plus CNOTs.

    The Gray-code network of Barenco et al., PRA 52, 3457 (1995), for any
    number k of controls: one RY(+-angle / 2^(k-1)) on the target per
    nonzero k-bit Gray code, in Gray order, under the code's highest
    control, with + for an odd number of controls in the code.  One CNOT
    between codes leaves that control holding the parity of the code's
    controls, and the last code restores it.
    """
    if gate.kind != "MULTI_CRY":
        return [gate]
    controls, target = gate.controls, gate.target
    step = gate.angle / 2 ** (len(controls) - 1)
    gates = []
    for m in range(1, 1 << len(controls)):
        code = m ^ (m >> 1)
        high = code.bit_length() - 1
        if m > 1:
            # the control whose bit flips, or the old highest when the flip adds a new one
            flip = (m & -m).bit_length() - 1
            gates.append(cnot(controls[min(flip, high - 1)], controls[high]))
        gates.append(multi_cry((controls[high],), target, step if code.bit_count() % 2 else -step))
    return gates


def lower_circuit(c: Circuit) -> Circuit:
    """c with every multi-controlled MULTI_CRY lowered; c itself if it has none."""
    # only a MULTI_CRY with two or more controls has more than two operands
    if all(len(g.qubits) <= 2 for g in c.gates):
        return c
    gates = []
    for g in c.gates:
        gates.extend(lower_multi_cry(g))
    return Circuit(c.n_qubits, tuple(gates))


def compile_orbital_rotation(u: np.ndarray) -> Circuit:
    """Decompose special-orthogonal U into nearest-neighbor Givens layers.

    Zig-zag elimination: odd sweeps zero lower-triangle elements with
    column mixes (right factors), even sweeps with row mixes (left
    factors); two-argument arctangents keep every pivot nonnegative so
    the residual diagonal is the identity when det U = +1.  All
    N(N-1)/2 rotation slots are emitted, zero angles included, giving
    CNOT depth exactly 3N.
    """
    u = np.asarray(u, dtype=float)
    n = u.shape[0]
    if u.shape != (n, n):
        raise ValueError("square matrix required")
    if np.abs(u.T @ u - np.eye(n)).max() > ORTHO_TOL:
        raise ValueError("input is not orthogonal")
    if np.linalg.det(u) < 0:
        raise ValueError("det must be +1; fix the sign upstream")

    work = u.copy()
    right_records: list[tuple[int, float]] = []  # (pair p, angle) right factors, in order
    left_records: list[tuple[int, float]] = []

    for k in range(1, n):
        if k % 2 == 1:
            for step in range(k):
                row, col = n - step, k - step  # 1-based element to zero
                rr, cc = row - 1, col - 1
                if abs(work[rr, cc]) < GIVENS_ZERO_TOL and work[rr, cc + 1] >= 0:
                    angle = 0.0
                else:
                    angle = math.atan2(work[rr, cc], work[rr, cc + 1])
                g = _givens(n, col, angle)
                work = work @ g
                right_records.append((col, angle))
        else:
            for step in range(1, k + 1):
                row, col = n + step - k, step
                rr, cc = row - 1, col - 1
                if abs(work[rr, cc]) < GIVENS_ZERO_TOL and work[rr - 1, cc] >= 0:
                    angle = 0.0
                else:
                    angle = math.atan2(work[rr, cc], work[rr - 1, cc])
                g = _givens(n, row - 1, angle)
                work = g @ work
                left_records.append((row - 1, angle))

    # work is now diagonal +1 (orthogonality plus positive pivots);
    # U = L1^T ... Lq^T  D  Rp^T ... R1^T, so the circuit applies the
    # transposed right factors first (recorded order), then the
    # transposed left factors in reverse
    rotations = [(p, -ang) for p, ang in right_records]
    rotations += [(p, -ang) for p, ang in reversed(left_records)]

    gates: list[Gate] = []
    for layer in _rotation_layers(rotations):
        for p, ang in layer:
            gates.extend(single_excitation(p, ang))
    return Circuit(n, tuple(gates))


def _givens(n: int, p: int, angle: float) -> np.ndarray:
    # single-particle matrix of single_excitation(p, angle): the (p, p+1)
    # block is [[c, s], [-s, c]], 1-based p
    g = np.eye(n)
    c, s = math.cos(angle), math.sin(angle)
    g[p - 1 : p + 1, p - 1 : p + 1] = ((c, s), (-s, c))
    return g


def _rotation_layers(rotations: list[tuple[int, float]]) -> list[list[tuple[int, float]]]:
    # stable as-soon-as-possible packing; conflicting rotations keep order,
    # commuting disjoint ones share a layer
    layers: list[list[tuple[int, float]]] = []
    frontier: dict[int, int] = {}
    for p, ang in rotations:
        layer = max(frontier.get(p, 0), frontier.get(p + 1, 0)) + 1
        while len(layers) < layer:
            layers.append([])
        layers[layer - 1].append((p, ang))
        frontier[p] = layer
        frontier[p + 1] = layer
    return layers


def cnot_depth(c: Circuit) -> ResourceReport:
    """Greedy ASAP layering; only 2-qubit entangling gates advance depth."""
    lowered = lower_circuit(c)
    frontier: dict[int, int] = {}
    depth = 0
    cnots = 0
    for g in lowered.gates:
        if g.kind in ONE_QUBIT_KINDS:
            continue
        cnots += 1
        layer = max((frontier.get(q, 0) for q in g.qubits), default=0) + 1
        for q in g.qubits:
            frontier[q] = layer
        depth = max(depth, layer)
    return ResourceReport(cnot_depth=depth, cnot_count=cnots)
