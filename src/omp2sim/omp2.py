"""Second-order correlation energy from occupation statistics of short circuits.

The energy splits as E = E0 + E1 + E2 against the frozen reference
spectrum.  E0 is the occupied-orbital energy sum.  E1 is the expectation
of the perturbation over the rotated reference, measured group by group
after each diagonalizing rotation.  E2 is assembled from residual matrix
elements r = <ref| V |double>, each extracted from three expectation
values: the same state interfered with one double excitation at quarter
and half turn.

All states are prepared by the same template: occupation prep, an
optional double excitation, the orbital-rotation circuit U(theta), and
one measurement rotation.  The orbital rotation carries the variational
parameters; everything before and after it is fixed per run, which is
what keeps the per-evaluation work linear in circuits.

theta enters as one spatial rotation u = exp(kappa), computed once per
evaluation; both spin channels rotate by it, kron(u, I_2), and group 0 is
diagonalized from the spatial perturbation T = h1 - u diag(eps) u^T.
Each probe column is cos(omega) |ref> + sin(omega) |D>, and exact mode
needs no amplitudes for it.  Measured after the rotation W = g^T u of
U(theta) and its group's measurement circuit, a group's sum_p f_p n_p is
the one-body operator A = sum_kv F_kv E_kv on the probe, with
F = W^T diag(f) W (f = linear for group 0).  On a determinant of occupied
spin orbitals o, Wick's theorem gives <A> = sum_{k in o} F_kk,
<A^2> = <A>^2 + sum over each spin of F_kv^2 (k in o, v not) and
<ref|A^2|D_ij^ab> = 2 (F_ia F_jb - F_ib F_ja), F zero between spins; a
two-body group is weight / 2 A^2.  So exact mode takes c^2 <ref|C|ref> +
s^2 <D|C|D> + 2cs <ref|C|D> for every group at once from M x M matrices.
Noiseless shots alone rotate determinants: each group rotates the
reference and one determinant per double once, by g^T u, in the
n_e-electron sector (`simulator.rotate_determinants`, pinned to the gate
kernel by the test suite, and the test reference of the Wick path), and
draws each column from (c R|ref> + s R|D>)^2 over the sector rows.
Neither path compiles a circuit.  The gates run only on the noisy path,
which alone holds 2^N amplitudes, counts and coefficients, and they back
the depth and resource accounting.  Postselection discards outcomes of the
counts already drawn: each count array is summed raw, then again over its
kept outcomes, and the raw estimate of those same draws is kept in
diagnostics["raw"].

Exact mode minimizes with the package's own L-BFGS (`_lbfgs`).  Its
gradient is the analytic OMP2 orbital gradient of the operator the circuits
measure, taken from the energy's closed form; the energy it minimizes and
reports still comes from the measured groups.  It stops on that gradient,
max |g| <= 1e-9, not on the change in energy: the e1/e2 split is not
stationary at the optimum, and this fixes it to about 1e-11, below the
1e-10 the CLI prints.  With the closed-form orbital exponentials of `chem`,
exact mode runs on numpy alone.  Shots mode runs scipy's Nelder-Mead on the
estimates, since a noiseless gradient must not steer a noisy estimate.
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .chem import (
    MolecularIntegrals,
    build_perturbation,
    expm_antisymmetric,
    expm_antisymmetric_adjoint,
    orbital_energies,
    spin_orbitalize,
)
from .circuits import (
    Circuit,
    cnot_depth,
    compile_orbital_rotation,
    double_excitation,
    lower_circuit,
    prep_reference,
)
from .jw import occupations
from .lowrank import (
    coefficient_vector,
    occupation_coefficients,
    one_body_group,
    two_body_groups,
)
from .simulator import (
    NoiseModel,
    draw_counts,
    expectation_with_variance,
    number_sector,
    postselect,
    rng_stream,
    rotate_determinants,
    run,
    sample,
)

DEGENERACY_TOL = 1e-8
MAX_QUBITS = 12

_OMEGAS = (np.pi / 4, np.pi / 2)  # the quarter and half turn of each double
_STREAM_SAMPLE = 0x5A
_STREAM_TRAJECTORY = 0x7A

_LBFGS_MEMORY = 10
_LBFGS_GTOL = 1e-9  # on max |gradient|
_ARMIJO_C1 = 1e-4
_ARMIJO_ULPS = 64  # the circuit energy's roundoff, up to about 60 ulps on H4
_MAX_BACKTRACKS = 30
_MAX_STEP = 1.0  # radians: the largest angle change of a trial step


class CapacityError(ValueError):
    """The problem needs more qubits than the simulator holds."""


class RejectedShotsError(ValueError):
    """Postselection rejected every shot of one circuit; no estimate can be formed."""


@dataclass(frozen=True)
class ThetaParams:
    """Independent rotation angles, one per (odd occupied, odd virtual) pair.

    Each value is shared by the corresponding even-index pair so both spin
    channels rotate identically.
    """

    n_spin: int
    n_electrons: int
    values: tuple[float, ...]

    def __post_init__(self):
        if self.n_spin % 2 or self.n_electrons % 2:
            raise ValueError("spin orbital and electron counts must be even")
        if len(self.values) != len(self.pairs):
            raise ValueError("wrong number of parameters")

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return pair_indices(self.n_spin, self.n_electrons)

    @classmethod
    def zeros(cls, n_spin: int, n_electrons: int) -> "ThetaParams":
        n_pairs = len(pair_indices(n_spin, n_electrons))
        return cls(n_spin, n_electrons, (0.0,) * n_pairs)

    def with_values(self, values) -> "ThetaParams":
        return replace(self, values=tuple(float(v) for v in values))

    def to_matrix(self) -> np.ndarray:
        """The M x M antisymmetric generator kappa over spatial orbitals.

        Both spin channels rotate by u = exp(kappa), the spin-orbital
        rotation kron(u, I_2).
        """
        m = self.n_spin // 2
        mat = np.zeros((m, m))
        for (p, q), v in zip(self.pairs, self.values):
            mat[(p - 1) // 2, (q - 1) // 2] = v
        return mat - mat.T


def pair_indices(n_spin: int, n_electrons: int) -> tuple[tuple[int, int], ...]:
    occ = range(1, n_electrons + 1, 2)
    virt = range(n_electrons + 1, n_spin + 1, 2)
    return tuple((p, q) for p in occ for q in virt)


@dataclass(frozen=True)
class DoubleExcitationIndex:
    i: int
    j: int
    a: int
    b: int

    def __post_init__(self):
        if not self.i < self.j < self.a < self.b:
            raise ValueError("indices must satisfy i < j < a < b")


def enumerate_doubles(n_spin: int, n_electrons: int) -> tuple[DoubleExcitationIndex, ...]:
    occ = range(1, n_electrons + 1)
    virt = range(n_electrons + 1, n_spin + 1)
    return tuple(
        DoubleExcitationIndex(i, j, a, b)
        for i in occ
        for j in occ
        if j > i
        for a in virt
        for b in virt
        if b > a
    )


@dataclass(frozen=True)
class EnergyBreakdown:
    e0: float
    e1: float
    e2: float
    variance: float
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def total(self) -> float:
        return self.e0 + self.e1 + self.e2


@dataclass(frozen=True)
class EstimatorConfig:
    mode: str = "exact"  # exact | shots
    shots: int = 100_000
    noise: NoiseModel | None = None
    postselect: bool = False
    truncation_tol: float = 1e-12
    seed: int = 1
    trajectories: int = 16

    def __post_init__(self):
        if self.mode not in ("exact", "shots"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.shots < 1:
            raise ValueError("shots must be positive")
        if self.trajectories < 1:
            raise ValueError("trajectories must be positive")
        if self.noise is not None and self.mode == "exact":
            raise ValueError("gate noise requires shots mode")
        if self.postselect and self.mode == "exact":
            raise ValueError("postselection requires shots mode")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0 < self.truncation_tol < math.inf:  # also rejects nan
            tol = self.truncation_tol
            raise ValueError(f"truncation_tol must be finite and above 0, got {tol}")


@dataclass(frozen=True)
class ResourceSummary:
    n_qubits: int
    n_parameters: int
    n_doubles: int
    n_groups: int
    circuits_per_evaluation: int
    reference_depth: int
    residual_depth_max: int
    cnot_count_reference: int
    cnot_count_residual_max: int


class Estimator:
    """Energy estimates and orbital optimization for one active-space problem."""

    def __init__(self, mi: MolecularIntegrals, cfg: EstimatorConfig | None = None):
        self.cfg = cfg or EstimatorConfig()
        self.mi = mi
        self.si = spin_orbitalize(mi)
        self.n_qubits = self.si.n_spin
        if self.n_qubits > MAX_QUBITS:
            raise CapacityError(f"{self.n_qubits} spin orbitals exceed the {MAX_QUBITS}-qubit cap")
        self.n_electrons = mi.n_electrons
        self.eps = orbital_energies(self.si, self.n_electrons)
        self.e_core = mi.e_core
        self.e0 = float(self.eps[: self.n_electrons].sum())
        self.pairs = pair_indices(self.n_qubits, self.n_electrons)
        self.doubles = enumerate_doubles(self.n_qubits, self.n_electrons)
        self._deltas = np.array(
            [
                self.eps[d.i - 1] + self.eps[d.j - 1] - self.eps[d.a - 1] - self.eps[d.b - 1]
                for d in self.doubles
            ]
        )
        self._skip = np.abs(self._deltas) < DEGENERACY_TOL
        if self._skip.any():
            warnings.warn(
                "degenerate excitation denominators; those doubles are skipped",
                stacklevel=2,
            )

        self._static_groups = two_body_groups(self.si.eri_spatial, self.cfg.truncation_tol)
        self.n_groups = 1 + len(self._static_groups)
        if not self._static_groups and self.si.eri_spatial.any():
            warnings.warn(
                f"truncation tol {self.cfg.truncation_tol:g} drops every two-body group; "
                "the energies leave out the two-electron interaction",
                stacklevel=2,
            )

        # exact mode evaluates every group on the probe determinants by Wick's
        # theorem, from M x M matrices; only noiseless shots need the sector
        # (its rows, coefficients and probe rows are built on first use)
        self._probes = _excited_columns(self.n_qubits, self.n_electrons, self.doubles, _OMEGAS)
        self._wick = _wick_tables(self.n_qubits, self._probes, self.doubles)
        m, groups = mi.n_spatial, self._static_groups
        self._rotations = np.array([g.rotation for g in groups]).reshape(-1, m, m)
        self._factors = np.array([g.factor for g in groups]).reshape(-1, m)
        self._half_weights = np.array([0.5 * g.weight for g in groups])
        self.n_evaluations = 0

    @cached_property
    def _column_gates(self) -> list[tuple]:
        """The gates that prepare each column: the noisy path and the depth accounting."""
        prep = prep_reference(self.n_qubits, self.n_electrons)
        return [prep.gates] + [
            prep.gates + double_excitation(d.i, d.j, d.a, d.b, omega)
            for d in self.doubles
            for omega in _OMEGAS
        ]

    # -- measurement plumbing ------------------------------------------------

    def _group0(self, u: np.ndarray):
        t = build_perturbation(self.mi.h1, self.eps[0::2], u)
        return one_body_group(t, self.mi.eri)

    def _groups_at(self, u: np.ndarray):
        """Every group at u, group 0 first."""
        return (self._group0(u), *self._static_groups)

    @cached_property
    def _sector(self):
        return number_sector(self.n_qubits, self.n_electrons)

    @cached_property
    def _sector_coeffs(self) -> tuple[np.ndarray, ...]:
        """The two-body groups' coefficients at the sector rows."""
        return tuple(
            occupation_coefficients(g, self._sector.occupations) for g in self._static_groups
        )

    @cached_property
    def _probe_rows(self) -> np.ndarray:
        """The sector rows of the probe determinants."""
        return np.searchsorted(self._sector.states, self._probes.states)

    def _rotated_determinants(self, u: np.ndarray):
        """Yield (coeff, x) per group: sector coefficients and the probe
        determinants after U(theta) and the group's measurement rotation."""
        groups = self._groups_at(u)
        group0 = occupation_coefficients(groups[0], self._sector.occupations)
        for g, coeff in zip(groups, (group0, *self._sector_coeffs)):
            # the measurement circuit is compiled from kron(rotation, I_2).T,
            # and R(rotation.T) R(u) = R(rotation.T u)
            yield coeff, rotate_determinants(g.rotation.T @ u, self._probe_rows, self._sector)

    def _column_energies_exact(self, u: np.ndarray):
        """Per column c |ref> + s |D>: c^2 <ref|C|ref> + s^2 <D|C|D> + 2cs <ref|C|D>,
        every group at once by Wick's theorem on F = W^T diag(f) W, W = g^T u
        (the module docstring gives the rules)."""
        g0, t = self._group0(u), self._wick
        # einsum sums without BLAS, so the rounding does not depend on the
        # BLAS build or its threads
        rotations = np.concatenate([g0.rotation[None], self._rotations])
        w = np.einsum("lqp,qk->lpk", rotations, u)
        f = np.einsum("lpk,lp,lpv->lkv", w, np.concatenate([g0.linear[None], self._factors]), w)
        # one value per distinct spin string, summed over each determinant's two
        alpha, beta = t.spin_strings
        traces = np.einsum("sk,lkk->ls", t.strings, f)
        means = traces[:, alpha] + traces[:, beta]
        f2 = f[1:]
        hops = np.einsum("sk,lkv,sv->ls", t.strings, f2 * f2, 1.0 - t.strings)
        hops = hops[:, alpha] + hops[:, beta]
        diagonal = means[0] + np.einsum("l,ld->d", self._half_weights, means[1:] ** 2 + hops)
        i, j, a, b = t.orbitals
        pairs = f2[:, i, a] * f2[:, j, b] * t.direct - f2[:, i, b] * f2[:, j, a] * t.exchange
        cross = np.zeros_like(diagonal)  # <ref|C|D>, 0 on the reference itself
        cross[1:] = 2.0 * np.einsum("l,ld->d", self._half_weights, pairs)
        c, s, d = self._probes.cos, self._probes.sin, self._probes.det
        e_cols = c**2 * diagonal[0] + s**2 * diagonal[d] + 2.0 * c * s * cross[d]
        return e_cols, np.zeros_like(e_cols)

    def _column_energies_shots(self, u: np.ndarray):
        """(energies, variances) per column of the raw counts, and (energies,
        variances, mean kept fraction) of the kept ones if postselecting, else
        None: postselection discards outcomes of the same draws."""
        cfg = self.cfg
        n_cols = self._probes.det.size
        raw = np.zeros((2, n_cols))
        kept_sums = np.zeros((2, n_cols))
        kept_fractions = []
        for l, (coeff, column_counts) in enumerate(self._shot_counts(u)):
            for col, counts in enumerate(column_counts):
                raw[:, col] += expectation_with_variance(counts, coeff)
                if not cfg.postselect:
                    continue
                if cfg.noise is not None:  # noiseless counts never leave the sector
                    counts = postselect(counts, self.n_electrons)
                kept = int(counts.sum())
                kept_fractions.append(kept / cfg.shots)
                if not kept:
                    raise RejectedShotsError(
                        f"postselection rejected all {cfg.shots} shots of circuit "
                        f"column {col} in measurement group {l}"
                    )
                kept_sums[:, col] += expectation_with_variance(counts, coeff)
        return raw, ((*kept_sums, float(np.mean(kept_fractions))) if cfg.postselect else None)

    def _shot_counts(self, u: np.ndarray):
        """Yield, per group, its coefficients and one count array per column.

        Noiseless counts never leave the sector, so they and the coefficients
        are indexed by sector row; noisy ones by basis state.
        """
        cfg = self.cfg
        p = self._probes
        if cfg.noise is not None:
            u_gates = compile_orbital_rotation(np.kron(u, np.eye(2))).gates
            for l, g in enumerate(self._groups_at(u)):
                suffix = u_gates + _measurement_circuit(g).gates
                yield coefficient_vector(g, self.n_qubits), (
                    self._noisy_shots(col, l, suffix) for col in range(p.det.size)
                )
            return
        for l, (coeff, x) in enumerate(self._rotated_determinants(u)):
            # a column's probabilities exist only while it is drawn
            yield coeff, (
                draw_counts(
                    (c * x[:, 0] + s * x[:, d]) ** 2,
                    cfg.shots,
                    rng_stream(cfg.seed, _STREAM_SAMPLE, col, l),
                )
                for col, (d, c, s) in enumerate(zip(p.det, p.cos, p.sin))
            )

    def _noisy_shots(self, col: int, l: int, suffix: tuple) -> np.ndarray:
        """Raw counts: cfg.shots split over trajectories, each run and sampled on its own stream."""
        cfg = self.cfg
        # lowered once here, so run's own lowering only scans the gates
        full = lower_circuit(Circuit(self.n_qubits, self._column_gates[col] + suffix))
        per = np.full(cfg.trajectories, cfg.shots // cfg.trajectories)
        per[: cfg.shots % cfg.trajectories] += 1
        counts = np.zeros(1 << self.n_qubits, dtype=np.int64)
        for t in np.flatnonzero(per):
            rng = rng_stream(cfg.seed, _STREAM_TRAJECTORY, col, l, t)
            state = run(full, noise=cfg.noise, rng=rng)
            counts += sample(state, int(per[t]), noise=cfg.noise, rng=rng)
        return counts

    def _assemble(self, e_cols, var_cols, kept_mean=None) -> EnergyBreakdown:
        e1 = float(e_cols[0])
        var_e1 = float(var_cols[0])
        e2 = 0.0
        var_e2 = 0.0
        residuals = []
        residual_vars = []
        for k, d in enumerate(self.doubles):
            if self._skip[k]:
                continue
            r = float(e_cols[1 + 2 * k] - 0.5 * e_cols[2 + 2 * k] - 0.5 * e1)
            var_r = float(var_cols[1 + 2 * k] + 0.25 * var_cols[2 + 2 * k] + 0.25 * var_e1)
            delta = self._deltas[k]
            e2 += r * r / delta
            var_e2 += (2.0 * r / delta) ** 2 * var_r
            residuals.append(((d.i, d.j, d.a, d.b), r))
            residual_vars.append(((d.i, d.j, d.a, d.b), var_r))
        diagnostics = {
            "residuals": tuple(residuals),
            "residual_variances": tuple(residual_vars),
            "var_e1": var_e1,
            "skipped_doubles": int(self._skip.sum()),
            "kept_fraction_mean": kept_mean,
        }
        return EnergyBreakdown(
            e0=self.e0, e1=e1, e2=float(e2), variance=var_e1 + var_e2, diagnostics=diagnostics
        )

    # -- public interface ----------------------------------------------------

    def mp2_energy(self, theta: ThetaParams) -> EnergyBreakdown:
        """E0 + E1 + E2 (electronic part; add mi.e_core for the total energy).

        Postselecting, it is the kept shots' estimate; diagnostics["raw"] is all shots'.
        """
        self.n_evaluations += 1
        u = expm_antisymmetric(theta.to_matrix())
        if self.cfg.mode == "exact":
            return self._assemble(*self._column_energies_exact(u))
        raw, kept = self._column_energies_shots(u)
        bd = self._assemble(*(kept or raw))
        if kept is not None:
            bd.diagnostics["raw"] = self._assemble(*raw)
        return bd

    def optimize(self, maxiter: int = 200) -> tuple[ThetaParams, EnergyBreakdown]:
        """Minimize the total electronic energy over the rotation angles."""
        theta0 = ThetaParams.zeros(self.n_qubits, self.n_electrons)
        n_par = len(theta0.values)
        evaluated = {}

        def fun(x):
            theta = theta0.with_values(x)
            bd = evaluated[theta.values] = self.mp2_energy(theta)
            return bd.total

        if n_par == 0:
            # a filled shell has no rotation angles, so theta = 0 is the answer
            res = _OptimizeResult(np.zeros(0), True, 0, "no parameters")
        elif self.cfg.mode == "exact":
            h, eri = self._measured_integrals()
            eps = self.eps[0::2]

            def jac(x):
                return _omp2_energy_and_gradient(h, eri, eps, theta0.with_values(x))[1]

            res = _lbfgs(fun, jac, np.zeros(n_par), maxiter)
        else:
            # imported here so exact runs never load scipy, and on one BLAS
            # thread, as numpy's OpenBLAS is loaded
            from . import _one_blas_thread

            with _one_blas_thread():
                from scipy.optimize import minimize

            res = minimize(
                fun,
                np.zeros(n_par),
                method="Nelder-Mead",
                options={"maxiter": maxiter, "xatol": 1e-3, "fatol": 1e-6},
            )
        theta = theta0.with_values(res.x)
        # every sample and trajectory stream is keyed by (seed, column, group,
        # trajectory), so a stored evaluation equals a fresh one
        bd = evaluated.get(theta.values)
        if bd is None:
            bd = self.mp2_energy(theta)
        bd.diagnostics.update(
            converged=bool(res.success),
            n_iterations=int(res.nit),
            n_evaluations=self.n_evaluations,
            optimizer_message=str(res.message),
        )
        return theta, bd

    def _measured_integrals(self) -> tuple[np.ndarray, np.ndarray]:
        """Spatial (h1, eri) of the operator the circuits measure.

        The two-body part is what the kept groups rebuild.  A dropped
        eigenpair leaves only its reordering term -1/2 sum_r (pr|rq), which
        group 0 still carries.
        """
        eri = np.zeros_like(self.mi.eri)
        for g in self._static_groups:
            # a group adds w g_pq g_rs, with g = O diag(f) O^T its eigenvector
            o, wff = g.rotation, g.weight * np.outer(g.factor, g.factor)
            eri += np.einsum("ab,pa,qa,rb,sb->pqrs", wff, o, o, o, o)
        h1 = self.mi.h1 - 0.5 * np.einsum("prrq->pq", self.mi.eri - eri)
        return h1, eri

    def measurement_circuits(self, theta: ThetaParams) -> tuple[Circuit, ...]:
        """The measurement rotation of every group at theta, group 0 first."""
        u = expm_antisymmetric(theta.to_matrix())
        return tuple(_measurement_circuit(g) for g in self._groups_at(u))

    def resource_summary(self) -> ResourceSummary:
        # every measurement circuit has the same gates, all Givens slots
        # emitted, and only their angles differ: group 0 stands for them all
        meas = _measurement_circuit(self._group0(np.eye(self.n_qubits // 2)))
        suffix = compile_orbital_rotation(np.eye(self.n_qubits)).gates + meas.gates
        ref = cnot_depth(Circuit(self.n_qubits, self._column_gates[0] + suffix))
        # one column per double: its quarter and half turn differ only in angle
        res = [cnot_depth(Circuit(self.n_qubits, c + suffix)) for c in self._column_gates[1::2]]
        return ResourceSummary(
            n_qubits=self.n_qubits,
            n_parameters=len(self.pairs),
            n_doubles=len(self.doubles),
            n_groups=self.n_groups,
            circuits_per_evaluation=(1 + len(_OMEGAS) * len(self.doubles)) * self.n_groups,
            reference_depth=ref.cnot_depth,
            residual_depth_max=max((r.cnot_depth for r in res), default=0),
            cnot_count_reference=ref.cnot_count,
            cnot_count_residual_max=max((r.cnot_count for r in res), default=0),
        )


def _measurement_circuit(g) -> Circuit:
    """The rotation that diagonalizes group g, compiled from kron(rotation, I_2).T."""
    return compile_orbital_rotation(np.kron(g.rotation, np.eye(2)).T)


class _ProbeColumns(NamedTuple):
    """Column k is cos[k] |states[0]> + sin[k] |states[det[k]]>.

    states holds basis indices: the reference, then one determinant per double.
    """

    states: np.ndarray
    det: np.ndarray
    cos: np.ndarray
    sin: np.ndarray


def _excited_columns(n_qubits, n_electrons, doubles, omegas) -> _ProbeColumns:
    """The probe columns: |ref>, then each double at each omega on |ref>.

    exp[omega (a+_a a+_b a_j a_i - h.c.)] |ref> = cos(omega) |ref> +
    (-1)^(i+j+1) sin(omega) |D>, with D the reference with i, j emptied and
    a, b filled; these are the values the gates produce, bit for bit.
    Column 0 is the reference alone: cos 1 and sin 0 on states[0].
    """
    n = n_qubits
    ref = ((1 << n_electrons) - 1) << (n - n_electrons)
    moved = [sum(1 << (n - p) for p in (d.i, d.j, d.a, d.b)) for d in doubles]
    states = np.array([ref] + [ref ^ m for m in moved], dtype=np.intp)
    signs = [_excitation_sign(d) for d in doubles]
    det = [0] + [k for k in range(1, len(states)) for _ in omegas]
    cos = [1.0] + [math.cos(omega) for _ in doubles for omega in omegas]
    sin = [0.0] + [sign * math.sin(omega) for sign in signs for omega in omegas]
    return _ProbeColumns(states, np.array(det), np.array(cos), np.array(sin))


def _excitation_sign(d: DoubleExcitationIndex) -> float:
    """a+_a a+_b a_j a_i |ref> = (-1)^(i+j+1) |D> in the Jordan-Wigner basis."""
    return 1.0 if (d.i + d.j) % 2 else -1.0


class _WickTables(NamedTuple):
    """The probe determinants as Wick's theorem reads them.

    strings[s, k] is 1 where spin string s fills spatial orbital k, over the
    distinct alpha and beta strings of the probe determinants; determinant d
    is alpha string spin_strings[0, d] and beta string spin_strings[1, d].
    Per double: orbitals holds the spatial i, j, a, b, and direct and
    exchange the Jordan-Wigner sign where spins i, a and j, b (direct) or
    i, b and j, a (exchange) agree, else 0.
    """

    strings: np.ndarray
    spin_strings: np.ndarray
    orbitals: np.ndarray
    direct: np.ndarray
    exchange: np.ndarray


def _wick_tables(n_qubits, probes: _ProbeColumns, doubles) -> _WickTables:
    m = n_qubits // 2
    # qubit 2k + 1 is spin orbital alpha_k, qubit 2k + 2 is beta_k; a spin
    # string is numbered as the basis index of m qubits, orbital 0 first
    occupied = occupations(n_qubits, probes.states).reshape(-1, m, 2)
    numbers = np.einsum("dks,k->sd", occupied, 1 << np.arange(m - 1, -1, -1)).tolist()
    index = {}
    spin_strings = [[index.setdefault(x, len(index)) for x in row] for row in numbers]
    spin_orbitals = np.array([(d.i, d.j, d.a, d.b) for d in doubles], dtype=np.intp).reshape(-1, 4)
    orbital, spin = np.divmod(spin_orbitals.T - 1, 2)
    signs = np.array([_excitation_sign(d) for d in doubles])
    return _WickTables(
        strings=occupations(m, np.array(list(index))).astype(float),
        spin_strings=np.array(spin_strings),
        orbitals=orbital,
        direct=signs * ((spin[0] == spin[2]) & (spin[1] == spin[3])),
        exchange=signs * ((spin[0] == spin[3]) & (spin[1] == spin[2])),
    )


def _omp2_energy_and_gradient(h1, eri, eps, theta: ThetaParams) -> tuple[float, np.ndarray]:
    """The exact-mode energy in closed form, and its gradient in theta.

    With U = exp(kappa), kappa = theta.to_matrix(), the
    energy is the Hartree-Fock energy of the integrals rotated by U plus
    sum_ijab (ia|jb)(2(ia|jb) - (ib|ja)) / Delta_ijab over the rotated
    integrals, with the frozen denominators Delta of the spatial orbital
    energies eps; |Delta| < DEGENERACY_TOL drops the term, as the estimator
    skips those doubles.  This is the OMP2 functional of Bozkaya, Turney,
    Yamaguchi, Schaefer and Sherrill, JCP 135, 104103 (2011).  dE/dU is
    pulled back to kappa through the adjoint Frechet derivative of exp.
    """
    n_occ = theta.n_electrons // 2
    kappa = theta.to_matrix()
    u = expm_antisymmetric(kappa)
    occ, virt = u[:, :n_occ], u[:, n_occ:]

    dens = occ @ occ.T
    fock = h1 + 2.0 * np.einsum("pqrs,rs->pq", eri, dens) - np.einsum("prsq,rs->pq", eri, dens)
    # (xy|jb) with x, y still in the original basis
    half = np.einsum("pqrs,rj,sb->pqjb", eri, occ, virt)
    xajb = np.einsum("xqjb,qa->xajb", half, virt)
    ovov = np.einsum("xajb,xi->iajb", xajb, occ)

    e_occ, e_virt = eps[:n_occ], eps[n_occ:]
    delta = e_occ[:, None, None, None] - e_virt[:, None, None] + e_occ[:, None] - e_virt
    keep = np.abs(delta) >= DEGENERACY_TOL
    amp = np.zeros_like(delta)
    amp[keep] = (2.0 * ovov - ovov.transpose(0, 3, 2, 1))[keep] / delta[keep]
    energy = float(np.sum(dens * (h1 + fock)) + np.sum(ovov * amp))

    grad_u = np.empty_like(u)
    grad_u[:, :n_occ] = 4.0 * (fock @ occ + np.einsum("xajb,iajb->xi", xajb, amp))
    grad_u[:, n_occ:] = 4.0 * np.einsum("xqjb,qi,iajb->xa", half, occ, amp)
    m = expm_antisymmetric_adjoint(kappa, grad_u)
    grad = m - m.T
    return energy, np.array([grad[(p - 1) // 2, (q - 1) // 2] for p, q in theta.pairs])


class _OptimizeResult(NamedTuple):
    x: np.ndarray
    success: bool
    nit: int
    message: str


def _lbfgs(fun, jac, x0, maxiter: int) -> _OptimizeResult:
    """Minimize fun from x0 by L-BFGS on its exact gradient jac.

    The search direction comes from the two-loop recursion over the last
    _LBFGS_MEMORY steps; a step whose s.y <= 0 is not stored, which keeps
    the inverse-Hessian estimate positive definite.  Each line search starts
    from the unit step, shortened so that no coordinate moves by more than
    _MAX_STEP (a steep start would otherwise throw the rotation angles across
    whole periods), and backs off until the Armijo condition holds, every cut
    set by the minimizer of the quadratic through f(0), f'(0) and the
    rejected value, kept within [0.1, 0.5] of the last step.  The Armijo test
    allows _ARMIJO_ULPS ulps of |f|: near the optimum the predicted decrease
    falls below f's roundoff, and the search must not stall there.
    Convergence is judged on the gradient alone, max |g| <= _LBFGS_GTOL.
    jac is called once per accepted step, fun once per trial step.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x), jac(x)
    steps = deque(maxlen=_LBFGS_MEMORY)
    for nit in range(maxiter + 1):
        g_max = float(np.abs(g).max(initial=0.0))
        if g_max <= _LBFGS_GTOL:
            return _OptimizeResult(x, True, nit, f"max|gradient| {g_max:.1e} <= {_LBFGS_GTOL:.0e}")
        if nit == maxiter:
            break
        d = -_inverse_hessian_times(g, steps)
        slope = float(g @ d)
        slack = _ARMIJO_ULPS * np.spacing(abs(f))
        t = min(1.0, _MAX_STEP / np.abs(d).max())
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + t * d
            f_new = fun(x_new)
            if f_new <= f + _ARMIJO_C1 * t * slope + slack:
                break
            t_quad = -slope * t * t / (2.0 * (f_new - f - slope * t))
            t = min(0.5 * t, max(0.1 * t, t_quad))
        else:
            return _OptimizeResult(
                x, False, nit, f"line search found no decrease at max|gradient| {g_max:.1e}"
            )
        g_new = jac(x_new)
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            steps.append((s, y, 1.0 / sy))
        x, f, g = x_new, f_new, g_new
    return _OptimizeResult(
        x, False, maxiter, f"no convergence in {maxiter} iterations, max|gradient| {g_max:.1e}"
    )


def _inverse_hessian_times(g: np.ndarray, steps) -> np.ndarray:
    """The L-BFGS two-loop recursion: H g for the stored (s, y, 1/s.y) steps."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(steps):
        a = rho * (s @ q)
        q -= a * y
        alphas.append(a)
    if steps:
        s, y, _ = steps[-1]
        q *= (s @ y) / (y @ y)
    for (s, y, rho), a in zip(steps, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    return q
