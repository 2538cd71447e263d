"""Second-order correlation energy from occupation statistics of short circuits.

The energy splits as E = E0 + E1 + E2 against the frozen reference
spectrum.  E0 is the occupied-orbital energy sum.  E1 is the expectation
of the perturbation over the rotated reference, measured group by group
after each diagonalizing rotation.  E2 = sum (r^2 - var_r) / Delta over
the doubles, each residual r = <ref| V |double> extracted from three
expectation values: the same state interfered with one double excitation
at quarter and half turn.  var_r, the plug-in variance of r (0 in exact
mode), takes out the bias of r^2.  The doubles that change S_z, whose
residual is 0 at every theta, stay out of E2.

All states are prepared by the same template: occupation prep, an
optional double excitation, the orbital-rotation circuit U(theta), and
one measurement rotation.  The orbital rotation carries the variational
parameters; everything before and after it is fixed per run, which is
what keeps the per-evaluation work linear in circuits.

theta enters as one spatial rotation u = exp(kappa), computed once per
evaluation; both spin channels rotate by it, kron(u, I_2).  The groups
measure the spatial integrals (h1, eri) that `lowrank.measured_integrals`
returns, built once per estimator.  Exact mode, the infinite-shot limit,
builds no group: it reads every term from these integrals rotated by u,
in closed form.  E0 + E1 is the reference energy of the rotated
integrals, and the residual of the double (i, j, a, b) is (ia|jb)
[s_i = s_a, s_j = s_b] - (ib|ja) [s_i = s_b, s_j = s_a] over the rotated
spatial (ov|ov), s the spins.  It carries no
Jordan-Wigner sign: a probe column's sin carries the sign of its
determinant, so the residual the columns give is that of the excited
reference itself.  A double with both spin masks 0 changes S_z, and its
residual is 0 at every theta.  The same intermediates give the analytic
gradient in theta, diagnostics["gradient"]: the OMP2 functional of
Bozkaya, Turney, Yamaguchi, Schaefer and Sherrill, JCP 135, 104103 (2011),
pulled back to kappa through the adjoint Frechet derivative of exp.  u and
that pull-back come from one real M x M eigendecomposition per
evaluation (`chem.kappa_spectrum`).
E2 is then summed as in shots mode, by `_assemble`.
Noiseless shots rotate determinants: each group rotates the reference
and one determinant per double once, by O^T u (O the group's measurement
basis, group 0's diagonalized at u), in the n_e-electron sector
(`simulator.rotate_determinants`, pinned to the gate kernel by the test
suite, and the exact path's test reference), and draws every column from
(c R|ref> + s R|D>)^2 over the sector rows, as one count matrix from the
group's own stream, and each noisy trajectory from a stream of its own.
Neither path compiles a circuit.  The gates run only on the noisy path,
which alone holds 2^N amplitudes and counts, and they back the depth and
resource accounting.  Both paths sum each count matrix onto the spatial
occupation patterns (electrons per spatial orbital), which alone set a
group's value.  Postselection keeps the patterns of n_e electrons among
the counts already drawn; the raw estimate of those draws is diagnostics["raw"].

Exact mode minimizes with the package's own L-BFGS (`_lbfgs`), one
evaluation giving the energy and its gradient per trial step.  It stops on
the gradient, max |g| <= 1e-9, not on the change in energy: the e1/e2
split is not stationary at the optimum, and this fixes it to about 1e-11,
below the 1e-10 the CLI prints.  Shots mode runs the package's
Nelder-Mead (`_nelder_mead`) on the estimates, since a noiseless gradient
must not steer a noisy estimate, and reports a fresh evaluation at the
optimum, drawn on stream keys of its own.  With the closed-form orbital
exponentials of `chem`, both modes run on numpy alone.
"""

from __future__ import annotations

import math
import numbers
import warnings
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .chem import (
    MolecularIntegrals,
    build_perturbation,
    expm_antisymmetric,
    expm_antisymmetric_adjoint,
    kappa_spectrum,
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
    factor_supermatrix,
    measured_integrals,
    occupation_coefficients,
    one_body_group,
    two_body_groups,
)
from .simulator import (
    STREAM_FINAL,
    STREAM_SAMPLE,
    STREAM_TRAJECTORY,
    NoiseModel,
    draw_counts,
    expectation_with_variance,
    number_sector,
    rng_stream,
    rotate_determinants,
    run,
    sample,
)

DEGENERACY_TOL = 1e-8
MAX_QUBITS = 12

_OMEGAS = (np.pi / 4, np.pi / 2)  # the quarter and half turn of each double

_LBFGS_MEMORY = 10
_LBFGS_GTOL = 1e-9  # on max |gradient|
_ARMIJO_C1 = 1e-4
_ARMIJO_ULPS = 64  # over 10x the energy's roundoff, at most 5.3 ulps on H4 and LiH
_MAX_BACKTRACKS = 30
_MAX_STEP = 1.0  # radians: the largest angle change of a trial step
_NM_XATOL, _NM_FATOL = 1e-3, 1e-6  # Nelder-Mead's simplex spread in theta and in f
_MAX_COUNT = 2**63 - 1  # the most shots numpy's Generator.multinomial draws
MAX_TRAJECTORIES = 2**20  # per noisy circuit; each runs the whole circuit again


class CapacityError(ValueError):
    """The problem needs more qubits, or more memory, than the simulator holds."""


def check_capacity(mi: MolecularIntegrals) -> int:
    """The qubit count of mi, one per spin orbital; CapacityError past MAX_QUBITS."""
    n_qubits = 2 * mi.n_spatial
    if n_qubits > MAX_QUBITS:
        raise CapacityError(f"{n_qubits} spin orbitals exceed the {MAX_QUBITS}-qubit cap")
    return n_qubits


class RejectedShotsError(ValueError):
    """Postselection rejected every shot of one circuit; no estimate can be formed."""


@dataclass(frozen=True)
class ThetaParams:
    """Independent rotation angles, one per (odd occupied, odd virtual) pair.

    Each value is shared by the corresponding even-index pair so both spin
    channels rotate identically.  values are occupied-major, as pairs lists
    them: the n_occ x n_virt block of kappa between the spatial occupied and
    virtual orbitals, read row by row.
    """

    n_spin: int
    n_electrons: int
    values: tuple[float, ...]

    def __post_init__(self):
        if self.n_spin % 2 or self.n_electrons % 2:
            raise ValueError("spin orbital and electron counts must be even")
        if len(self.values) != len(self.pairs):
            raise ValueError("wrong number of parameters")
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"theta values must be finite, got {v}")

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
        m, n_occ = self.n_spin // 2, self.n_electrons // 2
        mat = np.zeros((m, m))
        mat[:n_occ, n_occ:] = np.reshape(self.values, (n_occ, m - n_occ))
        return mat - mat.T


def pair_indices(n_spin: int, n_electrons: int) -> tuple[tuple[int, int], ...]:
    occ = range(1, n_electrons + 1, 2)
    virt = range(n_electrons + 1, n_spin + 1, 2)
    return tuple((p, q) for p in occ for q in virt)


def enumerate_doubles(n_spin: int, n_electrons: int) -> np.ndarray:
    """The doubles table: one row of 1-based spin orbitals (i, j, a, b) per
    double, i < j occupied and a < b virtual, in lexicographic order."""
    occ = combinations(range(1, n_electrons + 1), 2)
    virt = list(combinations(range(n_electrons + 1, n_spin + 1), 2))
    return np.array([ij + ab for ij in occ for ab in virt], dtype=int).reshape(-1, 4)


@dataclass(frozen=True)
class EnergyBreakdown:
    """One evaluation's electronic energy, total = e0 + e1 + e2, and its
    estimated variance (0 in exact mode); diagnostics holds the per-double
    residuals and, by mode, the gradient or the shot statistics."""

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
    """How an `Estimator` evaluates: exact, or from seeded shots, optionally
    noisy and postselected; truncation_tol drops two-body groups."""

    mode: str = "exact"  # exact | shots
    shots: int = 100_000
    noise: NoiseModel | None = None
    postselect: bool = False
    truncation_tol: float = 1e-12
    seed: int = 1
    trajectories: int = 16

    def __post_init__(self):
        for name in ("shots", "trajectories", "seed"):
            value = getattr(self, name)  # numpy integers pass; bool is an Integral, but no count
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if name != "seed" and value > _MAX_COUNT:
                raise ValueError(f"{name} must be at most 2**63 - 1, got {value}")
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
    """The circuits one evaluation runs and the CNOT cost of the deepest."""

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
        self.n_qubits = check_capacity(mi)
        self.n_electrons = mi.n_electrons
        self.eps = orbital_energies(spin_orbitalize(mi), self.n_electrons)
        self.e_core = mi.e_core
        self.e0 = float(self.eps[: self.n_electrons].sum())
        self.doubles = enumerate_doubles(self.n_qubits, self.n_electrons)
        # each double's spatial (i, j, a, b), a and b counted from the first
        # virtual, and the spins that pair (ia|jb) (direct) and (ib|ja)
        # (exchange); a double with neither changes S_z
        orbital, spin = np.divmod(self.doubles.T - 1, 2)
        self._orbitals = orbital - np.array([[0], [0], [1], [1]]) * (self.n_electrons // 2)
        self._direct = (spin[0] == spin[2]) & (spin[1] == spin[3])
        self._exchange = (spin[0] == spin[3]) & (spin[1] == spin[2])
        # the one Delta table, ((eps_i + eps_j) - eps_a) - eps_b over spatial (i, a, j, b):
        # each double reads its entry, the gradient the table, inf where skipped
        e_occ, e_virt = np.split(self.eps[0::2], [self.n_electrons // 2])
        delta = e_occ[:, None, None, None] + e_occ[:, None] - e_virt[:, None, None] - e_virt
        i, j, a, b = self._orbitals
        self._deltas = delta[i, a, j, b]
        self._skip = np.abs(self._deltas) < DEGENERACY_TOL
        # E2 sums the doubles that are neither skipped nor S_z-changing
        self._keep = ~self._skip & (self._direct | self._exchange)
        self._pair_deltas = np.where(np.abs(delta) < DEGENERACY_TOL, np.inf, delta)
        if self._skip.any():
            warnings.warn(
                "degenerate excitation denominators; those doubles are skipped",
                stacklevel=2,
            )

        # the one factorization: exact mode measures its integrals, shots its groups
        self._factors = factor_supermatrix(mi.eri, self.cfg.truncation_tol)[:2]
        self._integrals = measured_integrals(mi.h1, mi.eri, *self._factors)
        self.n_groups = 1 + len(self._factors[0])
        if self.n_groups == 1 and mi.eri.any():
            warnings.warn(
                f"truncation tol {self.cfg.truncation_tol:g} drops every two-body group; "
                "the energies leave out the two-electron interaction",
                stacklevel=2,
            )
        self.n_trajectories = n = min(self.cfg.trajectories, self.cfg.shots)  # one per shot at most
        if self.cfg.noise is not None and n > MAX_TRAJECTORIES:
            raise CapacityError(f"{n} trajectories per circuit exceed the {MAX_TRAJECTORIES} cap")
        self.n_evaluations = 0

    @cached_property
    def _static_groups(self):
        """The two-body groups, which do not depend on theta."""
        return two_body_groups(*self._factors)

    @cached_property
    def _probes(self) -> _Probes:
        """The probe columns, which only shots mode prepares."""
        return _probe_table(self.n_qubits, self.n_electrons, self.doubles, _OMEGAS)

    @cached_property
    def _column_gates(self) -> list[tuple]:
        """The lowered gates that prepare each column: the noisy path and the depth accounting."""
        prep = prep_reference(self.n_qubits, self.n_electrons).gates
        return [prep] + [
            prep + lower_circuit(Circuit(self.n_qubits, double_excitation(*d, omega))).gates
            for d in self.doubles.tolist()
            for omega in _OMEGAS
        ]

    # -- measurement plumbing ------------------------------------------------

    def _groups_at(self, u: np.ndarray):
        """Every group at u, group 0 first.  Shots mode reads their rotations:
        noisy shots as circuits, noiseless ones through `_rotated`."""
        t = build_perturbation(self.mi.h1, self.eps[0::2], u)
        return (one_body_group(t, self.mi.eri), *self._static_groups)

    @cached_property
    def _sector(self):
        return number_sector(self.n_qubits, self.n_electrons)

    @cached_property
    def _patterns(self):
        """(n, index, order, starts): the distinct spatial occupation patterns n, each counted
        outcome's pattern (outcomes: sector rows, or basis states if noisy), the outcomes
        stably sorted by pattern, and where each pattern's run of them starts in that order."""
        occ = occupations(self.n_qubits, self._sector.states if self.cfg.noise is None else None)
        n, index, sizes = np.unique(
            occ[:, 0::2] + occ[:, 1::2], axis=0, return_inverse=True, return_counts=True
        )
        index = index.reshape(-1)  # 1-D under every numpy version
        return n, index, np.argsort(index, kind="stable"), np.cumsum(sizes) - sizes

    def _rotated(self, g, u: np.ndarray) -> np.ndarray:
        """The probe determinants after U(theta) and g's measurement circuit: R(g.rotation.T u)."""
        return rotate_determinants(g.rotation.T @ u, self._probes.states, self._sector)

    def _rotated_determinants(self, u: np.ndarray):
        """Yield (coeff, x) per group of a noiseless estimator: its coefficient
        on each sector row and `_rotated`'s probe determinants."""
        n, index = self._patterns[:2]
        for g in self._groups_at(u):
            yield occupation_coefficients(g, n)[index], self._rotated(g, u)

    def _exact_breakdown(self, spectrum, u: np.ndarray) -> EnergyBreakdown:
        """E1, the residuals and E2 from the measured integrals rotated by
        u = exp(kappa), and the energy's gradient in theta (the module
        docstring gives the closed form).  spectrum is kappa's `kappa_spectrum`,
        the decomposition that gave u; the gradient's pull-back reuses it."""
        h1, eri = self._integrals
        n_occ = self.n_electrons // 2
        occ, virt = u[:, :n_occ], u[:, n_occ:]
        # einsum sums without BLAS, so the rounding does not depend on the
        # BLAS build or its threads
        dens = np.einsum("pi,qi->pq", occ, occ)
        fock = h1 + 2.0 * np.einsum("pqrs,rs->pq", eri, dens) - np.einsum("prsq,rs->pq", eri, dens)
        half = np.einsum("pqrs,rj,sb->pqjb", eri, occ, virt)  # (xy|jb), x and y unrotated
        xajb = np.einsum("xqjb,qa->xajb", half, virt)
        ovov = np.einsum("xajb,xi->iajb", xajb, occ)
        e1 = float(np.einsum("pq,pq->", dens, h1 + fock)) - self.e0
        i, j, a, b = self._orbitals
        r = ovov[i, a, j, b] * self._direct - ovov[i, b, j, a] * self._exchange
        bd = self._assemble(e1, 0.0, r, np.zeros_like(r))

        # dE/du: E2 = sum ovov (2 ovov - exchange) / Delta over spatial orbitals
        amp = (2.0 * ovov - ovov.transpose(0, 3, 2, 1)) / self._pair_deltas
        grad_u = np.empty_like(u)
        grad_u[:, :n_occ] = 4.0 * np.einsum("xq,qi->xi", fock, occ)
        grad_u[:, :n_occ] += 4.0 * np.einsum("xajb,iajb->xi", xajb, amp)
        grad_u[:, n_occ:] = 4.0 * np.einsum("xqjb,qi,iajb->xa", half, occ, amp)
        grad = expm_antisymmetric_adjoint(spectrum, grad_u)
        bd.diagnostics["gradient"] = (grad - grad.T)[:n_occ, n_occ:].ravel()
        return bd

    def _shots_breakdown(self, u: np.ndarray, final: bool = False) -> EnergyBreakdown:
        """The breakdown of the shots at u.  Postselecting, it is the kept
        shots', with all shots' under diagnostics["raw"]: postselection
        discards outcomes of the same draws."""
        cfg = self.cfg
        n, _, order, starts = self._patterns
        n_cols = self._probes.det.size
        moments = np.zeros((2, n_cols * (1 + cfg.postselect)))  # summed over groups
        kept_fractions = []
        for l, (g, counts) in enumerate(self._shot_counts(u, final)):
            # each pattern's count, a segment sum of its outcomes' in a fixed order
            counts = np.add.reduceat(counts[:, order], starts, axis=1)
            if cfg.postselect:
                kept = np.where(n.sum(axis=1) == self.n_electrons, counts, 0)
                n_kept = kept.sum(axis=1)
                if not n_kept.all():
                    raise RejectedShotsError(
                        f"postselection rejected all {cfg.shots} shots of circuit column "
                        f"{np.flatnonzero(n_kept == 0)[0]} in measurement group {l}"
                    )
                kept_fractions.append(n_kept / cfg.shots)
                counts = np.concatenate([counts, kept])  # the raw rows, then the kept ones
            moments += expectation_with_variance(counts, occupation_coefficients(g, n))
        raw = self._assemble(*self._column_residuals(*moments[:, :n_cols]))
        if not cfg.postselect:
            return raw
        kept_mean = float(np.concatenate(kept_fractions).mean())
        bd = self._assemble(*self._column_residuals(*moments[:, n_cols:]), kept_mean)
        bd.diagnostics["raw"] = raw
        return bd

    def _shot_counts(self, u: np.ndarray, final: bool):
        """Yield every group and its (columns x outcomes) count matrix, by sector
        row if noiseless, else by basis state.  Group l's noiseless columns draw
        from the one stream (seed, group l); final appends a key to every stream."""
        cfg = self.cfg
        p = self._probes
        tail = (STREAM_FINAL,) if final else ()
        if cfg.noise is not None:
            u_gates = compile_orbital_rotation(np.kron(u, np.eye(2))).gates
            # q shots per trajectory, and one more for the first r
            q, r = divmod(cfg.shots, self.n_trajectories)
            for l, g in enumerate(self._groups_at(u)):
                suffix = u_gates + _measurement_circuit(g).gates
                counts = np.zeros((p.det.size, 1 << self.n_qubits), dtype=np.int64)
                for col, row in enumerate(counts):
                    # the columns are lowered, so run's own lowering only scans the gates
                    full = Circuit(self.n_qubits, self._column_gates[col] + suffix)
                    for t in range(self.n_trajectories):
                        rng = rng_stream(cfg.seed, STREAM_TRAJECTORY, col, l, t, *tail)
                        row += sample(run(full, cfg.noise, rng), q + (t < r), cfg.noise, rng=rng)
                yield g, counts
            return
        for l, g in enumerate(self._groups_at(u)):
            x = self._rotated(g, u).T  # one row per probe determinant
            probs = (p.cos[:, None] * x[0] + p.sin[:, None] * x[p.det]) ** 2
            rng = rng_stream(cfg.seed, STREAM_SAMPLE, l, *tail)
            yield g, draw_counts(probs, cfg.shots, rng)

    def _column_residuals(self, e_cols, var_cols):
        """(e1, var_e1, r, var_r) from the column energies and variances:
        r = quarter - half / 2 - e1 / 2 for every double."""
        e1 = float(e_cols[0])
        var_e1 = float(var_cols[0])
        quarter, half = e_cols[1:].reshape(-1, len(_OMEGAS)).T
        var_quarter, var_half = var_cols[1:].reshape(-1, len(_OMEGAS)).T
        r = quarter - 0.5 * half - 0.5 * e1
        return e1, var_e1, r, var_quarter + 0.25 * var_half + 0.25 * var_e1

    def _assemble(self, e1, var_e1, r, var_r, kept_mean=None) -> EnergyBreakdown:
        """The breakdown of e1 and the residuals r, variances var_r, one per row
        of `doubles`.  E2 = sum (r^2 - var_r) / Delta, since r^2 is the squared
        residual plus var_r on average, over the doubles that are neither
        skipped nor S_z-changing; the diagnostics keep r and var_r whole,
        arrays indexed like `doubles`."""
        kept_r, kept_var, delta = r[self._keep], var_r[self._keep], self._deltas[self._keep]
        # left to right from 0.0, not pairwise as np.sum adds: seeded output keeps its digits
        e2 = np.cumsum(np.append(0.0, (kept_r * kept_r - kept_var) / delta))[-1]
        var_e2 = np.cumsum(np.append(0.0, (2.0 * kept_r / delta) ** 2 * kept_var))[-1]
        diagnostics = {
            "residuals": r,
            "residual_variances": var_r,
            "var_e1": var_e1,
            "skipped_doubles": int(self._skip.sum()),
            "sz_changing_doubles": int((~(self._direct | self._exchange)).sum()),
            "kept_fraction_mean": kept_mean,
        }
        variance = float(var_e1 + var_e2)
        return EnergyBreakdown(self.e0, e1, float(e2), variance, diagnostics)

    def _kappa(self, theta: ThetaParams) -> tuple:
        """The `kappa_spectrum` of theta.to_matrix(); ValueError if theta is for another problem."""
        given, ours = (theta.n_spin, theta.n_electrons), (self.n_qubits, self.n_electrons)
        if given != ours:
            raise ValueError(f"theta is for (n_spin, n_electrons) = {given}, the problem is {ours}")
        return kappa_spectrum(theta.to_matrix(), self.n_electrons // 2)

    # -- public interface ----------------------------------------------------

    def mp2_energy(self, theta: ThetaParams) -> EnergyBreakdown:
        """E0 + E1 + E2 (electronic part; add mi.e_core for the total energy).

        Exact mode adds the energy's gradient in theta.values as
        diagnostics["gradient"].  Postselecting, it is the kept shots'
        estimate; diagnostics["raw"] is all shots'.
        """
        spectrum = self._kappa(theta)  # the evaluation's one eigendecomposition
        self.n_evaluations += 1
        u = expm_antisymmetric(spectrum)
        if self.cfg.mode == "exact":
            return self._exact_breakdown(spectrum, u)
        return self._shots_breakdown(u)

    def optimize(self, maxiter: int = 200) -> tuple[ThetaParams, EnergyBreakdown]:
        """Minimize the total electronic energy over the rotation angles.

        Shots mode reports a fresh evaluation at the optimum on stream keys
        of its own, not the stored one, the lowest and so biased-low noisy
        estimate Nelder-Mead compared; n_evaluations leaves it out.
        """
        if isinstance(maxiter, bool) or not isinstance(maxiter, numbers.Integral) or maxiter < 0:
            raise ValueError(f"maxiter must be a non-negative integer, got {maxiter!r}")
        theta0 = ThetaParams.zeros(self.n_qubits, self.n_electrons)
        evaluated = {}

        def fun(x):
            theta = theta0.with_values(x)
            bd = evaluated[theta.values] = self.mp2_energy(theta)
            return bd.total, bd.diagnostics.get("gradient")  # no gradient in shots mode

        minimize = _lbfgs if self.cfg.mode == "exact" else _nelder_mead
        res = minimize(fun, np.zeros(len(theta0.values)), maxiter)
        theta = theta0.with_values(res.x)
        if self.cfg.mode == "exact":
            bd = evaluated[theta.values]  # _lbfgs returns a point it evaluated
        else:
            bd = self._shots_breakdown(expm_antisymmetric(self._kappa(theta)), final=True)
        bd.diagnostics.update(
            converged=bool(res.success),
            n_iterations=int(res.nit),
            n_evaluations=self.n_evaluations,
            optimizer_message=str(res.message),
        )
        return theta, bd

    def measurement_circuits(self, theta: ThetaParams) -> tuple[Circuit, ...]:
        """The measurement rotation of every group at theta, group 0 first."""
        u = expm_antisymmetric(self._kappa(theta))
        return tuple(_measurement_circuit(g) for g in self._groups_at(u))

    def resource_summary(self) -> ResourceSummary:
        # U(theta) and every measurement circuit have the same gates, all
        # Givens slots emitted, and only their angles differ
        rotation = compile_orbital_rotation(np.eye(self.n_qubits)).gates
        suffix = rotation + rotation
        ref = cnot_depth(Circuit(self.n_qubits, self._column_gates[0] + suffix))
        # one column per double: its quarter and half turn differ only in angle
        res = [cnot_depth(Circuit(self.n_qubits, c + suffix)) for c in self._column_gates[1::2]]
        return ResourceSummary(
            n_qubits=self.n_qubits,
            n_parameters=len(pair_indices(self.n_qubits, self.n_electrons)),
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


class _Probes(NamedTuple):
    """The probe columns: column k is cos[k] |states[0]> + sin[k] |states[det[k]]>;
    states holds basis indices, the reference and then one determinant per double."""

    states: np.ndarray
    det: np.ndarray
    cos: np.ndarray
    sin: np.ndarray


def _probe_table(n_qubits, n_electrons, doubles: np.ndarray, omegas) -> _Probes:
    """The probes of the doubles table (rows of 1-based i, j, a, b): |ref>,
    then each double at each omega on |ref>.

    exp[omega (a+_a a+_b a_j a_i - h.c.)] |ref> = cos(omega) |ref> +
    (-1)^(i+j+1) sin(omega) |D>, with D the reference with i, j emptied and
    a, b filled; these are the values the gates produce, bit for bit.
    Column 0 is the reference alone: cos 1 and sin 0 on states[0].
    """
    ref = ((1 << n_electrons) - 1) << (n_qubits - n_electrons)
    states = np.append(ref, ref ^ (1 << (n_qubits - doubles)).sum(axis=1))
    sign = np.where(doubles[:, :2].sum(axis=1) % 2, 1.0, -1.0)
    cos = np.array([math.cos(omega) for omega in omegas])
    sin = np.array([math.sin(omega) for omega in omegas])
    return _Probes(
        states=states,
        det=np.append(0, np.repeat(np.arange(1, len(states)), len(omegas))),
        cos=np.append(1.0, np.tile(cos, len(doubles))),
        sin=np.append(0.0, np.outer(sign, sin).ravel()),
    )


class _OptimizeResult(NamedTuple):
    x: np.ndarray
    success: bool
    nit: int
    message: str


def _lbfgs(fun, x0, maxiter: int) -> _OptimizeResult:
    """Minimize f from x0 by L-BFGS, fun(x) returning f(x) and its exact gradient.

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
    fun is called once per trial step.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
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
            f_new, g_new = fun(x_new)
            if f_new <= f + _ARMIJO_C1 * t * slope + slack:
                break
            t_quad = -slope * t * t / (2.0 * (f_new - f - slope * t))
            t = min(0.5 * t, max(0.1 * t, t_quad))
        else:
            return _OptimizeResult(
                x, False, nit, f"line search found no decrease at max|gradient| {g_max:.1e}"
            )
        s, y = x_new - x, g_new - g
        sy = float(s @ y)
        if sy > 0.0:
            steps.append((s, y, 1.0 / sy))
        x, f, g = x_new, f_new, g_new
    return _OptimizeResult(
        x, False, maxiter, f"no convergence in {maxiter} iterations, max|gradient| {g_max:.1e}"
    )


def _nelder_mead(fun, x0, maxiter: int) -> _OptimizeResult:
    """Minimize f from x0 by the Nelder-Mead simplex (Nelder and Mead, Computer
    Journal 7, 308 (1965)); fun(x) returns (f, gradient), and only f is read.

    The simplex is x0 and, for each k, x0 with coordinate k scaled by 1.05,
    or set to 0.00025 if it is 0.  A step replaces the worst vertex by its
    reflection through the centroid of the others, the expansion beyond it,
    or an outside or inside contraction, or else shrinks every vertex
    halfway to the best, with the coefficients and tie rules of scipy's
    non-adaptive Nelder-Mead: maxiter steps here are its maxiter + 1.
    Before each step the vertices are sorted by f; the run has converged
    when every vertex is within _NM_XATOL of the best in each coordinate and
    within _NM_FATOL in f.  maxiter = 0 evaluates x0 alone.  fun is passed
    a fresh array each call.
    """
    x0 = np.array(x0, dtype=float)
    n = len(x0)
    sim = np.tile(x0, (n + 1 if maxiter else 1, 1))
    np.fill_diagonal(sim[1:], np.where(x0 != 0, 1.05 * x0, 0.00025))
    f = np.array([fun(v.copy())[0] for v in sim], dtype=float)
    for nit in range(maxiter + 1):
        order = np.argsort(f)
        sim, f = sim[order], f[order]
        if nit == maxiter:
            break
        if (
            np.abs(sim[1:] - sim[0]).max(initial=0.0) <= _NM_XATOL
            and np.abs(f[0] - f[1:]).max(initial=0.0) <= _NM_FATOL
        ):
            return _OptimizeResult(sim[0], True, nit, "simplex converged")
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2.0 * xbar - sim[-1]
        fr = fun(xr)[0]
        if fr < f[0]:
            xe = 3.0 * xbar - 2.0 * sim[-1]
            fe = fun(xe)[0]
            sim[-1], f[-1] = (xe, fe) if fe < fr else (xr, fr)
        elif fr < f[-2]:
            sim[-1], f[-1] = xr, fr
        else:
            outside = fr < f[-1]
            xc = 1.5 * xbar - 0.5 * sim[-1] if outside else 0.5 * xbar + 0.5 * sim[-1]
            fc = fun(xc)[0]
            if fc <= fr if outside else fc < f[-1]:
                sim[-1], f[-1] = xc, fc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    f[j] = fun(sim[j].copy())[0]
    return _OptimizeResult(sim[0], False, maxiter, f"no convergence in {maxiter} iterations")


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
