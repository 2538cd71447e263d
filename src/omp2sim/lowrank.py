"""Diagonal measurement grouping of the perturbation operator.

The two-body operator (1/2) sum (pq|rs) E_pq E_rs is rewritten as a sum
of basis-rotated squares of spatial number operators: eigendecompose the
M^2 x M^2 supermatrix A[(pq),(rs)] = (pq|rs) once, fold each kept
eigenvector into a symmetric M x M matrix G = O diag(f) O^T, and
diagonalize it.  The operator-reordering remainder -1/2 sum_r (pr|rq)
joins the one-body matrix, which diagonalizes into group 0.  Each group
is measurable as plain occupation statistics after its rotation circuit:
with n_p the electrons in rotated spatial orbital p, group 0 is
sum_p linear_p n_p, and a kept eigenpair (w, G) gives w/2 (sum_p f_p n_p)^2.
Exact mode, their infinite-shot limit, builds no group and reads the
integrals they measure from `measured_integrals`.  Only this module
truncates; the largest dropped |eigenvalue| bounds the supermatrix
spectral norm of what is left out, and the dense operator-level check
lives in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .jw import occupations


@dataclass(frozen=True, eq=False)
class MeasurementGroup:
    """One rotated measurement, stored as its spatial rank-one factors.

    On an occupation row with spatial counts n (both spin channels added)
    in the rotated basis, the group contributes
    n @ linear + weight / 2 * (n @ factor) ** 2.  Group 0 has factor 0 and
    weight 0; a two-body group has linear 0.
    """

    rotation: np.ndarray  # spatial M x M, orthogonal, det +1
    linear: np.ndarray  # length M: group 0's one-body eigenvalues, else zeros
    factor: np.ndarray  # length M: a two-body group's f, else zeros
    weight: float  # a two-body group's supermatrix eigenvalue w, else 0

    def __post_init__(self):
        m = self.rotation.shape[0]
        if np.abs(self.rotation.T @ self.rotation - np.eye(m)).max() > 1e-10:
            raise ValueError("group rotation not orthogonal")
        if np.linalg.det(self.rotation) < 0.0:
            raise ValueError("group rotation must have det +1")
        for arr in (self.rotation, self.linear, self.factor):
            arr.setflags(write=False)


def _det_plus_one(o: np.ndarray) -> np.ndarray:
    if np.linalg.det(o) < 0.0:
        o = o.copy()
        o[:, 0] = -o[:, 0]
    return o


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    for comp in v:
        if abs(comp) > 1e-12:
            return v if comp > 0 else -v
    return v


def factor_supermatrix(eri: np.ndarray, tol: float):
    """(w, g, dropped): the supermatrix eigenvalues with |w| > tol, largest
    |w| first, each eigenvector folded into a symmetric M x M matrix g[l],
    and the largest dropped |w| (0 if none)."""
    if tol <= 0.0:
        raise ValueError("truncation tol must be positive")
    m = eri.shape[0]
    super_a = eri.reshape(m * m, m * m)
    if np.abs(super_a - super_a.T).max() > 1e-10:
        raise ValueError("eri supermatrix not symmetric")
    w, v = np.linalg.eigh(super_a)
    kept = [idx for idx in np.argsort(-np.abs(w), kind="stable") if abs(w[idx]) > tol]
    g = np.array([_canonical_sign(v[:, idx]) for idx in kept]).reshape(-1, m, m)
    dropped = float(np.abs(w).max(initial=0.0, where=np.abs(w) <= tol))
    return w[kept], 0.5 * (g + g.transpose(0, 2, 1)), dropped


def two_body_groups(w: np.ndarray, g: np.ndarray) -> tuple[MeasurementGroup, ...]:
    """Groups l >= 1 of `factor_supermatrix`'s kept (w, g); independent of
    the one-body matrix, hence of theta."""
    eigs = map(np.linalg.eigh, g)
    return tuple(
        MeasurementGroup(_det_plus_one(o), np.zeros(len(f)), f, float(w_l))
        for w_l, (f, o) in zip(w, eigs)
    )


def measured_integrals(h1: np.ndarray, eri: np.ndarray, w: np.ndarray, g: np.ndarray):
    """The spatial (h1, eri) the groups of `factor_supermatrix`'s kept (w, g)
    measure: eri = sum_l w_l G_l (x) G_l, and h1 - 1/2 sum_r (pr|rq), group
    0's theta-free part, plus the reordering term of the kept eri."""
    kept = np.einsum("l,lpq,lrs->pqrs", w, g, g)
    return h1 - 0.5 * np.einsum("prrq->pq", eri) + 0.5 * np.einsum("prrq->pq", kept), kept


def one_body_group(t: np.ndarray, eri: np.ndarray) -> MeasurementGroup:
    """Group 0: the spatial one-body T plus the reordering correction
    -1/2 sum_r (pr|rq), diagonalized; both spin channels share its rotation."""
    correction = -0.5 * np.einsum("prrq->pq", eri)
    d, o = np.linalg.eigh(t + correction)
    return MeasurementGroup(_det_plus_one(o), linear=d, factor=np.zeros_like(d), weight=0.0)


def factorize(t: np.ndarray, eri: np.ndarray, tol: float) -> tuple[MeasurementGroup, ...]:
    """Every group of the spatial one-body T and the two-body eri, group 0
    first, as the estimator builds them from the same parts."""
    t = np.asarray(t, dtype=float)
    if np.abs(t - t.T).max() > 1e-10:
        raise ValueError("one-body matrix not symmetric")
    w, g = factor_supermatrix(eri, tol)[:2]
    return (one_body_group(t, eri), *two_body_groups(w, g))


def occupation_coefficients(g: MeasurementGroup, occ: np.ndarray) -> np.ndarray:
    """coeff evaluated on each row of a spin-orbital occupation table."""
    n = (occ[:, 0::2] + occ[:, 1::2]).astype(float)
    return n @ g.linear + 0.5 * g.weight * (n @ g.factor) ** 2


def coefficient_vector(g: MeasurementGroup, n_qubits: int) -> np.ndarray:
    """coeff evaluated on every bitstring, ordered by basis index."""
    return occupation_coefficients(g, occupations(n_qubits))
