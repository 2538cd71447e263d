"""Molecular integral ingestion and Hamiltonian assembly.

Reads FCIDUMP files into spatial-orbital integral tensors, applies
frozen-core / deleted-virtual reduction, expands to spin orbitals, and
builds the one-body perturbation matrix and the closed-shell orbital
energies, eps_p = h_pp + sum over the occupied spatial i of
[2 (pp|ii) - (pi|ip)], that the rest of the pipeline consumes.  The orbital
rotation U = exp(kappa) and its adjoint derivative come from one real
eigendecomposition of kappa (`kappa_spectrum`).

Conventions (fixed here, relied on everywhere else):
  * spatial ERI stored chemist style, (pq|rs), full 8-fold symmetry;
  * spin orbitals interleave: spatial m -> spin 2m-1 (alpha), 2m (beta),
    1-indexed at the API surface;
  * the two-body operator is (1/2) sum_pqrs h_pqrs a+_p a+_q a_r a_s
    with h_pqrs = (ps|qr) delta(sp,ss) delta(sq,sr).
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

SYM_TOL = 1e-12
DUPLICATE_TOL = 1e-10
# hartree; the absolute tolerances here and downstream assume integrals of
# at most this size (a uranium 1s orbital is about -4e3)
MAX_INTEGRAL = 1e4


class FcidumpError(ValueError):
    """Malformed FCIDUMP content."""


@dataclass(frozen=True, eq=False)
class MolecularIntegrals:
    """Spatial-orbital integrals for one closed-shell problem."""

    n_spatial: int
    e_core: float
    h1: np.ndarray
    eri: np.ndarray
    n_electrons: int
    ms2: int = 0

    def __post_init__(self):
        m = self.n_spatial
        if not 1 <= self.n_electrons <= 2 * m:
            raise ValueError(
                f"n_electrons must lie in 1..{2 * m} (two per spatial orbital), "
                f"got {self.n_electrons}"
            )
        if self.h1.shape != (m, m) or self.eri.shape != (m, m, m, m):
            raise ValueError("integral tensor shape mismatch")
        # NaN passes every ">" tolerance check below, so reject it first
        if not all(np.isfinite(x).all() for x in (self.h1, self.eri, self.e_core)):
            raise ValueError("integrals must be finite")
        if max(np.abs(self.h1).max(), np.abs(self.eri).max()) > MAX_INTEGRAL:
            raise ValueError(f"h1 and eri entries must not exceed {MAX_INTEGRAL:g} in magnitude")
        if np.abs(self.h1 - self.h1.T).max() > SYM_TOL:
            raise ValueError("h1 not symmetric")
        for perm in [(1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)]:
            if np.abs(self.eri - self.eri.transpose(perm)).max() > SYM_TOL:
                raise ValueError("eri lacks 8-fold symmetry")
        if self.n_electrons % 2 != 0:
            raise ValueError("restricted closed-shell scope: n_electrons must be even")
        if self.ms2 != 0:
            raise ValueError("ms2 must be 0")
        self.h1.setflags(write=False)
        self.eri.setflags(write=False)


@dataclass(frozen=True)
class ActiveSpaceSpec:
    """Orbitals to drop: doubly occupied frozen cores and inactive virtuals (1-based)."""

    frozen_occupied: tuple[int, ...] = ()
    deleted_virtual: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "frozen_occupied", tuple(self.frozen_occupied))
        object.__setattr__(self, "deleted_virtual", tuple(self.deleted_virtual))
        if any(p < 1 for p in self.frozen_occupied + self.deleted_virtual):
            raise ValueError("orbital indices are 1-based")
        if set(self.frozen_occupied) & set(self.deleted_virtual):
            raise ValueError("frozen and deleted lists overlap")


@dataclass(frozen=True, eq=False)
class SpinIntegrals:
    """Spin-orbital view over the spatial tensors (alpha/beta interleaved)."""

    n_spin: int
    h1s: np.ndarray
    eri_spatial: np.ndarray

    def __post_init__(self):
        self.h1s.setflags(write=False)

    def v2s(self, p: int, q: int, r: int, s: int) -> float:
        """Element h_pqrs of (1/2) h_pqrs a+_p a+_q a_r a_s (1-based spin indices)."""
        mp, sp = divmod(p - 1, 2)
        mq, sq = divmod(q - 1, 2)
        mr, sr = divmod(r - 1, 2)
        ms, ss = divmod(s - 1, 2)
        if sp != ss or sq != sr:
            return 0.0
        return float(self.eri_spatial[mp, ms, mq, mr])


_HEADER_KV = re.compile(r"([A-Za-z0-9_]+)\s*=\s*([-0-9, ]+)")


def parse_fcidump(source) -> MolecularIntegrals:
    """source: a file path, an importlib resource, or the raw text itself."""
    if hasattr(source, "read_text"):
        text = source.read_text()
    elif isinstance(source, str) and "\n" not in source:
        with open(source) as fh:
            text = fh.read()
    else:
        text = source
    lines = text.splitlines()
    header_lines = []
    body_start = 0
    for ln, line in enumerate(lines):
        header_lines.append(line)
        if "&END" in line.upper() or "/" == line.strip():
            body_start = ln + 1
            break
    else:
        raise FcidumpError("no &END terminator in header")

    header = " ".join(header_lines)
    fields = {}
    for key, val in _HEADER_KV.findall(header):
        fields[key.upper()] = val
    if "NORB" not in fields or "NELEC" not in fields:
        raise FcidumpError("header missing NORB or NELEC")
    try:
        m, n_electrons, ms2 = (
            int(fields.get(key, "0").split(",")[0]) for key in ("NORB", "NELEC", "MS2")
        )
    except ValueError:
        raise FcidumpError("header NORB, NELEC and MS2 must be integers") from None
    if m < 1:
        raise FcidumpError(f"NORB must be at least 1, got {m}")

    h1 = np.zeros((m, m))
    eri = np.zeros((m, m, m, m))
    e_core = 0.0
    seen_h1 = np.zeros((m, m), dtype=bool)
    seen_eri = np.zeros((m, m, m, m), dtype=bool)

    for ln in range(body_start, len(lines)):
        parts = lines[ln].split()
        if not parts:
            continue
        if len(parts) != 5:
            raise FcidumpError(f"line {ln + 1}: expected 'value i j k l'")
        try:
            val = float(parts[0])
            i, j, k, l = (int(x) for x in parts[1:])
        except ValueError as exc:
            raise FcidumpError(f"line {ln + 1}: {exc}") from None
        if not np.isfinite(val):
            raise FcidumpError(f"line {ln + 1}: integral value must be finite")
        if min(i, j, k, l) < 0 or max(i, j, k, l) > m:
            raise FcidumpError(f"line {ln + 1}: orbital index out of range")
        if i == 0 and j == 0 and k == 0 and l == 0:
            e_core = val
        elif k == 0 and l == 0:
            if i == 0 or j == 0:
                raise FcidumpError(f"line {ln + 1}: bad one-electron record")
            a, b = i - 1, j - 1
            for x, y in ((a, b), (b, a)):
                if seen_h1[x, y] and abs(h1[x, y] - val) > DUPLICATE_TOL:
                    raise FcidumpError(f"line {ln + 1}: conflicting duplicate h1 element")
                h1[x, y] = val
                seen_h1[x, y] = True
        else:
            if min(i, j, k, l) == 0:
                raise FcidumpError(f"line {ln + 1}: bad two-electron record")
            a, b, c, d = i - 1, j - 1, k - 1, l - 1
            for w, x in ((a, b), (b, a)):
                for y, z in ((c, d), (d, c)):
                    for (p, q), (r, s) in (((w, x), (y, z)), ((y, z), (w, x))):
                        if seen_eri[p, q, r, s] and abs(eri[p, q, r, s] - val) > DUPLICATE_TOL:
                            raise FcidumpError(f"line {ln + 1}: conflicting duplicate eri element")
                        eri[p, q, r, s] = val
                        seen_eri[p, q, r, s] = True

    try:
        return MolecularIntegrals(
            n_spatial=m, e_core=e_core, h1=h1, eri=eri, n_electrons=n_electrons, ms2=ms2
        )
    except ValueError as exc:
        raise FcidumpError(str(exc)) from exc


def freeze_active_space(mi: MolecularIntegrals, spec: ActiveSpaceSpec) -> MolecularIntegrals:
    """Fold frozen doubly-occupied orbitals into h1/e_core, drop inactive virtuals."""
    m = mi.n_spatial
    frozen = [p - 1 for p in spec.frozen_occupied]
    deleted = [p - 1 for p in spec.deleted_virtual]
    for p in frozen + deleted:
        if not 0 <= p < m:
            raise ValueError("active-space index out of range")
    active = [p for p in range(m) if p not in frozen and p not in deleted]
    if not active:
        raise ValueError("no active orbitals left")
    n_electrons = mi.n_electrons - 2 * len(frozen)
    if n_electrons <= 0:
        raise ValueError("no active electrons left")

    e_core = mi.e_core
    for i in frozen:
        e_core += 2.0 * mi.h1[i, i]
        for j in frozen:
            e_core += 2.0 * mi.eri[i, i, j, j] - mi.eri[i, j, j, i]

    h1 = mi.h1[np.ix_(active, active)].copy()
    for i in frozen:
        h1 += 2.0 * mi.eri[np.ix_(active, active, [i], [i])][:, :, 0, 0]
        h1 -= mi.eri[np.ix_(active, [i], [i], active)][:, 0, 0, :]

    eri = mi.eri[np.ix_(active, active, active, active)].copy()
    return MolecularIntegrals(
        n_spatial=len(active),
        e_core=e_core,
        h1=h1,
        eri=eri,
        n_electrons=n_electrons,
        ms2=mi.ms2,
    )


def spin_orbitalize(mi: MolecularIntegrals) -> SpinIntegrals:
    n = 2 * mi.n_spatial
    h1s = np.kron(mi.h1, np.eye(2))
    return SpinIntegrals(n_spin=n, h1s=h1s, eri_spatial=mi.eri)


def orbital_energies(si: SpinIntegrals, n_electrons: int) -> np.ndarray:
    """The closed-shell orbital energies, one per spin orbital: eps_p = h_pp +
    sum over the occupied spatial i of [2 (pp|ii) - (pi|ip)], computed once per
    spatial orbital p, so alpha and beta hold the same value by construction."""
    if n_electrons % 2:
        raise ValueError(f"closed-shell orbital energies need even n_electrons, got {n_electrons}")
    occ = slice(n_electrons // 2)
    coulomb = np.einsum("ppii->p", si.eri_spatial[:, :, occ, occ])
    exchange = np.einsum("piip->p", si.eri_spatial[:, occ, occ, :])
    eps = np.repeat(np.diagonal(si.h1s)[0::2] + 2.0 * coulomb - exchange, 2)
    if 0 < n_electrons < si.n_spin:
        if eps[:n_electrons].max() > eps[n_electrons:].min() + 1e-12:
            warnings.warn("orbital energies are not aufbau ordered", stacklevel=2)
    eps.setflags(write=False)
    return eps


def build_perturbation(h1: np.ndarray, eps: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The spatial one-body perturbation T = h1 - u diag(eps) u^T.

    h1 and u are M x M spatial matrices and eps holds the M spatial orbital
    energies; u is the orbital rotation exp(kappa) that both spin channels
    share, so the spin-orbital T is kron(T, I_2).
    """
    u = np.asarray(u, dtype=float)
    m = h1.shape[0]
    if u.shape != (m, m) or np.shape(eps) != (m,):
        raise ValueError(f"u must be {m} x {m} and eps of length {m}")
    if np.abs(u.T @ u - np.eye(m)).max() > 1e-10:
        raise ValueError("u must be orthogonal")
    return h1 - u @ np.diag(eps) @ u.T


class KappaSpectrum(NamedTuple):
    """The spectrum of 1j*kappa, for a real antisymmetric M x M kappa, from
    `kappa_spectrum`: every eigenvalue lam twice, and z, M x 2M, one column
    per copy.  Half the sum of z_k z_k^H over the copies of an eigenvalue is
    its spectral projector."""

    lam: np.ndarray
    z: np.ndarray


def kappa_spectrum(kappa: np.ndarray) -> KappaSpectrum:
    """The spectrum of 1j*kappa from one real symmetric eigendecomposition.

    With K = kappa's strict lower triangle minus its transpose (kappa itself
    when kappa is antisymmetric), 1j*kappa = 1j*K is the Hermitian matrix
    whose real 2M x 2M form is R = [[0, -K], [K, 0]]: R [a; b] = lam [a; b]
    exactly when (1j*K)(a + 1j b) = lam (a + 1j b), and [-b; a] is then an
    eigenvector too, so each eigenvalue of 1j*kappa appears twice in R.  For
    R = E diag(lam) E^T, z = E[:M] + 1j E[M:].  Whatever basis eigh picks
    inside a degenerate space, half the sum of z z^H over it is the complex
    projector.  Only the lower triangle of kappa is read.
    """
    lower = np.tril(np.asarray(kappa, dtype=float), -1)
    k = lower - lower.T
    m = len(k)
    r = np.zeros((2 * m, 2 * m))
    r[m:, :m], r[:m, m:] = k, -k
    lam, e = np.linalg.eigh(r)
    return KappaSpectrum(lam, e[:m] + 1j * e[m:])


def _spectrum(kappa) -> KappaSpectrum:
    return kappa if isinstance(kappa, KappaSpectrum) else kappa_spectrum(kappa)


def expm_antisymmetric(kappa) -> np.ndarray:
    """exp(kappa) for a real antisymmetric kappa, or for its `kappa_spectrum`.

    exp(kappa) = I + 1/2 Re[z diag(expm1(-1j lam)) z^H]: each projector is
    half the sum over the two copies of its eigenvalue, and writing it around
    I makes kappa = 0 give exactly I.  Only the lower triangle of kappa is
    read.  One decomposition feeds both U and the adjoint: a caller that
    wants both passes them the same `kappa_spectrum`.
    """
    lam, z = _spectrum(kappa)
    # two-operand einsums, no BLAS product
    rotated = np.einsum("pk,qk->pq", z * np.expm1(-1j * lam), z.conj())
    return np.eye(len(z)) + 0.5 * rotated.real


def expm_antisymmetric_adjoint(kappa, g: np.ndarray) -> np.ndarray:
    """The adjoint Frechet derivative of expm at a real antisymmetric kappa,
    or at its `kappa_spectrum`, applied to g.

    This is dE/dkappa for dE/dU = g at U = exp(kappa), i.e. the Frechet
    derivative of expm at kappa^T in direction g.  Over the spectrum of
    1j*kappa it is the Daleckii-Krein product 1/4 Re[z (Phi o (z^H g z)) z^H],
    the 1/4 from the two half projectors, with
    Phi_jk = exp(1j (lam_j + lam_k)/2) sinc((lam_j - lam_k)/2pi), which needs
    no branch for equal eigenvalues.
    """
    lam, z = _spectrum(kappa)
    phi = np.exp(0.5j * (lam[:, None] + lam)) * np.sinc((lam[:, None] - lam) / (2.0 * np.pi))
    zh = z.conj()
    inner = np.einsum("jq,qk->jk", np.einsum("pj,pq->jq", zh, g), z) * phi
    return 0.25 * np.einsum("pk,qk->pq", np.einsum("pj,jk->pk", z, inner), zh).real
