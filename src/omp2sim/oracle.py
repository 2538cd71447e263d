"""The packaged reference energies and the closed-form references read with them.

`ReferenceValues` loads the reference table that `omp2sim curve` prints
next to its energies, and `fixture_path` finds a packaged FCIDUMP.
`hartree_fock_energy` and `canonical_mp2` are sums over the spin-orbital
integrals, with no statevector, low-rank group or estimator; the tests
and the benchmark's output checks compare against them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from itertools import combinations, product

import numpy as np

from .chem import ActiveSpaceSpec, SpinIntegrals

_ORDERING_SLACK = 1e-10


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
    """The packaged FCIDUMP fcidump_name, a Traversable for parse_fcidump;
    the quick start and the tests load their fixtures through it."""
    return resources.files("omp2sim.data") / "fixtures" / fcidump_name


def hartree_fock_energy(si: SpinIntegrals, e_core: float, n_electrons: int) -> float:
    """Restricted Hartree-Fock energy of filled spin orbitals 1 .. n_electrons,
    e_core included; perfbench/checks.py compares e0 + e1 + e_core to it."""
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
