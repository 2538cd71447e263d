"""Output checks of each workload, run after the timed jobs.

Each check function returns a list of (name, passed) pairs.  The dense
references come from omp2sim.oracle and are used only here, outside the
timed region.
"""

from __future__ import annotations

import csv
import io
import json
import re
from pathlib import Path

_NAN = re.compile(rb"\bnan\b", re.IGNORECASE)

OMP2_TOL = 1e-6  # acceptance criterion 5
ORDER_SLACK = 1e-9
FULL_SPACE_TOL = 1e-8


def process_checks(exit_code: int, stdout: bytes, stderr: bytes) -> list[tuple[str, bool]]:
    return [
        ("exit 0", exit_code == 0),
        ("no traceback", b"Traceback" not in stderr),
        ("no nan", _NAN.search(stdout) is None),
    ]


def exact_curve(stdout: str, fixture_dir: Path) -> list[tuple[str, bool]]:
    from omp2sim.oracle import ReferenceValues

    refs = ReferenceValues.load()
    lines = stdout.splitlines()
    if not lines or lines[0] != "# schema=1":
        return [("csv schema", False)]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    expected = sorted(p.stem for p in fixture_dir.glob("*.fcidump"))
    got = sorted(f"{r['molecule']}_{float(r['distance_bohr']):.1f}" for r in rows)
    out = [("one row per fixture", got == expected)]
    for r in rows:
        tag = f"{r['molecule']}_{r['distance_bohr']}"
        pt = refs.molecules[r["molecule"]].point_at(float(r["distance_bohr"]))
        e = float(r["e_total"])
        ref_cols = (r["e_hf_ref"], r["e_omp2_ref"], r["e_fci_ref"])
        out += [
            (f"{tag} status ok", r["status"] == "ok"),
            (
                f"{tag} reference columns",
                all(
                    abs(float(c) - v) <= ORDER_SLACK
                    for c, v in zip(ref_cols, (pt.e_hf, pt.e_omp2, pt.e_fci))
                ),
            ),
            (f"{tag} |e_total - e_omp2_ref| <= 1e-6", abs(e - pt.e_omp2) <= OMP2_TOL),
            (
                f"{tag} e_fci_ref <= e_total <= e_hf_ref",
                pt.e_fci - ORDER_SLACK <= e <= pt.e_hf + ORDER_SLACK,
            ),
        ]
    return out


def full_space(stdout: str, fixture: Path) -> list[tuple[str, bool]]:
    from omp2sim.chem import orbital_energies, parse_fcidump, spin_orbitalize
    from omp2sim.oracle import canonical_mp2, hartree_fock_energy

    doc = json.loads(stdout)
    mi = parse_fcidump(fixture)
    si = spin_orbitalize(mi)
    n_e = mi.n_electrons
    e_hf = hartree_fock_energy(si, mi.e_core, n_e)
    e2 = canonical_mp2(si, orbital_energies(si, n_e), n_e)
    return [
        ("12 qubits, no active space", doc["n_qubits"] == 12),
        ("|e2 - canonical_mp2| <= 1e-8", abs(doc["e2"] - e2) <= FULL_SPACE_TOL),
        (
            "|e0 + e1 + e_core - hartree_fock_energy| <= 1e-8",
            abs(doc["e0"] + doc["e1"] + doc["e_core"] - e_hf) <= FULL_SPACE_TOL,
        ),
    ]


def workload_checks(workload: str, stdout: bytes, fixture_dir: Path) -> list[tuple[str, bool]]:
    """The workload's own checks; a malformed output fails them all at once."""
    text = stdout.decode()
    try:
        if workload == "exact_curve":
            return exact_curve(text, fixture_dir)
        return full_space(text, fixture_dir / "lih_3.1.fcidump")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [(f"parse output: {type(exc).__name__}: {exc}", False)]
