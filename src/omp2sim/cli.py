"""Command line front end.

Subcommands:
  energy       optimize one fixture and report the energy breakdown
  curve        optimize every fixture in a directory, one row per point
  resources    circuit counts and depths for one fixture
  noise-study  shots-mode evaluation at theta = 0 under a noise preset,
               raw and post-selected

Fixture files follow the naming convention {molecule}_{distance:.1f}.fcidump;
recognized molecule names pick up the packaged reference energies and the
matching active space.  Unknown names still run, without reference columns.

Exit codes: 0 ok, 2 usage, 3 fixture problem, 4 no estimate (no convergence,
or postselection rejected every shot of a circuit), 5 over capacity.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .chem import freeze_active_space, parse_fcidump
from .circuits import Circuit, compile_orbital_rotation, prep_reference
from .omp2 import CapacityError, Estimator, EstimatorConfig, RejectedShotsError, ThetaParams
from .oracle import ReferenceValues
from .simulator import default_seed, load_noise_presets, run, trajectory_fidelity

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FIXTURE = 3
EXIT_CONVERGENCE = 4
EXIT_CAPACITY = 5

_FIXTURE_RE = re.compile(r"^(?P<mol>[a-z0-9]+)_(?P<dist>[0-9]+\.[0-9]+)$")

_CSV_COLUMNS = (
    "molecule",
    "distance_bohr",
    "e_hf_ref",
    "e_mp2_ref",
    "e_omp2_ref",
    "e_fci_ref",
    "e0",
    "e1",
    "e2",
    "e_total",
    "variance",
    "shots",
    "noise_preset",
    "postselected",
    "kept_fraction_mean",
    "status",
)


class UsageError(Exception):
    pass


class FixtureProblem(Exception):
    pass


def _parse_fixture_name(path: Path):
    m = _FIXTURE_RE.match(path.stem)
    if not m:
        return None, None
    return m.group("mol"), float(m.group("dist"))


def _load_problem(path: Path, refs: ReferenceValues):
    """The fixture's integrals, in the molecule's active space, and its reference point."""
    if not path.exists():
        raise FixtureProblem(f"fixture not found: {path}")
    mol, dist = _parse_fixture_name(path)
    ref_mol = refs.molecules.get(mol) if mol else None
    try:
        # FcidumpError and UnicodeDecodeError are ValueErrors, as are the
        # active-space checks on a file too small for the molecule's spec
        mi = parse_fcidump(path)
        if ref_mol is not None:
            spec = ref_mol.active_space
            if spec.frozen_occupied or spec.deleted_virtual:
                mi = freeze_active_space(mi, spec)
    except (OSError, ValueError) as exc:
        raise FixtureProblem(f"{path}: {exc}") from exc
    try:
        ref_pt = ref_mol.point_at(dist) if ref_mol is not None else None
    except KeyError:
        ref_pt = None
    return mi, mol, dist, ref_pt


def _estimator_config(args, **fixed) -> EstimatorConfig:
    """One EstimatorConfig from the command line; fixed overrides its flags."""
    try:
        settings = dict(
            mode=args.mode,
            shots=args.shots,
            noise=load_noise_presets()[args.noise] if args.noise else None,
            postselect=args.postselect,
            truncation_tol=args.tol,
            seed=args.seed if args.seed is not None else default_seed(),
        )
        return EstimatorConfig(**{**settings, **fixed})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _energy_row(est: Estimator, bd, mol, dist, ref_pt, preset: str | None):
    cfg = est.cfg
    return {
        "molecule": mol or "unknown",
        "distance_bohr": dist,
        "e_hf_ref": ref_pt.e_hf if ref_pt else None,
        "e_mp2_ref": ref_pt.e_mp2 if ref_pt else None,
        "e_omp2_ref": ref_pt.e_omp2 if ref_pt else None,
        "e_fci_ref": ref_pt.e_fci if ref_pt else None,
        "e0": bd.e0,
        "e1": bd.e1,
        "e2": bd.e2,
        "e_total": bd.total + est.e_core,
        "variance": bd.variance,
        "shots": cfg.shots if cfg.mode == "shots" else 0,
        "noise_preset": preset or "",
        "postselected": bd.diagnostics.get("kept_fraction_mean") is not None,
        "kept_fraction_mean": bd.diagnostics.get("kept_fraction_mean"),
        "status": "ok" if bd.diagnostics.get("converged", True) else "no_convergence",
    }


def _format_value(key, value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10f}"
    return str(value)


def _emit(rows, fmt: str, extra=None) -> str:
    if fmt == "json":
        doc = {"schema": 1, "rows": rows}
        if extra:
            doc.update(extra)
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = ["# schema=1", ",".join(_CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_format_value(k, row.get(k)) for k in _CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _write(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def cmd_energy(args) -> int:
    cfg = _estimator_config(args)
    mi, mol, dist, ref_pt = _load_problem(Path(args.fixture), ReferenceValues.load())
    est = Estimator(mi, cfg)
    row = _energy_row(est, est.optimize()[1], mol, dist, ref_pt, args.noise)
    _write(_emit([row], args.format), args.out)
    return EXIT_OK if row["status"] == "ok" else EXIT_CONVERGENCE


def cmd_curve(args) -> int:
    # --jobs is accepted, but rows run serially: threads were measured slower
    cfg = _estimator_config(args)
    refs = ReferenceValues.load()
    paths = sorted(Path(args.fixture_dir).glob("*.fcidump"))
    if args.molecule:
        paths = [p for p in paths if _parse_fixture_name(p)[0] == args.molecule]
    if not paths:
        raise FixtureProblem(f"no fixtures in {args.fixture_dir}")
    # every fixture is checked before any is optimized, so a bad file costs no work
    problems = [_load_problem(path, refs) for path in paths]
    rows = []
    for path, (mi, mol, dist, ref_pt) in zip(paths, problems):
        # each fixture's warnings are shown once, named by its file
        with warnings.catch_warnings(record=True) as caught:
            est = Estimator(mi, cfg)
            bd = est.optimize()[1]
        for w in {str(w.message): w for w in caught}.values():
            warnings.showwarning(f"{path.name}: {w.message}", w.category, w.filename, w.lineno)
        rows.append(_energy_row(est, bd, mol, dist, ref_pt, args.noise))
    rows.sort(key=lambda r: (r["molecule"], r["distance_bohr"]))
    _write(_emit(rows, args.format), args.out)
    if any(r["status"] != "ok" for r in rows):
        return EXIT_CONVERGENCE
    return EXIT_OK


def cmd_resources(args) -> int:
    cfg = _estimator_config(args)
    mi, mol, dist, _ = _load_problem(Path(args.fixture), ReferenceValues.load())
    summary = Estimator(mi, cfg).resource_summary()
    doc = {"schema": 1, "molecule": mol or "unknown", "distance_bohr": dist, **asdict(summary)}
    if args.format == "json":
        _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        keys = [k for k in doc if k != "schema"]
        lines = ["# schema=1", ",".join(keys), ",".join(_format_value(k, doc[k]) for k in keys)]
        _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_noise_study(args) -> int:
    # noise-study always runs in shots mode, whatever --mode says; the raw
    # row reads the same draws as the postselected one, before the discard
    cfg = _estimator_config(args, mode="shots", postselect=True, trajectories=args.trajectories)
    mi, mol, dist, ref_pt = _load_problem(Path(args.fixture), ReferenceValues.load())
    est = Estimator(mi, cfg)
    bd = est.mp2_energy(ThetaParams.zeros(est.n_qubits, est.n_electrons))
    rows = [
        _energy_row(est, b, mol, dist, ref_pt, args.noise) for b in (bd.diagnostics["raw"], bd)
    ]
    extra = None
    # CSV has no place for the fidelity block, so only JSON computes it
    if cfg.noise is not None and args.format == "json":
        extra = {"fidelity": _reference_fidelity(est)}
    _write(_emit(rows, args.format, extra=extra), args.out)
    return EXIT_OK


def _reference_fidelity(est: Estimator):
    """Raw vs post-selected fidelity of the undoubled measurement circuit."""
    cfg = est.cfg
    n = est.n_qubits
    u_circ = compile_orbital_rotation(np.eye(n))
    meas = est.measurement_circuits(ThetaParams.zeros(n, est.n_electrons))
    circuit = Circuit(n, prep_reference(n, est.n_electrons).gates + u_circ.gates + meas[0].gates)
    raw, ps = trajectory_fidelity(
        run(circuit), circuit, cfg.noise, cfg.trajectories, est.n_electrons, seed=cfg.seed
    )
    return {
        "raw": {"fidelity": raw.fidelity, "stderr": raw.stderr},
        "postselected": {
            "fidelity": ps.fidelity,
            "stderr": ps.stderr,
            "kept_fraction_mean": ps.kept_fraction_mean,
        },
        "n_trajectories": cfg.trajectories,
    }


def _bounded(kind, low, strict=True):
    """argparse type: kind(text), rejected unless finite and > low (>= low if not strict)."""

    def parse(text: str):
        value = kind(text)
        if not (value > low if strict else value >= low) or value == math.inf:  # nan fails too
            bound = "above" if strict else "at least"
            raise argparse.ArgumentTypeError(f"must be a finite number {bound} {low}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its own messages
    return parse


def _add_common(p, with_jobs=False):
    p.add_argument("--mode", choices=("exact", "shots"), default="exact")
    p.add_argument("--shots", type=_bounded(int, 0), default=100_000)
    p.add_argument(
        "--noise", choices=sorted(load_noise_presets()), default=None, help="noise preset name"
    )
    p.add_argument("--postselect", action="store_true")
    p.add_argument("--tol", type=_bounded(float, 0), default=1e-12, help="factorization truncation")
    p.add_argument("--seed", type=_bounded(int, 0, strict=False), default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if with_jobs:
        p.add_argument(
            "--jobs",
            type=_bounded(int, 0),
            default=1,
            help="accepted, but the rows run serially whatever its value",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="omp2sim")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="optimize one fixture")
    p.add_argument("--fixture", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("curve", help="optimize every fixture in a directory")
    p.add_argument("--fixture-dir", required=True)
    p.add_argument("--molecule", default=None)
    _add_common(p, with_jobs=True)
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("resources", help="circuit counts and depths")
    p.add_argument("--fixture", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_resources)

    p = sub.add_parser("noise-study", help="theta = 0 energies under a noise preset")
    p.add_argument("--fixture", required=True)
    p.add_argument("--trajectories", type=_bounded(int, 0), default=16)
    _add_common(p)
    p.set_defaults(fn=cmd_noise_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        with warnings.catch_warnings():
            # one stderr line per warning, like the error lines below
            warnings.showwarning = _show_warning
            if args.out is not None:
                out = Path(args.out)
                # checked before any work, so a bad path cannot waste a run
                if out.is_dir() or not out.parent.is_dir():
                    raise UsageError(f"--out {out}: not a file path in an existing directory")
            return args.fn(args)
    except UsageError as exc:
        return _fail(exc, EXIT_USAGE)
    except FixtureProblem as exc:
        return _fail(exc, EXIT_FIXTURE)
    except RejectedShotsError as exc:
        return _fail(exc, EXIT_CONVERGENCE)
    except CapacityError as exc:
        return _fail(exc, EXIT_CAPACITY)
    except MemoryError as exc:
        # e.g. a FCIDUMP header whose NORB asks for more integrals than fit
        return _fail(f"out of memory: {exc}", EXIT_CAPACITY)


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
