"""Command line front end.

Subcommands; each accepts only the options it reads (see its --help):
  energy       optimize one fixture and report the energy breakdown
  curve        optimize every fixture in a directory, one row per point
  resources    circuit counts and depths for one fixture
  noise-study  shots-mode evaluation at theta = 0 under a noise preset,
               raw and post-selected

An option that sets an EstimatorConfig field takes that field's default, so
seeded output depends on the command line alone: the seed is --seed, else 1.

Fixture files follow the naming convention {molecule}_{distance:.1f}.fcidump;
recognized molecule names pick up the packaged reference energies and the
matching active space.  Unknown names still run, without reference columns.

Exit codes: 0 ok, 2 usage, 3 fixture problem, 4 no estimate (no convergence,
or postselection rejected every shot of a circuit), 5 over capacity.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import re
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .chem import freeze_active_space, parse_fcidump
from .circuits import Circuit, compile_orbital_rotation, prep_reference
from .omp2 import (
    CapacityError,
    Estimator,
    EstimatorConfig,
    RejectedShotsError,
    ThetaParams,
    check_capacity,
)
from .oracle import ReferenceValues
from .simulator import load_noise_presets, run, trajectory_fidelity

# A command-line run ends with its process.  Without this hook, CPython's
# finalization then collects and frees, one by one, the reference cycles of
# every function, class and module dict that numpy and the standard library
# made.  gc.freeze moves every tracked object into the permanent generation
# just before that step, so the final collections skip them and the OS
# reclaims the memory: on a 2-vCPU host exit takes 18 ms without the hook and
# 5 ms with it, where an exact LiH evaluation takes under 1 ms.  The hook
# runs only at exit, after main has returned: collection during a run is
# untouched, the interpreter still flushes stdout and stderr afterwards, and
# every other exit handler still runs.  Only the command line registers it;
# `import omp2sim` leaves a host process its own teardown.
atexit.register(gc.freeze)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FIXTURE = 3
EXIT_CONVERGENCE = 4
EXIT_CAPACITY = 5

_FIXTURE_RE = re.compile(r"^(?P<mol>[a-z0-9]+)_(?P<dist>[0-9]+\.[0-9]+)$")

_CSV_COLUMNS = tuple(
    "molecule distance_bohr e_hf_ref e_mp2_ref e_omp2_ref e_fci_ref e0 e1 e2 e_total "
    "variance shots noise_preset postselected kept_fraction_mean status".split()
)


class UsageError(Exception):
    pass


class FixtureProblem(Exception):
    pass


def _parse_fixture_name(path: Path):
    """(molecule, distance) from the file name, ("unknown", None) if it does not
    parse: the molecule every row prints and `curve --molecule` matches."""
    m = _FIXTURE_RE.match(path.stem)
    if not m:
        return "unknown", None
    return m.group("mol"), float(m.group("dist"))


def _load_problem(path: Path, refs: ReferenceValues):
    """The fixture's integrals, in the molecule's active space, and its reference point."""
    if not path.exists():
        raise FixtureProblem(f"fixture not found: {path}")
    mol, dist = _parse_fixture_name(path)
    ref_mol = refs.molecules.get(mol)
    try:
        # FcidumpError and UnicodeDecodeError are ValueErrors, as are the
        # active-space checks on a file too small for the molecule's spec
        mi = parse_fcidump(path)
        if ref_mol is not None:
            spec = ref_mol.active_space
            if spec.frozen_occupied or spec.deleted_virtual:
                mi = freeze_active_space(mi, spec)
        check_capacity(mi)
    except CapacityError as exc:
        raise CapacityError(f"{path}: {exc}") from exc
    except MemoryError as exc:
        # e.g. a header whose NORB asks for more integrals than fit
        raise CapacityError(f"{path}: out of memory: {exc}") from exc
    except (OSError, ValueError) as exc:
        raise FixtureProblem(f"{path}: {exc}") from exc
    try:
        ref_pt = ref_mol.point_at(dist) if ref_mol is not None else None
    except KeyError:
        ref_pt = None
    return mi, mol, dist, ref_pt


def _estimator_config(args) -> EstimatorConfig:
    """The EstimatorConfig of the subcommand's options; the other fields keep their defaults."""
    settings = {f.name: getattr(args, f.name) for f in fields(EstimatorConfig) if f.name in args}
    if settings.get("noise") is not None:
        settings["noise"] = load_noise_presets()[settings["noise"]]
    try:
        return EstimatorConfig(**settings)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _energy_row(est: Estimator, bd, mol, dist, ref_pt, preset: str | None):
    cfg = est.cfg
    return {
        "molecule": mol,
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
    if args.jobs < 1:
        raise UsageError(f"--jobs must be positive, got {args.jobs}")
    cfg = _estimator_config(args)
    refs = ReferenceValues.load()
    fixture_dir = Path(args.fixture_dir)
    if not fixture_dir.is_dir():
        problem = "not a directory" if fixture_dir.exists() else "directory not found"
        raise FixtureProblem(f"--fixture-dir {fixture_dir}: {problem}")
    paths = sorted(fixture_dir.glob("*.fcidump"))
    if not paths:
        raise FixtureProblem(f"no fixtures in {fixture_dir}")
    if args.molecule:
        paths = [p for p in paths if _parse_fixture_name(p)[0] == args.molecule]
        if not paths:
            raise FixtureProblem(f"no {args.molecule} fixtures in {fixture_dir}")
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
    # a name with no distance sorts after its molecule's distances, in file name order
    rows.sort(key=lambda r: (r["molecule"], r["distance_bohr"] is None, r["distance_bohr"] or 0))
    _write(_emit(rows, args.format), args.out)
    if any(r["status"] != "ok" for r in rows):
        return EXIT_CONVERGENCE
    return EXIT_OK


def cmd_resources(args) -> int:
    cfg = _estimator_config(args)
    mi, mol, dist, _ = _load_problem(Path(args.fixture), ReferenceValues.load())
    summary = Estimator(mi, cfg).resource_summary()
    doc = {"schema": 1, "molecule": mol, "distance_bohr": dist, **asdict(summary)}
    if args.format == "json":
        _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    else:
        keys = [k for k in doc if k != "schema"]
        lines = ["# schema=1", ",".join(keys), ",".join(_format_value(k, doc[k]) for k in keys)]
        _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_noise_study(args) -> int:
    # the raw row reads the same draws as the postselected one, before the discard
    cfg = _estimator_config(args)
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


def build_parser() -> argparse.ArgumentParser:
    # each option is declared once, in the parent of the subcommands that read
    # it; an option for an EstimatorConfig field has the field's name and default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--tol", dest="truncation_tol", type=float, default=EstimatorConfig.truncation_tol
    )
    common.add_argument("--out", default=None)
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument("--shots", type=int, default=EstimatorConfig.shots)
    sampled.add_argument("--noise", choices=sorted(load_noise_presets()), help="noise preset name")
    sampled.add_argument("--seed", type=int, default=EstimatorConfig.seed)

    optimized = argparse.ArgumentParser(add_help=False)
    optimized.add_argument("--mode", choices=("exact", "shots"), default=EstimatorConfig.mode)
    optimized.add_argument("--postselect", action="store_true", default=EstimatorConfig.postselect)

    parser = argparse.ArgumentParser(prog="omp2sim")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", parents=[optimized, sampled, common], help="optimize one fixture")
    p.add_argument("--fixture", required=True)
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser(
        "curve", parents=[optimized, sampled, common], help="optimize every fixture in a directory"
    )
    p.add_argument("--fixture-dir", required=True)
    p.add_argument("--molecule", default=None)
    p.add_argument("--jobs", type=int, default=1, help="accepted; rows run serially")
    p.set_defaults(fn=cmd_curve)

    p = sub.add_parser("resources", parents=[common], help="circuit counts and depths")
    p.add_argument("--fixture", required=True)
    p.set_defaults(fn=cmd_resources)

    p = sub.add_parser(
        "noise-study", parents=[sampled, common], help="theta = 0 energies under a noise preset"
    )
    p.add_argument("--fixture", required=True)
    p.add_argument("--trajectories", type=int, default=EstimatorConfig.trajectories)
    # always shots mode: the raw and the postselected row of one evaluation
    p.set_defaults(fn=cmd_noise_study, mode="shots", postselect=True)

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
        # an allocation past what the host holds, after the fixtures loaded
        return _fail(f"out of memory: {exc}", EXIT_CAPACITY)


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
