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
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chem import FcidumpError, freeze_active_space, parse_fcidump
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


@dataclass(frozen=True)
class RunConfig:
    mode: str
    shots: int
    noise_preset: str | None
    postselect: bool
    tol: float
    seed: int
    jobs: int
    fmt: str
    out: str | None
    trajectories: int = 16


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
    if not path.exists():
        raise FixtureProblem(f"fixture not found: {path}")
    try:
        mi = parse_fcidump(path)
    except FcidumpError as exc:
        raise FixtureProblem(f"{path}: {exc}") from exc
    mol, dist = _parse_fixture_name(path)
    ref_mol = refs.molecules.get(mol) if mol else None
    ref_pt = None
    if ref_mol is not None:
        spec = ref_mol.active_space
        if spec.frozen_occupied or spec.deleted_virtual:
            mi = freeze_active_space(mi, spec)
        try:
            ref_pt = ref_mol.point_at(dist)
        except KeyError:
            ref_pt = None
    return mi, mol, dist, ref_pt


def _estimator_config(run_cfg: RunConfig):
    noise = None
    if run_cfg.noise_preset is not None:
        noise = load_noise_presets()[run_cfg.noise_preset]
    return EstimatorConfig(
        mode=run_cfg.mode,
        shots=run_cfg.shots,
        noise=noise,
        postselect=run_cfg.postselect,
        truncation_tol=run_cfg.tol,
        seed=run_cfg.seed,
        trajectories=run_cfg.trajectories,
    )


def _blank_row(mol, dist, run_cfg: RunConfig):
    return {
        "molecule": mol or "unknown",
        "distance_bohr": dist,
        "e_hf_ref": None,
        "e_mp2_ref": None,
        "e_omp2_ref": None,
        "e_fci_ref": None,
        "e0": None,
        "e1": None,
        "e2": None,
        "e_total": None,
        "variance": None,
        "shots": run_cfg.shots if run_cfg.mode == "shots" else 0,
        "noise_preset": run_cfg.noise_preset or "",
        "postselected": run_cfg.postselect,
        "kept_fraction_mean": None,
        "status": "ok",
    }


def _energy_row(path: Path, run_cfg: RunConfig, refs: ReferenceValues, optimize=True):
    mi, mol, dist, ref_pt = _load_problem(path, refs)
    cfg = _estimator_config(run_cfg)
    est = Estimator(mi, cfg)
    if optimize:
        theta, bd = est.optimize()
    else:
        theta = ThetaParams.zeros(est.n_qubits, est.n_electrons)
        bd = est.mp2_energy(theta)
    row = _blank_row(mol, dist, run_cfg)
    if ref_pt is not None:
        row.update(
            e_hf_ref=ref_pt.e_hf,
            e_mp2_ref=ref_pt.e_mp2,
            e_omp2_ref=ref_pt.e_omp2,
            e_fci_ref=ref_pt.e_fci,
        )
    row.update(
        e0=bd.e0,
        e1=bd.e1,
        e2=bd.e2,
        e_total=bd.total + mi.e_core,
        variance=bd.variance,
        kept_fraction_mean=bd.diagnostics.get("kept_fraction_mean"),
        status="ok" if bd.diagnostics.get("converged", True) else "no_convergence",
    )
    return row


def _format_value(key, value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10f}"
    return str(value)


def _emit(rows, run_cfg: RunConfig, extra=None) -> str:
    if run_cfg.fmt == "json":
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


def _run_config(args) -> RunConfig:
    # noise-study always runs in shots mode, whatever --mode says
    if args.mode != "shots" and args.command != "noise-study":
        if args.noise is not None:
            raise UsageError("--noise needs --mode shots")
        if args.postselect:
            raise UsageError("--postselect needs --mode shots")
    return RunConfig(
        mode=args.mode,
        shots=args.shots,
        noise_preset=args.noise,
        postselect=args.postselect,
        tol=args.tol,
        seed=args.seed if args.seed is not None else default_seed(),
        jobs=getattr(args, "jobs", 1),
        fmt=args.format,
        out=args.out,
    )


def cmd_energy(args) -> int:
    run_cfg = _run_config(args)
    refs = ReferenceValues.load()
    row = _energy_row(Path(args.fixture), run_cfg, refs)
    _write(_emit([row], run_cfg), run_cfg.out)
    return EXIT_OK if row["status"] == "ok" else EXIT_CONVERGENCE


def cmd_curve(args) -> int:
    run_cfg = _run_config(args)
    refs = ReferenceValues.load()
    paths = sorted(Path(args.fixture_dir).glob("*.fcidump"))
    if args.molecule:
        paths = [p for p in paths if _parse_fixture_name(p)[0] == args.molecule]
    if not paths:
        raise FixtureProblem(f"no fixtures in {args.fixture_dir}")

    def work(path):
        return _energy_row(path, run_cfg, refs)

    if run_cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=run_cfg.jobs) as pool:
            rows = list(pool.map(work, paths))
    else:
        rows = [work(p) for p in paths]
    rows.sort(key=lambda r: (r["molecule"], r["distance_bohr"]))
    _write(_emit(rows, run_cfg), run_cfg.out)
    if any(r["status"] != "ok" for r in rows):
        return EXIT_CONVERGENCE
    return EXIT_OK


def cmd_resources(args) -> int:
    run_cfg = _run_config(args)
    refs = ReferenceValues.load()
    mi, mol, dist, _ = _load_problem(Path(args.fixture), refs)
    est = Estimator(mi, _estimator_config(run_cfg))
    summary = est.resource_summary()
    doc = {
        "schema": 1,
        "molecule": mol or "unknown",
        "distance_bohr": dist,
        "n_qubits": summary.n_qubits,
        "n_parameters": summary.n_parameters,
        "n_doubles": summary.n_doubles,
        "n_groups": summary.n_groups,
        "circuits_per_evaluation": summary.circuits_per_evaluation,
        "reference_depth": summary.reference_depth,
        "residual_depth_max": summary.residual_depth_max,
        "cnot_count_reference": summary.cnot_count_reference,
        "cnot_count_residual_max": summary.cnot_count_residual_max,
    }
    if run_cfg.fmt == "json":
        _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", run_cfg.out)
    else:
        keys = [k for k in doc if k != "schema"]
        lines = ["# schema=1", ",".join(keys), ",".join(_format_value(k, doc[k]) for k in keys)]
        _write("\n".join(lines) + "\n", run_cfg.out)
    return EXIT_OK


def cmd_noise_study(args) -> int:
    run_cfg = _run_config(args)
    refs = ReferenceValues.load()
    path = Path(args.fixture)
    rows = []
    for ps in (False, True):
        cfg_i = RunConfig(
            mode="shots",
            shots=run_cfg.shots,
            noise_preset=run_cfg.noise_preset,
            postselect=ps,
            tol=run_cfg.tol,
            seed=run_cfg.seed,
            jobs=1,
            fmt=run_cfg.fmt,
            out=run_cfg.out,
            trajectories=args.trajectories,
        )
        rows.append(_energy_row(path, cfg_i, refs, optimize=False))
    extra = None
    if run_cfg.noise_preset is not None:
        extra = {"fidelity": _reference_fidelity(path, run_cfg, refs, args.trajectories)}
    _write(_emit(rows, run_cfg, extra=extra), run_cfg.out)
    return EXIT_OK


def _reference_fidelity(path: Path, run_cfg: RunConfig, refs: ReferenceValues, n_traj: int):
    """Raw vs post-selected fidelity of the undoubled measurement circuit."""
    mi, _, _, _ = _load_problem(path, refs)
    noise = load_noise_presets()[run_cfg.noise_preset]
    est = Estimator(mi)
    n = est.n_qubits
    u_circ = compile_orbital_rotation(np.eye(n))
    meas = est.measurement_circuits(ThetaParams.zeros(n, est.n_electrons))
    circuit = Circuit(n, prep_reference(n, est.n_electrons).gates + u_circ.gates + meas[0].gates)
    ideal = run(circuit)
    raw = trajectory_fidelity(ideal, circuit, noise, n_traj, seed=run_cfg.seed)
    ps = trajectory_fidelity(
        ideal, circuit, noise, n_traj, postselect_n=est.n_electrons, seed=run_cfg.seed
    )
    return {
        "raw": {"fidelity": raw.fidelity, "stderr": raw.stderr},
        "postselected": {
            "fidelity": ps.fidelity,
            "stderr": ps.stderr,
            "kept_fraction_mean": ps.kept_fraction_mean,
        },
        "n_trajectories": n_traj,
    }


def _positive(kind):
    """argparse type: kind(text), rejected unless above 0."""

    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be above 0, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in its own messages
    return parse


def _add_common(p, with_jobs=False):
    p.add_argument("--mode", choices=("exact", "shots"), default="exact")
    p.add_argument("--shots", type=_positive(int), default=100_000)
    p.add_argument(
        "--noise", choices=sorted(load_noise_presets()), default=None, help="noise preset name"
    )
    p.add_argument("--postselect", action="store_true")
    p.add_argument("--tol", type=_positive(float), default=1e-12, help="factorization truncation")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if with_jobs:
        p.add_argument("--jobs", type=_positive(int), default=1)


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
    p.add_argument("--trajectories", type=_positive(int), default=16)
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
        return args.fn(args)
    except UsageError as exc:
        return _fail(exc, EXIT_USAGE)
    except FixtureProblem as exc:
        return _fail(exc, EXIT_FIXTURE)
    except RejectedShotsError as exc:
        return _fail(exc, EXIT_CONVERGENCE)
    except CapacityError as exc:
        return _fail(exc, EXIT_CAPACITY)


def _fail(exc: Exception, code: int) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
