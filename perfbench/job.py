"""One benchmark job: a single omp2sim process, started as a user starts one.

    python3 perfbench/job.py --workload NAME --seed N --fixture-dir DIR --side FILE
                             [--trace] [--probe]

It imports omp2sim from the `src/` directory next to `perfbench/` and runs
the workload in this process: exact_curve's omp2sim command line, as the
`omp2sim` console script would, or full_space's calls into the public API.
It exits with the command's exit code; the output goes to stdout
untouched.  Timing data goes to the --side JSON file: the import time, the
CLOCK_MONOTONIC reading when the first `Estimator` was constructed (the end
of set-up), and with --trace the spans and counters from tracer.py.  With
--probe the job exits right after that first construction, so a run can
measure set-up several times cheaply.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FULL_SPACE_FIXTURE = ROOT / "src" / "omp2sim" / "data" / "fixtures" / "lih_3.1.fcidump"


def exact_curve(fixture_dir: str) -> int:
    """`omp2sim curve --jobs 1` over the fixture directory, as the console script runs it."""
    import omp2sim.cli

    # exact mode is the CLI default; the seed does not enter exact work
    return omp2sim.cli.main(["curve", "--fixture-dir", fixture_dir, "--jobs", "1"])


def full_space() -> int:
    """One exact evaluation of LiH with no active space, through the public API.

    The CLI would freeze LiH's active space, so this workload calls the
    package directly.  Prints the energy terms as JSON for the output checks.
    """
    from omp2sim.chem import parse_fcidump
    from omp2sim.omp2 import Estimator, ThetaParams

    mi = parse_fcidump(FULL_SPACE_FIXTURE)
    est = Estimator(mi)
    br = est.mp2_energy(ThetaParams.zeros(est.n_qubits, est.n_electrons))
    doc = {"n_qubits": est.n_qubits, "e0": br.e0, "e1": br.e1, "e2": br.e2, "e_core": mi.e_core}
    print(json.dumps(doc))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--fixture-dir", required=True)
    ap.add_argument("--side", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    side = {"import_s": None, "setup_end": None, "spans": [], "counts": {}}

    def write_side():
        with open(args.side, "w") as fh:
            json.dump(side, fh)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import omp2sim.cli

    side["import_s"] = time.perf_counter() - t0
    if Path(omp2sim.__file__).resolve().parent != ROOT / "src" / "omp2sim":
        raise SystemExit(f"omp2sim imported from {omp2sim.__file__}, not from {ROOT / 'src'}")

    if args.trace:
        import tracer

        rec = tracer.Recorder(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install(rec)
        side["spans"], side["counts"] = rec.spans, rec.counts

    estimator = omp2sim.omp2.Estimator
    construct = estimator.__init__

    def first_construct(self, *a, **kw):
        construct(self, *a, **kw)
        if side["setup_end"] is None:
            side["setup_end"] = time.monotonic()
            if args.probe:
                write_side()
                os._exit(0)

    estimator.__init__ = first_construct

    if args.workload == "exact_curve":
        code = exact_curve(args.fixture_dir)
    elif args.workload == "full_space":
        code = full_space()
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")
    sys.stdout.flush()
    write_side()
    return code


if __name__ == "__main__":
    sys.exit(main())
