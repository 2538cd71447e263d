"""Smoke check of the benchmark harness itself; takes seconds.

    python3 perfbench/smoke.py

Runs the exact_curve job on the single fixture h2_1.4, once untraced and
once traced, through the launch, check and metric code that run.py uses.
It also checks that BENCHMARK.json lists exactly the metrics run.py
reports.  Exit code 0 when every check passes.  Kept out of the test suite
on purpose: it starts processes and times them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in bench[key]]
        if listed != list(ours):
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")

    sys.path.insert(0, str(run.SRC))
    work = run.WORK / f"smoke-{os.getpid()}"
    fixture_dir = work / "fixtures"
    fixture_dir.mkdir(parents=True)
    try:
        shutil.copyfile(run.FIXTURES / "h2_1.4.fcidump", fixture_dir / "h2_1.4.fcidump")
        jobs = [
            run.launch("exact_curve", 1, fixture_dir, kind, work, k)
            for k, kind in enumerate(("plain", "traced"))
        ]
        results = run.run_checks("exact_curve", [], jobs, fixture_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    problems += [f"check failed: {name}" for name, ok in results if not ok]
    layers = run.layer_metrics(jobs[1])
    for name, expected in (
        ("cli.main.s", None),
        ("omp2.optimize.calls", 1),
        ("chem.parse_fcidump.calls", 1),
        ("simulator.apply_circuit.gate_columns", None),
    ):
        value = layers.get(name, 0)
        if value <= 0 or (expected is not None and value != expected):
            problems.append(f"traced {name} = {value}")
    for p in problems:
        print(p)
    print(
        f"smoke {'FAILED' if problems else 'ok'}: {len(results)} output checks, "
        f"wall_s {jobs[0].wall_s:.2f} untraced, {jobs[1].wall_s:.2f} traced"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
