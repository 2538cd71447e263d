"""Run every workload, untraced and then traced, one run after another.

    python3 perfbench/suite.py [--seed N] [--seconds S]

Passes through each run's report: the end-to-end metrics (wall_s, setup_s,
cpu_s, peak_rss_mb) and fail_frac by name with units and sample counts,
then the per-layer metrics, span tree and tracing overhead.  --seconds
defaults to BENCHMARK.json's run_seconds.  Exit code 1 if any run failed or
reported an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    ok = True
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace {trace}", flush=True)
            proc = subprocess.run(
                [
                    sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace),
                ],
                cwd=run.ROOT, capture_output=True, text=True,
            )
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.splitlines()
            ok = ok and proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
