"""omp2sim benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; omp2sim is imported from its
`src/` directory, nothing is built or installed.  Workloads (see
perfbench/README.md for why each one):

  exact_curve  `omp2sim curve --jobs 1`, exact mode, over copies of 8 fixtures
  full_space   one exact `mp2_energy` of LiH at 12 qubits, through the API

A run is a closed loop with one client: every job is a fresh process, and
the next starts only after the previous one has exited.  With --trace 0 the
run first starts a few set-up probes (the job up to its first `Estimator`),
then repeats the whole job while another one still fits in S seconds, at
least once, and prints the medians of the end-to-end metrics.  With
--trace 1 it alternates traced and untraced jobs, at least two traced and
one untraced, and prints the per-layer metrics from the spans (medians over
the traced jobs) and the tracing overhead.

Every job's output is checked after the timed region; the last line of
stdout is one JSON object with `correct`, `attempted` and `failed` (output
checks) and `metrics`.  Exit code 0 unless the run could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "omp2sim" / "data" / "fixtures"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("exact_curve", "full_space")
CURVE_FIXTURES = (
    "h2_1.4", "h3p_2.4", "lih_3.1", "h4_1.0", "h4_1.8", "h4_2.6", "h4_3.4", "h4_4.6",
)
SETUP_PROBES = 4
DEADLINE_S = 170  # the whole run, so it exits within 180 s

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

# layer -> stats, named <layer>.<stat>; see README.md for what each should move
LAYERS = {
    "chem.parse_fcidump": ("calls", "s"),
    "chem.build_perturbation": ("calls", "s"),
    "lowrank.factorize": ("s",),
    "lowrank.coefficient_vector": ("calls", "s"),
    "lowrank.one_body_group": ("calls", "s"),
    "circuits.compile_orbital_rotation": ("calls", "s"),
    "circuits.double_excitation": ("calls",),
    "simulator.apply_circuit": ("calls", "s", "self_s", "gate_columns", "bytes_computed"),
    "omp2.estimator_init": ("calls", "s"),
    "omp2.mp2_energy": ("calls", "s", "self_s"),
    "omp2.optimize": ("calls", "s", "self_s", "iterations", "evaluations"),
    "oracle.ReferenceValues.load": ("calls", "s"),
    "cli.main": ("s", "self_s"),
    "process": ("import_s", "cpu_per_wall"),
    "trace": ("overhead_s",),
}
UNITS = {
    "calls": "count", "s": "s", "self_s": "s", "gate_columns": "count",
    "bytes_computed": "B", "iterations": "count", "evaluations": "count", "import_s": "s",
    "cpu_per_wall": "ratio", "overhead_s": "s",
}
PER_LAYER = tuple(
    (f"{layer}.{stat}", UNITS[stat]) for layer, stats in LAYERS.items() for stat in stats
)
SPAN_STATS = ("calls", "s", "self_s")  # the order of tracer.layer_stats
# counts that must repeat exactly between traced jobs
COUNT_STATS = ("calls", "gate_columns", "iterations", "evaluations")


class Stopped(Exception):
    """The run's deadline passed or the run was asked to terminate."""


@dataclass
class Job:
    kind: str  # probe | plain | traced
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes
    side: dict = field(default_factory=dict)
    setup_s: float | None = None


def launch(workload: str, seed: int, fixture_dir: Path, kind: str, work: Path, k: int) -> Job:
    """Start one job process, wait for it to exit and collect its resource use."""
    out, err, side = (work / f"job{k}.{ext}" for ext in ("out", "err", "side"))
    cmd = [
        sys.executable, str(HERE / "job.py"), "--workload", workload, "--seed", str(seed),
        "--fixture-dir", str(fixture_dir), "--side", str(side),
    ]
    if kind == "traced":
        cmd.append("--trace")
    if kind == "probe":
        cmd.append("--probe")
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=fo, stderr=fe)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    job = Job(
        kind=kind,
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        stdout=out.read_bytes(),
        stderr=err.read_bytes(),
    )
    if side.exists():
        job.side = json.loads(side.read_text())
        if job.side.get("setup_end") is not None:
            job.setup_s = job.side["setup_end"] - start
    return job


def measure(workload: str, seed: int, seconds: int, trace: bool, fixture_dir: Path, work: Path):
    counter = itertools.count()
    probes = []
    if not trace:
        probes = [
            launch(workload, seed, fixture_dir, "probe", work, next(counter))
            for _ in range(SETUP_PROBES)
        ]
    start = time.monotonic()
    kinds = itertools.cycle(("traced", "plain")) if trace else itertools.repeat("plain")
    min_jobs = 3 if trace else 1
    jobs: list[Job] = []
    while len(jobs) < min_jobs or (
        time.monotonic() - start + statistics.median(j.wall_s for j in jobs) <= seconds
    ):
        jobs.append(launch(workload, seed, fixture_dir, next(kinds), work, next(counter)))
    return probes, jobs


def layer_metrics(job: Job) -> dict[str, float]:
    """Per-layer metrics of one traced job, from its spans and counters."""
    stats = tracer.layer_stats(tracer.span_tree(job.side.get("spans", [])))
    counts = job.side.get("counts", {})
    values = {}
    for name, _ in PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        if stat in SPAN_STATS:
            values[name] = stats.get(layer, (0, 0.0, 0.0))[SPAN_STATS.index(stat)]
        elif layer not in ("process", "trace"):  # whole-job metrics, set by the caller
            values[name] = counts.get(name, 0)
    return values


def run_checks(workload: str, probes: list[Job], jobs: list[Job], fixture_dir: Path):
    results = []
    for k, p in enumerate(probes):
        results.append((f"probe {k} exit 0", p.exit_code == 0))
        results.append((f"probe {k} reached set-up end", p.setup_s is not None))
    for k, j in enumerate(jobs):
        named = checks.process_checks(j.exit_code, j.stdout, j.stderr)
        named += checks.workload_checks(workload, j.stdout, fixture_dir)
        if k:
            named.append(("stdout byte-identical to job 0", j.stdout == jobs[0].stdout))
        if j.setup_s is None:
            named.append(("reached set-up end", False))
        results += [(f"job {k} ({j.kind}) {name}", ok) for name, ok in named]
    traced = [j for j in jobs if j.kind == "traced"]
    if traced:
        count_sets = [
            {
                name: v
                for name, v in layer_metrics(j).items()
                if name.rsplit(".", 1)[1] in COUNT_STATS
            }
            for j in traced
        ]
        results.append(
            ("count metrics identical across traced jobs", all(c == count_sets[0] for c in count_sets))
        )
    return results


def run_record() -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unavailable (not a git checkout)"
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "src_py_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sources),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def _spread(values) -> str:
    return f"n={len(values)} [{' '.join(f'{v:.4f}' for v in values)}]"


def report_end_to_end(probes: list[Job], jobs: list[Job]) -> dict[str, float]:
    samples = {
        "wall_s": [j.wall_s for j in jobs],
        "setup_s": [j.setup_s for j in probes + jobs if j.setup_s is not None],
        "cpu_s": [j.cpu_s for j in jobs],
        "peak_rss_mb": [j.rss_mb for j in jobs],
    }
    metrics = {}
    for name, unit in END_TO_END:
        values = samples[name] or [float("nan")]
        metrics[name] = statistics.median(values)
        print(f"{name:<12} {metrics[name]:.4f} {unit:<3} median, {_spread(values)}")
    return metrics


def report_per_layer(jobs: list[Job]) -> dict[str, float]:
    traced = [j for j in jobs if j.kind == "traced"]
    plain = [j for j in jobs if j.kind == "plain"]
    spans = traced[0].side.get("spans", [])
    print(f"span tree of traced job 0 ({spans[0][0] if spans else 'no spans'}): calls, s, self_s")
    for path, (calls, total, own) in tracer.span_tree(spans).items():
        print(f"  {'  ' * (len(path) - 1)}{path[-1]:<40} {calls:>8} {total:10.4f} {own:10.4f}")
    per_job = [layer_metrics(j) for j in traced]
    metrics = {name: statistics.median(m[name] for m in per_job) for name in per_job[0]}
    metrics["process.import_s"] = statistics.median(
        [j.side["import_s"] for j in jobs if j.side.get("import_s") is not None] or [float("nan")]
    )
    metrics["process.cpu_per_wall"] = statistics.median(j.cpu_s / j.wall_s for j in plain)
    traced_wall = statistics.median(j.wall_s for j in traced)
    plain_wall = statistics.median(j.wall_s for j in plain)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    print(f"per-layer metrics, median of {len(traced)} traced jobs:")
    for name, unit in PER_LAYER:
        print(f"  {name:<48} {metrics[name]:.6g} {unit}")
    print(
        f"tracing overhead: traced wall_s {traced_wall:.4f} s (n={len(traced)}) - untraced "
        f"{plain_wall:.4f} s (n={len(plain)}) = {traced_wall - plain_wall:+.4f} s "
        f"({(traced_wall - plain_wall) / plain_wall:+.1%})"
    )
    return {name: metrics[name] for name, _ in PER_LAYER}


def _stop(signum, frame):
    if signum == signal.SIGALRM:
        raise Stopped(f"run exceeded {DEADLINE_S} s")
    raise Stopped(f"terminated by signal {signum}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "omp2sim" / "__init__.py").is_file():
        print(f"error: no omp2sim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{os.getpid()}"
    fixture_dir = work / "fixtures"
    fixture_dir.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(DEADLINE_S)
    try:
        for name in CURVE_FIXTURES:
            shutil.copyfile(FIXTURES / f"{name}.fcidump", fixture_dir / f"{name}.fcidump")
        probes, jobs = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), fixture_dir, work
        )
        signal.alarm(0)
        results = run_checks(args.workload, probes, jobs, fixture_dir)
    except Stopped as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's directory is still there

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("record " + json.dumps(run_record(), sort_keys=True))
    print(f"stdout sha256 {hashlib.sha256(jobs[0].stdout).hexdigest()} (job 0 of {len(jobs)})")
    failed = [name for name, ok in results if not ok]
    for name in failed:
        print(f"FAILED {name}")
    if args.trace:
        metrics = report_per_layer(jobs)
        units = dict(PER_LAYER)
    else:
        metrics = report_end_to_end(probes, jobs)
        units = dict(END_TO_END)
    print(f"fail_frac    {len(failed) / len(results):.4f} ratio ({len(failed)} of {len(results)} checks)")
    result = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
