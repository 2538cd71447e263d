"""Spans and counts around calls into omp2sim's public functions.

The package carries no instrumentation of its own.  A traced job installs
these wrappers after importing omp2sim and before running the workload.
`cli` and `omp2` bind their dependencies with `from ... import`, so every
wrapper replaces the function in each omp2sim module namespace that holds
it, not only in the module that defines it.

A span is [run_id, name, start, end, parent]; `parent` is the index of the
enclosing span in the same list, or -1.  Spans stay in memory and the job
writes them out when it ends.
"""

from __future__ import annotations

import functools
import sys
import time

BYTES_PER_AMPLITUDE = 16  # complex128


class Recorder:
    """Collects the spans and counters of one job."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, count=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = rec._open[-1] if rec._open else -1
            span = [rec.run_id, name, time.perf_counter(), 0.0, parent]
            rec._open.append(len(rec.spans))
            rec.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                rec._open.pop()
            if count is not None:
                count(rec, args, kwargs, result)
            return result

        return traced


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_apply_circuit(rec, args, kwargs, result):
    # gates of the circuit as passed x batch columns
    circuit, amplitudes = args[0], _arg(args, kwargs, 1, "amplitudes")
    columns = 1
    for extent in amplitudes.shape[1:]:
        columns *= extent
    gate_columns = len(circuit.gates) * columns
    rec.add("simulator.apply_circuit.gate_columns", gate_columns)
    # one read and one write of every amplitude per gate
    rec.add(
        "simulator.apply_circuit.bytes_computed",
        gate_columns * (1 << circuit.n_qubits) * BYTES_PER_AMPLITUDE * 2,
    )


def _count_optimize(rec, args, kwargs, result):
    diagnostics = result[1].diagnostics
    rec.add("omp2.optimize.iterations", diagnostics["n_iterations"])
    rec.add("omp2.optimize.evaluations", diagnostics["n_evaluations"])


# (module, function, counter) for plain functions, named <module>.<function>
FUNCTIONS = (
    ("chem", "parse_fcidump", None),
    ("chem", "build_perturbation", None),
    ("lowrank", "factorize", None),
    ("lowrank", "coefficient_vector", None),
    ("lowrank", "one_body_group", None),
    ("circuits", "compile_orbital_rotation", None),
    ("circuits", "double_excitation", None),
    ("simulator", "apply_circuit", _count_apply_circuit),
    ("cli", "main", None),
)


def install(rec: Recorder) -> None:
    """Wrap every traced function and method; omp2sim must be imported."""
    modules = [m for n, m in sys.modules.items() if n == "omp2sim" or n.startswith("omp2sim.")]
    for module_name, fn_name, count in FUNCTIONS:
        original = getattr(sys.modules[f"omp2sim.{module_name}"], fn_name)
        traced = rec.wrap(f"{module_name}.{fn_name}", original, count)
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                setattr(module, attr, traced)

    estimator = sys.modules["omp2sim.omp2"].Estimator
    estimator.__init__ = rec.wrap("omp2.estimator_init", estimator.__init__)
    estimator.mp2_energy = rec.wrap("omp2.mp2_energy", estimator.mp2_energy)
    estimator.optimize = rec.wrap("omp2.optimize", estimator.optimize, _count_optimize)

    refs = sys.modules["omp2sim.oracle"].ReferenceValues
    refs.load = classmethod(rec.wrap("oracle.ReferenceValues.load", refs.load.__func__))


def span_tree(spans) -> dict[tuple[str, ...], list[float]]:
    """Call path -> [calls, inclusive seconds, self seconds]."""
    paths: list[tuple[str, ...]] = []
    covered = [0.0] * len(spans)
    for _, name, start, end, parent in spans:
        paths.append((paths[parent] if parent >= 0 else ()) + (name,))
        if parent >= 0:
            covered[parent] += end - start
    tree: dict[tuple[str, ...], list[float]] = {}
    for k, (_, _, start, end, _) in enumerate(spans):
        node = tree.setdefault(paths[k], [0, 0.0, 0.0])
        node[0] += 1
        node[1] += end - start
        node[2] += end - start - covered[k]
    return tree


def layer_stats(tree) -> dict[str, list[float]]:
    """Function name -> [calls, inclusive seconds, self seconds].

    No traced function calls itself, so summing the tree's paths by their
    last name counts each call once.
    """
    stats: dict[str, list[float]] = {}
    for path, (calls, total, own) in tree.items():
        st = stats.setdefault(path[-1], [0, 0.0, 0.0])
        st[0] += calls
        st[1] += total
        st[2] += own
    return stats
