"""Every name the benchmark reads must exist in the package.

perfbench/tracer.py looks its functions up by name when a traced run
starts, and perfbench/checks.py and perfbench/job.py import theirs when a
run or its output checks start, so a renamed or deleted name fails the
benchmark, not the test suite, unless these tests catch it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import omp2sim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    for module_name, fn_name, _ in _tracer().FUNCTIONS:
        module = importlib.import_module(f"omp2sim.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"
    for owner, method in [
        (omp2sim.omp2.Estimator, "__init__"),
        (omp2sim.omp2.Estimator, "mp2_energy"),
        (omp2sim.omp2.Estimator, "optimize"),
        (omp2sim.oracle.ReferenceValues, "load"),
    ]:
        assert callable(getattr(owner, method, None)), f"{owner.__name__}.{method}"
    assert isinstance(vars(omp2sim.oracle.ReferenceValues)["load"], classmethod)


def _omp2sim_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) of every `from omp2sim... import name` in path, and
    (module, None) of every `import omp2sim...`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "omp2sim":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "omp2sim"]
    return found


def test_benchmark_imports_resolve():
    for script in ("checks.py", "job.py"):
        imports = _omp2sim_imports(PERFBENCH / script)
        assert any(name for _, name in imports), f"no omp2sim import found in {script}"
        for module_name, name in imports:
            module = importlib.import_module(module_name)
            if name is not None:
                assert hasattr(module, name), f"{script}: {module_name}.{name}"
