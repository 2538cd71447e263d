"""Every name the benchmark tracer wraps must exist in the package.

perfbench/tracer.py looks its functions up by name when a traced run
starts, so a renamed or deleted function crashes every traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import omp2sim

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
