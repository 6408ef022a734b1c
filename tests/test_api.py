"""The public names of qgl2 and the names the benchmark in perfbench/
traces must all resolve, so that shrinking the package cannot silently
break the benchmark."""

import importlib
import importlib.util
import pathlib

import qgl2

TRACER = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"


def resolve(module: str, path: str):
    obj = importlib.import_module(f"qgl2.{module}")
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_all_names_resolve():
    for name in qgl2.__all__:
        assert hasattr(qgl2, name), name


def test_benchmark_names_resolve():
    # the benchmark's set-up builds the Clifford basis besides the traced
    # functions
    names = list(traced_names()) + [("clifford", "build_clifford")]
    assert len(names) > 1
    for module, path in names:
        assert callable(resolve(module, path)), f"{module}.{path}"
