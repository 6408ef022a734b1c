"""The public names of qgl2 and the names the benchmark in perfbench/
traces must all resolve, so that shrinking the package cannot silently
break the benchmark."""

import importlib
import importlib.util
import pathlib

import qgl2
from qgl2.matrices import Mat, MatSpace, invertible_element
from qgl2.scalars import Scalar

TRACER = pathlib.Path(__file__).parent.parent / "perfbench" / "tracer.py"


def resolve(module: str, path: str):
    obj = importlib.import_module(f"qgl2.{module}")
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_all_names_resolve():
    for name in qgl2.__all__:
        assert hasattr(qgl2, name), name


def test_benchmark_names_resolve():
    # the benchmark's set-up builds the Clifford basis besides the traced
    # functions
    tracer = load_tracer()
    names = list(tracer.TRACED) + [("clifford", "build_clifford")]
    assert len(names) > 1
    for module, path in names:
        assert callable(resolve(module, path)), f"{module}.{path}"
    # the counters patch these and read the den slot of every result
    assert tracer.SCALAR_OPS
    for name in tracer.SCALAR_OPS:
        assert callable(getattr(Scalar, name, None)), f"Scalar.{name}"
    assert callable(Mat.is_invertible)
    assert "den" in Scalar.__slots__


def test_invertible_element_returns_mat_or_none():
    # the benchmark's hit_ratio counts a hit as a result that is not None
    hit = invertible_element(MatSpace.span([Mat.identity(2)]))
    miss = invertible_element(MatSpace.span([Mat.unit(2, 0, 1)]))
    assert isinstance(hit, Mat)
    assert miss is None
