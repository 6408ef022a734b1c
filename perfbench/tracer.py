"""Per-layer tracing of qgl2 from outside the package.

Tracer.install() replaces the public functions listed in TRACED with
wrappers that record a span (name, start, end, parent) per call, and adds
counters on elimination, the invertible-element search and Scalar
arithmetic.  Modules import their callees by name (report and cli do), so
every qgl2 namespace that holds the original function gets the wrapper.
uninstall() puts every original back.

Self time of a span is its duration minus the durations of its direct
children; a function's self time is the sum over its spans.
"""

import sys
import time
from collections import defaultdict

# (module, attribute path) of every traced function
TRACED = (
    ("cli", "main"),
    ("report", "build_report"),
    ("catalog", "instantiate"),
    ("catalog", "closure_generators"),
    ("gl2", "verify_relations"),
    ("gl2", "invertibility_nilpotency_check"),
    ("gl2", "power_commutator_check"),
    ("gl2", "quantum_plane_split"),
    ("gl2", "gl2_equivalent"),
    ("clifford", "build_clifford"),
    ("clifford", "build_action"),
    ("clifford", "unitality_ok"),
    ("clifford", "module_algebra_shadow"),
    ("clifford", "counit_invariance_space"),
    ("spinors", "q_commutant"),
    ("spinors", "admissibility"),
    ("spinors", "spinor_equivalent"),
    ("matrices", "subalgebra_closure"),
    ("matrices", "centralizer"),
    ("matrices", "stacked_nullspace"),
    ("matrices", "rref"),
    ("matrices", "invertible_element"),
    ("matrices", "Mat.inverse"),
)

# functions whose time is split by entry type: Scalar entries are the
# exact phase, GaussRational entries the numeric crosscheck
SPLIT = {"matrices.subalgebra_closure", "matrices.centralizer"}

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__", "__rtruediv__", "inverse")

COUNTS = ("matrices.rref.pivots", "matrices.rref.cells",
          "matrices.invertible_element.candidates",
          "matrices.invertible_element.hits", "scalars.ops",
          "scalars.nonmonomial_den")


def metric_names() -> list:
    """Names of the per-layer metrics that Tracer.metrics() returns."""
    names = []
    for module, attr in TRACED:
        full = f"{module}.{attr}"
        names.append(f"{full}.calls")
        if full in SPLIT:
            names += [f"{full}.exact_s", f"{full}.numeric_s"]
        else:
            names.append(f"{full}.self_s")
    return names + [
        "matrices.rref.pivots", "matrices.rref.cells",
        "matrices.invertible_element.candidates",
        "matrices.invertible_element.hit_ratio",
        "scalars.ops", "scalars.nonmonomial_den_ratio",
    ]


def _resolve(obj, path: str):
    owner = obj
    *heads, last = path.split(".")
    for head in heads:
        owner = getattr(owner, head)
    return owner, last


def _qgl2_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qgl2" or name.startswith("qgl2."))]


class Tracer:
    """Span and counter recorder for one traced phase."""

    def __init__(self):
        self.spans = []                 # (span id, name, start, end, parent)
        self.counts = defaultdict(int)
        self._stack = []                # [(span id, name)]
        self._next_id = 0
        self._in_scalar_op = False
        self._patches = []              # (owner, attribute, original)

    # -- spans ----------------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def _wrap(self, full: str, fn):
        tracer = self
        if full == "matrices.rref":
            def wrapper(rows):
                cells = len(rows) * len(rows[0]) if rows else 0
                out = tracer._span(full, fn, (rows,), {})
                tracer.counts["matrices.rref.cells"] += cells
                tracer.counts["matrices.rref.pivots"] += len(out[1])
                return out
        elif full == "matrices.invertible_element":
            def wrapper(*args, **kwargs):
                out = tracer._span(full, fn, args, kwargs)
                if out is not None:
                    tracer.counts["matrices.invertible_element.hits"] += 1
                return out
        elif full == "matrices.subalgebra_closure":
            def wrapper(generators):
                gens = list(generators)
                kind = _entry_kind(gens[0].rows[0][0]) if gens else "exact"
                return tracer._span(f"{full}.{kind}", fn, (gens,), {})
        elif full == "matrices.centralizer":
            def wrapper(s):
                if isinstance(s, list):
                    first = s[0].rows[0][0] if s else None
                else:
                    first = s._vectors[0][0] if s.dim else None
                kind = _entry_kind(first)
                return tracer._span(f"{full}.{kind}", fn, (s,), {})
        else:
            def wrapper(*args, **kwargs):
                return tracer._span(full, fn, args, kwargs)
        return wrapper

    # -- counters -------------------------------------------------------------

    def _count_candidates(self, fn):
        tracer = self

        def is_invertible(m):
            if tracer._stack and \
                    tracer._stack[-1][1] == "matrices.invertible_element":
                tracer.counts["matrices.invertible_element.candidates"] += 1
            return fn(m)
        return is_invertible

    def _count_scalar_op(self, fn, scalar_cls):
        tracer = self

        def op(*args):
            # count the outermost operation only: subtraction and division
            # are built from addition, multiplication and inverse
            if tracer._in_scalar_op:
                return fn(*args)
            tracer._in_scalar_op = True
            try:
                out = fn(*args)
            finally:
                tracer._in_scalar_op = False
            tracer.counts["scalars.ops"] += 1
            if isinstance(out, scalar_cls) and \
                    sum(1 for c in out.den if c) > 1:
                tracer.counts["scalars.nonmonomial_den"] += 1
            return out
        return op

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        import qgl2  # noqa: F401  (imports every submodule)
        from qgl2.matrices import Mat
        from qgl2.scalars import Scalar
        modules = _qgl2_modules()
        for module, attr in TRACED:
            owner, last = _resolve(sys.modules[f"qgl2.{module}"], attr)
            original = getattr(owner, last)
            wrapper = self._wrap(f"{module}.{attr}", original)
            if "." in attr:
                self._patch(owner, last, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
        self._patch(Mat, "is_invertible",
                    self._count_candidates(Mat.is_invertible))
        for name in SCALAR_OPS:
            self._patch(Scalar, name,
                        self._count_scalar_op(getattr(Scalar, name), Scalar))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def self_times(self) -> tuple:
        """(calls per name, self seconds per name) from the recorded spans."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child[sid]
        return calls, self_s

    def metrics(self) -> dict:
        """Every name of metric_names() with its value; unit is "count",
        "s" or "ratio" by suffix."""
        calls, self_s = self.self_times()
        out = {}
        for module, attr in TRACED:
            full = f"{module}.{attr}"
            if full in SPLIT:
                exact, numeric = f"{full}.exact", f"{full}.numeric"
                out[f"{full}.calls"] = calls[exact] + calls[numeric]
                out[f"{full}.exact_s"] = self_s[exact]
                out[f"{full}.numeric_s"] = self_s[numeric]
            else:
                out[f"{full}.calls"] = calls[full]
                out[f"{full}.self_s"] = self_s[full]
        c = self.counts
        cand = c["matrices.invertible_element.candidates"]
        ops = c["scalars.ops"]
        out["matrices.rref.pivots"] = c["matrices.rref.pivots"]
        out["matrices.rref.cells"] = c["matrices.rref.cells"]
        out["matrices.invertible_element.candidates"] = cand
        out["matrices.invertible_element.hit_ratio"] = \
            c["matrices.invertible_element.hits"] / cand if cand else 0.0
        out["scalars.ops"] = ops
        out["scalars.nonmonomial_den_ratio"] = \
            c["scalars.nonmonomial_den"] / ops if ops else 0.0
        return out


def _entry_kind(x) -> str:
    from qgl2.scalars import Scalar
    return "numeric" if x is not None and not isinstance(x, Scalar) \
        else "exact"
