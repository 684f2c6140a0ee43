"""In-process span tracing of one study run, from outside the library.

``install`` rebinds the names that anisofem's modules look up (module
globals such as ``schemes.lu_factor`` or ``studies.error_components``, and
methods such as ``FemSpace.tables``) to wrappers that record one span per
call: name, start, end, parent span and instance id.  Spans stay in memory
until ``write_spans``.  The library's source is not modified.

A layer's self time is the duration of its spans minus the time covered
by their child spans.  Bookkeeping that has to touch results (the LU fill
count copies L and U out of SuperLU) runs inside a ``trace.hook`` span so
it is charged to no library layer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, attribute, layer).  A dotted attribute names a method.
TARGETS = (
    ("anisofem.solver", "lu_factor", "solver.lu_factor"),
    ("anisofem.solver", "solve", "solver.solve"),
    ("anisofem.solver", "cond1_estimate", "solver.cond1"),
    ("anisofem.fem", "assemble", "fem.assemble"),
    ("anisofem.fem", "assemble_rhs", "fem.assemble_rhs"),
    ("anisofem.fem", "error_components", "fem.error_components"),
    ("anisofem.fem", "FemSpace.tables", "fem.tables"),
    ("anisofem.fields", "eval_A", "fields.eval"),
    ("anisofem.fields", "eval_b", "fields.eval"),
    ("anisofem.fields", "ManufacturedCase.u", "fields.eval"),
    ("anisofem.fields", "ManufacturedCase.grad_u", "fields.eval"),
    ("anisofem.fields", "rhs_functional", "fields.eval"),
    ("anisofem.geometry", "build_quad_mesh", "geometry"),
    ("anisofem.geometry", "build_tri_mesh", "geometry"),
    ("anisofem.geometry", "classify_boundary", "geometry"),
    ("anisofem.schemes", "SchemeOperators.__init__", "schemes.operators"),
    ("anisofem.schemes", "build_system", "schemes.build_system"),
    ("anisofem.schemes", "solve_scheme", "schemes.solve_scheme"),
    ("anisofem.studies", "run_instance", "studies.run_instance"),
    ("anisofem.studies", "emit_csv", "studies.emit_csv"),
    ("anisofem.config", "load_config", "config.load_config"),
)


def _span_name(module: str, attr: str) -> str:
    return f"{module.rpartition('.')[2]}.{attr}"


LAYER_OF = {_span_name(mod, attr): layer for mod, attr, layer in TARGETS}
LAYER_OF["fields.load_flux"] = "fields.eval"     # see _wrap_flux

# Per-layer metrics: (name, unit).  README.md maps each to the end-to-end
# metric and workload it should move.
LAYER_METRICS = (
    ("solver.lu_factor.self_s", "s"), ("solver.lu_factor.calls", "count"),
    ("solver.lu_fill_nnz", "count"), ("solver.cond1.self_s", "s"),
    ("solver.solve.self_s", "s"), ("solver.singular.count", "count"),
    ("fem.assemble.self_s", "s"), ("fem.assemble.calls", "count"),
    ("fem.assemble_rhs.self_s", "s"), ("fem.error_components.self_s", "s"),
    ("fem.tables.self_s", "s"), ("fields.eval.self_s", "s"),
    ("schemes.operators.self_s", "s"), ("schemes.operators.calls", "count"),
    ("schemes.build_system.self_s", "s"), ("schemes.solve_scheme.self_s", "s"),
    ("schemes.unknowns", "count"), ("schemes.matrix_nnz", "count"),
    ("geometry.self_s", "s"), ("studies.run_instance.self_s", "s"),
    ("studies.emit_csv.self_s", "s"), ("config.load_config.self_s", "s"),
)


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, instance]
        self.counts = Counter()
        self._stack = []
        self._instance = -1
        self._instances = 0

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent, self._instance]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, after=None, on_error=None):
        """fn recording a span per call; ``after(result)`` and
        ``on_error(exc)`` run in a ``trace.hook`` span."""
        new_instance = name == "studies.run_instance"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = self._instance
            if new_instance:
                self._instance = self._instances
                self._instances += 1
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._close(span)
                if on_error is not None:
                    self._hook(on_error, exc)
                raise
            else:
                self._close(span)
                if after is not None:
                    self._hook(after, result)
                return result
            finally:
                self._instance = outer
        return traced

    def _hook(self, fn, value):
        span = self._open("trace.hook")
        try:
            fn(value)
        finally:
            self._close(span)

    def self_times(self) -> Counter:
        """Span duration minus child-covered time, summed per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += end - start - covered
        return out

    def layer_metrics(self) -> dict:
        """Every LAYER_METRICS value for the spans recorded so far."""
        selfs = self.self_times()
        calls = Counter(span[0] for span in self.spans)
        by_layer = Counter()
        for name, t in selfs.items():
            by_layer[LAYER_OF.get(name, name)] += t
        out = {}
        for metric, _ in LAYER_METRICS:
            layer, _, kind = metric.rpartition(".")
            if kind == "self_s":
                out[metric] = by_layer[layer]
            elif kind == "calls":
                out[metric] = sum(c for name, c in calls.items()
                                  if LAYER_OF.get(name) == layer)
            else:
                out[metric] = self.counts[metric]
        return out


def _count_lu(tracer, factor):
    lu = factor.lu
    tracer.counts["solver.lu_fill_nnz"] += lu.L.nnz + lu.U.nnz


def _count_singular(tracer, exc):
    if type(exc).__name__ == "SingularMatrixError":
        tracer.counts["solver.singular.count"] += 1


def _count_system(tracer, system):
    tracer.counts["schemes.unknowns"] += system.matrix.shape[0]
    tracer.counts["schemes.matrix_nnz"] += system.matrix.nnz


def _wrap_flux(tracer, functional):
    if functional.flux is not None:
        functional.flux = tracer.wrap(functional.flux, "fields.load_flux")


def install(tracer: Tracer) -> None:
    """Rebind every TARGETS name in the loaded anisofem modules."""
    hooks = {
        "solver.lu_factor": (_count_lu, _count_singular),
        "schemes.build_system": (_count_system, None),
        "fields.rhs_functional": (_wrap_flux, None),
    }
    for mod_name, attr, _ in TARGETS:
        short = _span_name(mod_name, attr)
        after, on_error = hooks.get(short, (None, None))
        after = after and functools.partial(after, tracer)
        on_error = on_error and functools.partial(on_error, tracer)
        owner = sys.modules[mod_name]
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(getattr(cls, meth), short,
                                           after, on_error))
            continue
        original = getattr(owner, attr)
        rebind(original, tracer.wrap(original, short, after, on_error))


def rebind(original, replacement) -> None:
    """Point every anisofem module global bound to original at replacement."""
    modules = [m for name, m in sys.modules.items()
               if name == "anisofem" or name.startswith("anisofem.")]
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def write_spans(tracer: Tracer, path: str) -> None:
    """One JSON object per span: name, start, end, parent, instance."""
    with open(path, "w", newline="\n") as fh:
        for name, start, end, parent, instance in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "instance": instance}) + "\n")
