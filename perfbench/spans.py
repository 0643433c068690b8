"""Outside-in tracing of cmfix: spans recorded around calls into each layer.

``Tracer.install()`` replaces every traced public function with a wrapper in
every cmfix namespace that bound it (``wreath`` does ``from .arith import
embed``, ``cli`` does ``from .wreath import character_table``, so patching
the defining module alone would miss those calls), and patches the
``CyclotomicNumber`` and ``Mat`` operators on the class.  No cmfix source is
changed.

Each wrapped call records a span: name, start, end, parent span and run id
(the index of the CLI invocation it belongs to).  Spans stay in memory in
flat arrays and are written out once, by ``Tracer.dump``, after the traced
invocations; ``load`` and ``layer_totals`` read them back and compute each
layer's calls and self time (duration minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

# (layer metric prefix, defining module, attribute; "Class.method" for operators).
# __rmul__ and __radd__ are the same function objects as __mul__ and __add__,
# so patching by identity covers them.
TARGETS = (
    ("arith.mul", "cmfix.arith", "CyclotomicNumber.__mul__"),
    ("arith.div", "cmfix.arith", "CyclotomicNumber.__truediv__"),
    ("arith.div", "cmfix.arith", "CyclotomicNumber.__rtruediv__"),
    ("arith.add", "cmfix.arith", "CyclotomicNumber.__add__"),
    ("arith.construct", "cmfix.arith", "CyclotomicNumber.__init__"),
    ("arith.embed", "cmfix.arith", "embed"),
    ("arith.zeta", "cmfix.arith", "zeta"),
    ("partitions.core", "cmfix.partitions", "core"),
    ("partitions.quotient", "cmfix.partitions", "quotient"),
    ("partitions.from_core_and_quotient", "cmfix.partitions", "from_core_and_quotient"),
    ("partitions.enumerate_multipartitions", "cmfix.partitions", "enumerate_multipartitions"),
    ("affine_weyl.is_plus", "cmfix.affine_weyl", "is_plus"),
    ("parameters.transport", "cmfix.parameters", "transport"),
    ("parameters.smooth_gl1n", "cmfix.parameters", "smooth_gl1n"),
    ("fixed_points.component_catalog", "cmfix.fixed_points", "component_catalog"),
    ("fixed_points.enumerate_E", "cmfix.fixed_points", "enumerate_E"),
    ("wreath.character_value", "cmfix.wreath", "character_value"),
    ("wreath.character_table", "cmfix.wreath", "character_table"),
    ("wreath.char_dimension", "cmfix.wreath", "char_dimension"),
    ("wreath.to_omega", "cmfix.wreath", "to_omega"),
    ("wreath.from_omega", "cmfix.wreath", "from_omega"),
    ("wreath.i_gamma_star", "cmfix.wreath", "i_gamma_star"),
    ("wreath.verify_filtration", "cmfix.wreath", "verify_filtration"),
    ("linalg.mul", "cmfix.linalg", "Mat.__mul__"),
    ("linalg.apply", "cmfix.linalg", "Mat.apply"),
    ("linalg.rank", "cmfix.linalg", "Mat.rank"),
    ("linalg.rref", "cmfix.linalg", "Mat.rref"),
    ("linalg.nullspace", "cmfix.linalg", "Mat.nullspace"),
    ("quiver.moment_map", "cmfix.quiver", "moment_map"),
    ("quiver.in_deformed_fiber", "cmfix.quiver", "in_deformed_fiber"),
    ("quiver.norton_simplicity", "cmfix.quiver", "norton_simplicity"),
    ("cli.main", "cmfix.cli", "main"),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in TARGETS))

# lru caches whose hit ratio is reported, by layer name
CACHED = ("wreath.character_table",)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count"))
        out.append((f"{layer}.self_s", "s"))
        if layer in CACHED:
            out.append((f"{layer}.hit_ratio", "ratio"))
    out += [("quiver.trials", "count"), ("quiver.decided_ratio", "ratio"),
            ("trace_overhead_s", "s")]
    return out


class Tracer:
    """Span recorder for one process.  Not thread-safe; cmfix is single-threaded."""

    def __init__(self):
        self.names = array("i")
        self.parents = array("i")
        self.runs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.run_id = 0
        self.trials = 0
        self.decided = 0
        self._stack = [-1]
        self._caches = {}
        self._undo = []

    def _wrap(self, name: str, fn):
        idx = LAYERS.index(name)
        names, parents, runs = self.names, self.parents, self.runs
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        if name != "quiver.norton_simplicity":
            return traced

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            res = traced(*args, **kwargs)
            tracer.trials += res.trials
            tracer.decided += res.status != "Unknown"
            return res

        return counted

    def install(self) -> None:
        """Wrap every target in every cmfix namespace that binds it."""
        for name, modname, attr in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owners = [getattr(module, cls_name)]
                orig = vars(owners[0])[meth]
            else:
                orig = vars(module)[attr]
                owners = [m for key, m in list(sys.modules.items())
                          if key == "cmfix" or key.startswith("cmfix.")]
            if name in CACHED:
                self._caches[name] = orig
            wrapper = self._wrap(name, orig)
            for owner in owners:
                for key, val in list(vars(owner).items()):
                    if val is orig:
                        setattr(owner, key, wrapper)
                        self._undo.append((owner, key, orig))

    def restore(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the five arrays."""
        header = {
            "layers": list(LAYERS),
            "count": len(self.starts),
            "trials": self.trials,
            "decided": self.decided,
            "caches": {k: list(f.cache_info()[:2]) for k, f in self._caches.items()},
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.names, self.parents, self.runs, self.starts, self.ends):
                arr.tofile(fh)


def load(path: str) -> tuple[dict, dict[str, array]]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for key, code in (("names", "i"), ("parents", "i"), ("runs", "i"),
                          ("starts", "d"), ("ends", "d")):
            arr = array(code)
            arr.fromfile(fh, header["count"])
            cols[key] = arr
    return header, cols


def self_times(parents, starts, ends) -> list[float]:
    """Duration of each span minus the time its child spans cover.

    Spans of one thread nest, so the children of a span are disjoint and
    their coverage is the sum of their durations.
    """
    dur = [e - s for s, e in zip(starts, ends)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(parents):
        if p >= 0:
            covered[p] += dur[i]
    return [d - c for d, c in zip(dur, covered)]


def layer_totals(header: dict, cols: dict) -> dict[str, tuple[int, float]]:
    """(calls, self seconds) per layer; layers never entered read (0, 0.0)."""
    layers = header["layers"]
    calls = [0] * len(layers)
    selfs = [0.0] * len(layers)
    for idx, st in zip(cols["names"], self_times(cols["parents"], cols["starts"], cols["ends"])):
        calls[idx] += 1
        selfs[idx] += st
    return {name: (calls[i], selfs[i]) for i, name in enumerate(layers)}
