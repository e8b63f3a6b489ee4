"""Per-layer tracing from outside the program.

``Tracer.install`` wraps public functions and methods of superfn's modules
in spans. A function is rebound in every superfn module that imported it
(``is_zero_mod_j`` lives in cg, actions, spherical and cli); a method is
replaced once on its class. Spans carry name, start, end and parent, are
kept in memory and written out when the pass ends. A layer's self time is
its span's duration minus the time its child spans cover.

``Counter.install`` is the separate counting pass: it counts Scalar
arithmetic and Grassmann products, which are too fine-grained to time
without distorting the self times of the layers above them.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (layer name, module, attribute path). Each becomes <name>.calls and
# <name>.self_s; cg.is_zero_mod_j is split by its mode argument.
SPANS = (
    ("grassmann.point_build", "grassmann", "GroupPoint.from_matrix"),
    ("grassmann.smat_inverse", "grassmann", "SMat.inverse"),
    ("grassmann.evaluate", "grassmann", "GroupPoint.evaluate"),
    ("cg.oracle", "cg", "is_zero_mod_j"),
    ("cg.pair", "cg", "pair"),
    ("cg.delta", "cg", "delta"),
    ("linalg.echelon_insert", "linalg", "SparseEchelon.insert"),
    ("linalg.kernel_dense", "linalg", "kernel_dense"),
    ("tensorinv.invariant_subspace", "tensorinv", "invariant_subspace"),
    ("tensorinv.supercommutant_basis", "tensorinv", "supercommutant_basis"),
    ("ugl.mul", "ugl", "UEl.__mul__"),
    ("superpoly.mul", "superpoly", "Poly.__mul__"),
    ("superpoly.derivation_apply", "superpoly", "DerivationSpec.apply"),
    ("actions.act", "actions", "act"),
    ("actions.is_invariant", "actions", "is_invariant"),
    ("spherical.laplacian_apply", "spherical", "laplacian_apply"),
    ("cli.parse_expr", "cli", "parse_expr"),
    ("cli.build_parser", "cli", "build_parser"),
    ("cli.main", "cli", "main"),
)

# the benchmark's own span around each job: time in no wrapped layer
JOB_SPAN = "job"


def _replace(module_name: str, path: str, make_wrapper):
    """Swap ``module.path`` for make_wrapper(original) everywhere it is
    bound in the superfn package."""
    module = sys.modules[f"superfn.{module_name}"]
    if "." in path:
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(make_wrapper(raw.__func__)))
        else:
            setattr(cls, attr, make_wrapper(raw))
        return
    original = getattr(module, path)
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if name == "superfn" or name.startswith("superfn."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


class Tracer:
    """Spans in flat arrays (name id, start, end, parent index)."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list = []  # [span index, time covered by children]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._bodies: set = set()

    def span(self, name: str, fn, args, kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1][0] if stack else -1)
        self.end.append(0.0)
        frame = [idx, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        self.start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.end[idx] = t1
            dur = t1 - t0
            self.self_s[name] += dur - frame[1]
            self.calls[name] += 1
            if stack:
                stack[-1][1] += dur

    def install(self):
        for name, module, path in SPANS:
            _replace(module, path, self._make(name))

    def _make(self, name: str):
        """A function original -> wrapper that records ``name`` spans."""
        span, counts = self.span, self.counts
        if name == "cg.oracle":
            def make(original):
                def oracle(f, *args, **kwargs):
                    mode = kwargs.get("mode", args[0] if args else "generic")
                    counts["cg.oracle.terms_in"] += len(f.poly.terms)
                    return span(f"cg.oracle_{mode}", original, (f,) + args,
                                kwargs)
                return oracle
        elif name == "grassmann.point_build":
            def make(original):
                def build(dims, mat, *args, **kwargs):
                    key = (dims.m, dims.n, tuple(
                        tuple(sorted(e.terms.items()))
                        for row in mat.rows for e in row))
                    counts["grassmann.point_builds"] += 1
                    if key in self._bodies:
                        counts["grassmann.point_repeats"] += 1
                    self._bodies.add(key)
                    return span(name, original, (dims, mat) + args, kwargs)
                return build
        elif name == "linalg.echelon_insert":
            def make(original):
                def insert(*args, **kwargs):
                    piv = span(name, original, args, kwargs)
                    counts["linalg.echelon_attempts"] += 1
                    if piv is not None:
                        counts["linalg.echelon_useful"] += 1
                    return piv
                return insert
        else:
            def make(original):
                def wrapper(*args, **kwargs):
                    return span(name, original, args, kwargs)
                return wrapper
        return make

    def layer_metrics(self) -> dict:
        out = {}
        names = [name for name, _, _ in SPANS if name != "cg.oracle"]
        names += ["cg.oracle_generic", "cg.oracle_pairing", JOB_SPAN]
        for name in names:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        c = self.counts
        out["cg.oracle.terms_in"] = c["cg.oracle.terms_in"]
        out["grassmann.point_reuse_ratio"] = _ratio(
            c["grassmann.point_repeats"], c["grassmann.point_builds"])
        out["linalg.echelon_useful_ratio"] = _ratio(
            c["linalg.echelon_useful"], c["linalg.echelon_attempts"])
        from superfn import ugl

        out["ugl.normalize_cache.entries"] = len(
            getattr(ugl, "_normalize_cache", ()))
        return out

    def write(self, path: str):
        """All spans as gzipped JSON: names plus [name, start, end, parent]
        rows, times in seconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        rows = [[self.name_id[i], round(self.start[i] - t0, 7),
                 round(self.end[i] - t0, 7), self.parent[i]]
                for i in range(len(self.start))]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": self.names, "fields":
                       ["name", "start_s", "end_s", "parent"], "spans": rows},
                      fh, separators=(",", ":"))


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class Counter:
    """Counts Scalar operations (and how many have only real operands) and
    Grassmann products with the term pairs they visit."""

    SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                  "__mul__", "__rmul__", "__truediv__", "__rtruediv__")

    def __init__(self):
        self.scalar_ops = 0
        self.scalar_real = 0
        self.gel_calls = 0
        self.gel_pairs = 0

    def install(self):
        from superfn.grassmann import GEl
        from superfn.scalar import Scalar

        for op in self.SCALAR_OPS:
            setattr(Scalar, op, self._scalar(Scalar, Scalar.__dict__[op]))
        gel_mul = GEl.__mul__

        def mul(a, b):
            self.gel_calls += 1
            self.gel_pairs += len(a.terms) * len(b.terms)
            return gel_mul(a, b)
        GEl.__mul__ = mul

    def _scalar(self, scalar_cls, original):
        def op(a, *rest):
            self.scalar_ops += 1
            b = rest[0] if rest else None
            if not a.im and (not isinstance(b, scalar_cls) or not b.im):
                self.scalar_real += 1
            return original(a, *rest)
        return op

    def layer_metrics(self) -> dict:
        return {
            "scalar.ops": self.scalar_ops,
            "scalar.real_share": _ratio(self.scalar_real, self.scalar_ops),
            "grassmann.gel_mul.calls": self.gel_calls,
            "grassmann.gel_mul.term_pairs": self.gel_pairs,
        }
