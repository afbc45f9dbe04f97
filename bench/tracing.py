"""Span tracing installed from outside the library.

Every public function of each traced module, plus the methods listed in
METHODS, is replaced by a wrapper that records a span (name, start, end,
parent) in flat in-memory arrays.  Several modules bind other modules'
functions at import time (hausdorff binds closure_order, padic binds
closure_dense, autos binds DenseOps and mat_mul, cli keeps its handlers in a
dict), so a wrapper is installed at every binding of the original object,
and installation fails if any reference to an original is left behind.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over the spans named after it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("matrices", "partitions", "hausdorff", "series", "freeprod",
          "autos", "fieldext", "padic", "cli")

# (module, class, method, span name); functions are discovered, methods listed
METHODS = (
    ("matrices", "DenseOps", "__init__", "matrices.dense_init"),
    ("matrices", "DenseOps", "mul", "matrices.dense_mul"),
    ("matrices", "DenseOps", "inv", "matrices.dense_inv"),
    ("matrices", "DenseOps", "encode", "matrices.dense_encode"),
    ("matrices", "DenseOps", "decode", "matrices.dense_decode"),
    ("partitions", "PartitionDiagram", "__init__", "partitions.construct"),
    ("partitions", "Partition", "__init__", "partitions.construct"),
    ("partitions", "PartitionDiagram", "count_upto", "partitions.count_upto"),
    ("partitions", "PartitionDiagram", "heights", "partitions.heights"),
    ("partitions", "PartitionDiagram", "is_partition", "partitions.is_partition"),
    ("partitions", "PartitionDiagram", "materialize", "partitions.materialize"),
    ("partitions", "PartitionDiagram", "max_subpartition", "partitions.max_subpartition"),
    ("partitions", "PartitionDiagram", "orthogonal", "partitions.orthogonal"),
    ("partitions", "PartitionDiagram", "centre", "partitions.centre"),
    ("partitions", "PartitionDiagram", "normal_core", "partitions.normal_core"),
    ("partitions", "PartitionDiagram", "normal_closure", "partitions.normal_closure"),
    ("partitions", "PartitionDiagram", "is_normal", "partitions.is_normal"),
    ("hausdorff", "AlphaTarget", "floor_times", "hausdorff.floor_times"),
    ("hausdorff", "DimSequence", "limit_estimate", "hausdorff.limit_estimate"),
    ("hausdorff", "DimSequence", "to_csv", "hausdorff.to_csv"),
    ("fieldext", "EmbeddingContext", "__init__", "fieldext.context"),
)

# argparse set-up stays inside cli.main's self time, as does the emit step
SKIP_FUNCTIONS = {("cli", "build_parser")}

CLOSURE_SPANS = ("matrices.closure_dense", "matrices.closure_order",
                 "matrices.closure_elements")


class WiringError(RuntimeError):
    """A wrapper could not be installed everywhere the original is bound."""


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._restore = []
        self.closure_elements = 0
        self.closure_cap_hits = 0
        self.closure_bytes = 0
        self.padic_results = 0
        self.padic_verified = 0

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording --

    def wrap(self, name, fn, on_return=None, on_raise=None):
        nid = self._id(name)
        names, parents, starts, ends, stack = (
            self.span_name, self.parent, self.start, self.end, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = perf_counter()
                stack.pop()
                if on_raise is not None:
                    on_raise(exc)
                raise
            ends[idx] = perf_counter()
            stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        wrapper.__bench_original__ = fn
        return wrapper

    def job(self, fn, *args):
        """Run fn(*args) as a root span; returns its result."""
        return self.wrap("bench.job", fn)(*args)

    # -- installation --

    def install(self):
        mods = _unitri_modules()
        originals = []
        for layer in LAYERS:
            mod = sys.modules[f"unitri.{layer}"]
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or (layer, fname) in SKIP_FUNCTIONS):
                    continue
                name = f"{layer}.{_span_suffix(mod, fname)}"
                wrapper = self.wrap(name, fn, *self._hooks(name))
                self._rebind(mods, fn, wrapper)
                originals.append(fn)
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"unitri.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(name, fn))
            self._restore.append((setattr, cls, meth, fn))
            originals.append(fn)
        _assert_unbound(mods, originals)

    def _hooks(self, name):
        if name == "matrices.closure_dense":
            return self._closure_done, self._closure_failed
        if name == "padic.ideal_partition_log_order":
            return self._padic_done, None
        return None, None

    def _closure_done(self, result):
        _, seen = result
        self.closure_elements += len(seen)
        sample = []
        for key in seen:
            sample.append(sys.getsizeof(key))
            if len(sample) == 256:
                break
        per_key = sum(sample) / len(sample)
        self.closure_bytes += sys.getsizeof(seen) + per_key * len(seen)

    def _closure_failed(self, exc):
        partial = getattr(exc, "partial_count", None)
        if partial is not None:
            self.closure_cap_hits += 1
            self.closure_elements += partial

    def _padic_done(self, result):
        self.padic_results += 1
        self.padic_verified += bool(result.verified)

    def _rebind(self, mods, orig, wrapper):
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    self._restore.append((setattr, mod, key, orig))
                elif isinstance(val, dict):
                    for k2, v2 in list(val.items()):
                        if v2 is orig:
                            val[k2] = wrapper
                            self._restore.append((dict.__setitem__, val, k2, orig))

    def uninstall(self):
        for setter, owner, key, orig in reversed(self._restore):
            setter(owner, key, orig)
        self._restore.clear()

    # -- reduction --

    def summary(self):
        """{span name: [calls, self seconds, total seconds]}."""
        n = len(self.span_name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        parent = self.parent
        for i in range(n):
            if parent[i] >= 0:
                own[parent[i]] -= dur[i]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        names = self.names
        for i in range(n):
            row = out[names[self.span_name[i]]]
            row[0] += 1
            row[1] += own[i]
            row[2] += dur[i]
        return dict(out)


def _unitri_modules():
    return [m for k, m in sys.modules.items()
            if m is not None and (k == "unitri" or k.startswith("unitri."))]


def _span_suffix(mod, fname):
    """cli handlers are named after their subcommand."""
    handlers = getattr(mod, "HANDLERS", None) if mod.__name__ == "unitri.cli" else None
    if handlers:
        for sub, fn in handlers.items():
            if fn is getattr(mod, fname):
                return sub
    return fname


def _assert_unbound(mods, originals):
    ids = {id(f) for f in originals}
    functions = []
    for mod in mods:
        for key, val in vars(mod).items():
            if id(val) in ids:
                raise WiringError(f"{mod.__name__}.{key} still bound to the original")
            if isinstance(val, (dict, list, tuple, set, frozenset)):
                items = val.values() if isinstance(val, dict) else val
                if any(id(v) in ids for v in items):
                    raise WiringError(f"{mod.__name__}.{key} holds an unwrapped original")
            if inspect.isfunction(val):
                functions.append(getattr(val, "__bench_original__", val))
            elif inspect.isclass(val) and val.__module__ == mod.__name__:
                functions.extend(getattr(v, "__bench_original__", v)
                                 for v in vars(val).values() if inspect.isfunction(v))
    for fn in functions:
        defaults = (fn.__defaults__ or ()) + tuple((fn.__kwdefaults__ or {}).values())
        if any(id(v) in ids for v in defaults):
            raise WiringError(f"a default argument of {fn.__qualname__} "
                              "holds an unwrapped original")


def layer_self(summary):
    """Self seconds per layer (the prefix of each span name)."""
    out = defaultdict(float)
    for name, (_, own, _) in summary.items():
        out[name.split(".", 1)[0]] += own
    return dict(out)
