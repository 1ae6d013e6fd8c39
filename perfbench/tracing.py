"""Per-layer spans and counts, recorded from outside the library.

`Tracer.install()` wraps the public functions of every gridpersist layer, and
two methods that carry whole stages, at every place they are bound: modules
import them by name (`from .decomp import decompose`), so each module
namespace that holds the original function gets the wrapper.  Nothing in the
library changes; `uninstall()` puts the originals back.

Each wrapper records one span (name, start, end, parent span) in compact
arrays kept in memory, plus the counts that say how much work the call was
handed.  `summary()` turns the spans into calls, inclusive and self time per
function and per layer.  Recording is off while `Tracer.on` is false.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("field", "core", "kan", "interleave", "decomp", "construct",
          "match", "io", "cli")

# methods that carry a whole pipeline stage; other methods (dim, step,
# floor_index, ...) are too fine-grained to wrap and run inside their
# caller's span
METHODS = {
    ("core", "GridModule", "validate"): "core.validate",
    ("interleave", "InterleavingCertificate", "verify"): "interleave.verify",
}


def span_name(layer: str, attr: str) -> str:
    """`cli.cmd_approx_indec` is named by its subcommand, `cli.approx-indec`."""
    if layer == "cli" and attr.startswith("cmd_"):
        attr = attr[4:].replace("_", "-")
    return f"{layer}.{attr}"


def grid_vertices(grid) -> int:
    return math.prod(grid.shape)


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _mmul_ops(args, kwargs, out):
    a, b = _arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b")
    return {"ops": a.shape[0] * a.shape[1] * b.shape[1]}


def _rref_ops(args, kwargs, out):
    r, c = _arg(args, kwargs, 0, "a").shape
    return {"ops": r * c * min(r, c)}


def _hom_unknowns(args, kwargs, out):
    M, N = _arg(args, kwargs, 0, "M"), _arg(args, kwargs, 1, "N")
    return {"unknowns": int((M.dims * N.dims).sum())}


# counts computed from argument and result shapes, never from inside the call
COUNTERS = {
    "field.mmul": _mmul_ops,
    "field.rref": _rref_ops,
    "core.hom_space": _hom_unknowns,
    "kan.restriction_extension":
        lambda a, kw, out: {"out_vertices": grid_vertices(out.grid)},
    "interleave.verify":
        lambda a, kw, out: {"grid_vertices": grid_vertices(a[0].grid)},
    "decomp.end_algebra":
        lambda a, kw, out: {"dim": out.dim,
                            "input_total_dim": out.module.total_dim()},
    "decomp.decompose": lambda a, kw, out: {"summands": len(out[0])},
    "construct.tack":
        lambda a, kw, out: {"out_grid_vertices": grid_vertices(out[0].grid),
                            "out_total_dim": out[0].total_dim()},
    "io.load":
        lambda a, kw, out: {"bytes": os.path.getsize(_arg(a, kw, 0, "path"))},
    "io.loads": lambda a, kw, out: {"bytes": len(_arg(a, kw, 0, "s"))},
    "io.dumps": lambda a, kw, out: {"bytes": len(out)},
}


class Tracer:
    """Spans and counts of one process; one phase at a time (see `reset`)."""

    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self._patches: list = []
        self.reset()

    def reset(self):
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: defaultdict[str, int] = defaultdict(int)

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        layer = name.split(".", 1)[0]
        counter = COUNTERS.get(name)
        counts_certs = layer == "interleave"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            i = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer.stack[-1])
            tracer.span_end.append(0.0)
            tracer.stack.append(i)
            tracer.span_start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.span_end[i] = perf_counter()
                tracer.stack.pop()
                tracer.counts[layer + ".errors"] += 1
                raise
            tracer.span_end[i] = perf_counter()
            tracer.stack.pop()
            if counter is not None:
                for key, val in counter(args, kwargs, out).items():
                    tracer.counts[f"{name}.{key}"] += val
            if counts_certs:
                tracer.counts["interleave.cert_grid_vertices"] += \
                    _cert_vertices(out, tracer.cert_cls)
            return out

        return traced

    def install(self):
        self.cert_cls = importlib.import_module(
            "gridpersist.interleave").InterleavingCertificate
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("gridpersist." + layer)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(obj, span_name(layer, attr))
        for modname, mod in list(sys.modules.items()):
            if modname != "gridpersist" and not modname.startswith("gridpersist."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for (layer, cls_name, meth), name in METHODS.items():
            cls = getattr(importlib.import_module("gridpersist." + layer),
                          cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, name))

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict:
        """Calls, inclusive and self seconds per function and per layer.

        Inclusive time leaves out spans nested in a span of the same name
        (or, per layer, of the same layer), so recursion is not counted
        twice.  Self time is a span's duration minus its direct children's.
        Spans are stored in start order, so one pass rebuilds the stack.
        """
        n = len(self.span_start)
        start, end = self.span_start, self.span_end
        dur = array("d", (end[i] - start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        calls, incl = Counter(), defaultdict(float)
        layer_incl, layer_self = defaultdict(float), defaultdict(float)
        stack, on_stack, layer_on_stack = [], Counter(), Counter()
        for i in range(n):
            p = self.span_parent[i]
            while stack and stack[-1] != p:
                j = self.span_name[stack.pop()]
                on_stack[j] -= 1
                layer_on_stack[layer_of[j]] -= 1
            nid = self.span_name[i]
            layer = layer_of[nid]
            calls[nid] += 1
            if on_stack[nid] == 0:
                incl[nid] += dur[i]
            if layer_on_stack[layer] == 0:
                layer_incl[layer] += dur[i]
            layer_self[layer] += dur[i] - child[i]
            stack.append(i)
            on_stack[nid] += 1
            layer_on_stack[layer] += 1
        out = {"spans": n, "functions": {}, "layers": {}}
        for nid, c in calls.items():
            out["functions"][self.names[nid]] = {"calls": c, "s": incl[nid]}
        for layer in LAYERS:
            out["layers"][layer] = {"s": layer_incl[layer],
                                    "self_s": layer_self[layer],
                                    "errors": self.counts[layer + ".errors"]}
        out["counts"] = dict(self.counts)
        return out


def _cert_vertices(out, cert_cls) -> int:
    items = out if isinstance(out, tuple) else (out,)
    return sum(grid_vertices(c.grid) for c in items if isinstance(c, cert_cls))
