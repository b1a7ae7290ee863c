"""Outside-in tracing of the blockeq layers.

`install` replaces every public function of every blockeq module with a
wrapper that records one span per call, in every module namespace that
bound the same function object, so calls from one module into another
are caught without changing any file under `src/`.  Spans stay in memory
(parallel arrays indexed by span id) and are written out once the run
ends; `layer_stats` derives self and inclusive times from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
from array import array
from time import perf_counter

# Methods are left alone except the one the layer table names; wrapping
# accessors such as BlockGraph.neighbors would cost more than the work.
TRACED_METHODS = (("graph", "BlockGraph", "induced_subgraph"),)


class Tracer:
    """Span store: span ids are allocated at entry, times filled at exit."""

    def __init__(self):
        self.names = []
        self._name_ix = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.outermost = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self._stack = []
        self._depth = []

    def intern(self, name):
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._name_ix[name]

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn):
        ix = self.intern(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, ix, fn)
        on_result = _RESULT_HOOKS.get(name)
        on_call = _CALL_HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                args, kwargs = on_call(self, args, kwargs)
            sid = self._enter(ix)
            t0 = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self._exit(sid, ix, t0, perf_counter())
                if on_result is not None:
                    on_result(self, name, ok, result if ok else None, kwargs)

        return traced

    def _wrap_generator(self, name, ix, fn):
        # one span per resumption; the consumer's span is the parent
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.count(f"{name}.calls")
            gen = fn(*args, **kwargs)
            while True:
                sid = self._enter(ix)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(sid, ix, t0, perf_counter())
                self.count(f"{name}.yields")
                yield item

        return traced

    def _enter(self, ix):
        sid = len(self.name_of)
        self.name_of.append(ix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(1 if self._depth[ix] == 0 else 0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._depth[ix] += 1
        self._stack.append(sid)
        return sid

    def _exit(self, sid, ix, t0, t1):
        self._stack.pop()
        self._depth[ix] -= 1
        self.start[sid] = t0
        self.end[sid] = t1

    def write_tsv(self, path):
        """One line per span: id, parent id, layer name, start and end (s)."""
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            names, origin = self.names, (self.start[0] if self.start else 0.0)
            for sid in range(len(self.name_of)):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{names[self.name_of[sid]]}\t"
                    f"{self.start[sid] - origin:.9f}\t{self.end[sid] - origin:.9f}\n"
                )


def layer_stats(tracer):
    """Per layer: span count, self time, inclusive time of its outermost
    spans, and inclusive time of its spans called directly from a root span.

    Self time is a span's duration minus the time its child spans cover.
    Children always have larger ids than their parent, so walking ids
    downwards finishes every child before its parent is read.
    """
    n = len(tracer.name_of)
    cover = array("d", bytes(8 * n))
    k = len(tracer.names)
    calls, self_s, incl_s, top_s = [0] * k, [0.0] * k, [0.0] * k, [0.0] * k
    for sid in range(n - 1, -1, -1):
        ix = tracer.name_of[sid]
        dur = tracer.end[sid] - tracer.start[sid]
        calls[ix] += 1
        self_s[ix] += dur - cover[sid]
        if tracer.outermost[sid]:
            incl_s[ix] += dur
        p = tracer.parent[sid]
        if p >= 0:
            cover[p] += dur
            if tracer.parent[p] < 0:
                top_s[ix] += dur
    roots = [sid for sid in range(n) if tracer.parent[sid] < 0]
    return {
        "layers": {
            name: {"calls": calls[i], "self_s": self_s[i], "incl_s": incl_s[i],
                   "top_s": top_s[i]}
            for i, name in enumerate(tracer.names)
        },
        "root_s": sum(tracer.end[s] - tracer.start[s] for s in roots),
        "spans": n,
    }


def child_calls(tracer, child, parent):
    """Spans named `child` whose parent span is named `parent`."""
    ci, pi = tracer._name_ix.get(child), tracer._name_ix.get(parent)
    if ci is None or pi is None:
        return 0
    names, parents = tracer.name_of, tracer.parent
    return sum(
        1 for sid in range(len(names))
        if names[sid] == ci and parents[sid] >= 0 and names[parents[sid]] == pi
    )


# -- outcome hooks: what a wrapper can see from outside the call ----------


def _outcome(tracer, name, ok, result, kwargs):
    # accepted / attempted for guarded operations, found / attempted for searches
    tracer.count(f"{name}.attempted")
    if ok and (name != "characterization.find_decomposition" or result is not None):
        tracer.count(f"{name}.succeeded")


def _inject_stats(tracer, args, kwargs):
    # color_nplus2 reports committed moves through its public stats= argument
    if kwargs.get("stats") is None and len(args) < 2:
        kwargs = dict(kwargs, stats={})
    return args, kwargs


def _collect_moves(tracer, name, ok, result, kwargs):
    if ok:
        tracer.count(f"{name}.moves", kwargs["stats"].get("moves", 0))


_RESULT_HOOKS = {
    "characterization.apply_operation": _outcome,
    "characterization.find_decomposition": _outcome,
    "gls.color_nplus2": _collect_moves,
}
_CALL_HOOKS = {"gls.color_nplus2": _inject_stats}


def install(tracer, package):
    """Wrap every public function of every module of `package`.

    Returns a callable that restores the original functions.
    """
    modules = [package] + [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    wrapped = {}
    for mod in modules[1:]:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == mod.__name__:
                wrapped[id(obj)] = (obj, tracer.wrap(f"{short}.{name}", obj))
    undo = []
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
                undo.append((mod, name, obj))
    for short, cls_name, meth in TRACED_METHODS:
        cls = getattr(importlib.import_module(f"{package.__name__}.{short}"), cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, tracer.wrap(f"{short}.{meth}", original))
        undo.append((cls, meth, original))

    def uninstall():
        for owner, name, obj in undo:
            setattr(owner, name, obj)

    return uninstall
