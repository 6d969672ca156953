"""Per-layer call tracing, installed on wpline from outside the program.

`Tracer.install()` replaces every public module-level function of each
wpline layer module with a wrapper, both in its defining module and in
every other wpline module that bound it with `from ... import`.  Calls
made through the module attribute, through an imported alias or from
inside the defining module (a global lookup) all reach the wrapper.

Each wrapped call is a span.  Spans are not kept one by one: they are
aggregated in memory per function and per caller layer (the layer of the
nearest enclosing span, or "bench" at the top), and `snapshot()` returns
the totals once, at the end.  A layer's self time is the sum over its
spans of the span's duration minus the duration of the wrapped spans
directly inside it, so time spent in another layer is charged there.

A few observers count work where it happens: they read a wrapped call's
arguments or result, never change them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("cli", "widposet", "sheaves", "grading", "tube", "nilpotent", "linalg", "ktheory")

# Public methods traced besides module-level functions.  `covers` is the
# O(N^3) Hasse reduction that DOT emission calls more than once.
METHODS = {"widposet": {"WidPoset": ("covers",)}}


def _sheaf_key(s):
    # value identity of an indecomposable sheaf, cheaper to hash than the
    # frozen dataclass (whose hash walks the whole line description)
    kind = type(s).__name__
    if kind == "LineBundle":
        return (s.line.weights, 0, s.degree.coeffs, s.degree.c_part)
    if kind == "TorsionArc":
        return (s.line.weights, 1, s.point, s.arc.socle, s.arc.length)
    return (s.line.weights, 2, s.point_id, s.length)


class Tracer:
    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}   # (function, caller layer) -> [calls, s]
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []                   # frames: [layer, seconds of child spans]
        self._hom_pairs: set = set()
        self._exc_gens: set = set()

    # -- installation ----------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(f"wpline.{name}") for name in LAYERS}
        observers = self._observers()
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                wrapped[obj] = self._wrap(layer, name, obj, observers.get(f"{layer}.{name}"))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = getattr(cls, meth, None) if cls is not None else None
                    if inspect.isfunction(fn):
                        setattr(cls, meth, self._wrap(layer, meth, fn, None))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
        return self

    def _wrap(self, layer, name, fn, observe):
        key = f"{layer}.{name}"
        stack = self._stack
        spans = self.spans
        self_s = self.self_s
        clock = time.perf_counter
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = stack[-1][0] if stack else "bench"
            frame = [layer, 0.0]
            stack.append(frame)
            depth[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] -= 1
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self_s[layer] += dt - frame[1]
                rec = spans.get((key, caller))
                if rec is None:
                    rec = spans[(key, caller)] = [0, 0.0]
                rec[0] += 1
                if depth[0] == 0:       # inclusive time of the outermost activation only
                    rec[1] += dt
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- observers -------------------------------------------------------

    def _count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def _observers(self):
        def build_poset(args, poset):
            self._count("widposet.nodes", len(poset.nodes))
            self._count("widposet.clipped", len(poset.clipped))
            self._count("widposet.undecidable", len(poset.undecidable))
            self._count("widposet.exc_snapshot.kept",
                        sum(1 for n in poset.nodes if n.exc_gens is not None))

        def exc_snapshot(args, _):
            # one rigid subset is tried per distinct generator tuple
            gens = tuple(_sheaf_key(g) for g in args[0])
            if gens not in self._exc_gens:
                self._exc_gens.add(gens)
                self._count("widposet.exc_snapshot.tried")

        def hom_dim_sheaf(args, _):
            pair = (_sheaf_key(args[0]), _sheaf_key(args[1]))
            if pair not in self._hom_pairs:
                self._hom_pairs.add(pair)
                self._count("sheaves.hom_dim_sheaf.distinct")

        def decompose(args, _):
            self._count("nilpotent.decompose.dim_sum", args[0].total_dim)

        return {"widposet.build_poset": build_poset,
                "widposet.exc_snapshot": exc_snapshot,
                "sheaves.hom_dim_sheaf": hom_dim_sheaf,
                "nilpotent.decompose": decompose}

    # -- output ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals as plain JSON data: spans, per-layer self time, counts."""
        return {"spans": [[fn, caller, calls, s]
                          for (fn, caller), (calls, s) in sorted(self.spans.items())],
                "self_s": dict(self.self_s),
                "counts": dict(self.counts)}


def merge(snapshots) -> dict:
    """Sum the snapshots of several processes into one."""
    spans: dict[tuple[str, str], list] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    counts: dict[str, int] = {}
    for snap in snapshots:
        for fn, caller, calls, s in snap["spans"]:
            rec = spans.setdefault((fn, caller), [0, 0.0])
            rec[0] += calls
            rec[1] += s
        for layer, s in snap["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + s
        for name, k in snap["counts"].items():
            counts[name] = counts.get(name, 0) + k
    return {"spans": [[fn, caller, c, s] for (fn, caller), (c, s) in sorted(spans.items())],
            "self_s": self_s, "counts": counts}
