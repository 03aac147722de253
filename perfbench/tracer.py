"""Layer tracing for qharmonic, installed from outside the package.

The tracer wraps the public functions and arithmetic methods of the seven
package modules.  Because `identities` and `cli` bind `genfun` and `qseries`
functions with `from ... import`, a wrapper replaces every module-level name,
in every qharmonic module, that is bound to the wrapped object; a method is
replaced under every class attribute that aliases it (`__rmul__ = __mul__`).
`uninstall` puts every original binding back.

Spans (name, start, end, parent span, op id) are kept in flat arrays while the
run lasts and summarised or written out when it ends.
"""
from __future__ import annotations

import gzip
import importlib
import inspect
import time
from array import array

LAYERS = ("exact", "series", "indices", "qseries", "genfun", "identities", "cli")

# Methods wrapped besides the public ones: the arithmetic protocol.
ARITH_DUNDERS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
))

# Public names called so often, for so little work, that a span would cost
# more than the call: predicates, accessors and the equality/hash protocol
# that every lru_cache lookup goes through.  Their time counts as the
# caller's self time.
TOO_SMALL_TO_SPAN = frozenset((
    "exact.TPoly.is_zero", "exact.TPoly.degree", "exact.CycloNumber.as_rational",
    "exact.is_rational", "exact.render_rational", "exact.binomial",
    "exact.euler_phi", "exact.cyclotomic_polynomial", "exact.as_tpoly",
    "series.Series.is_zero", "series.Series.constant_term",
    "series.Series.sorted_terms", "series.SeriesRing.capped_degree",
    "series.SeriesRing.check_exponents",
    "indices.weight", "indices.depth", "indices.height", "indices.heights",
    "qseries.ZPoly.is_zero", "qseries.ZPoly.degree",
))


def layer_modules() -> dict:
    """The seven package modules by layer name, plus the package itself."""
    mods = {layer: importlib.import_module(f"qharmonic.{layer}") for layer in LAYERS}
    mods["qharmonic"] = importlib.import_module("qharmonic")
    return mods


# ---------------------------------------------------------------------------
# lru_cache discovery and census
# ---------------------------------------------------------------------------

def find_caches() -> dict:
    """Every lru_cache in the package, keyed "<layer>.<qualname>", found by
    scanning module and class namespaces rather than from a hand-kept list."""
    found = {}
    seen = set()
    for layer in LAYERS:
        mod = importlib.import_module(f"qharmonic.{layer}")
        spaces = [vars(mod)] + [vars(c) for c in vars(mod).values()
                                if inspect.isclass(c) and c.__module__ == mod.__name__]
        for space in spaces:
            for obj in space.values():
                if (callable(obj) and hasattr(obj, "cache_info") and hasattr(obj, "cache_clear")
                        and getattr(obj, "__module__", None) == mod.__name__
                        and id(obj) not in seen):
                    seen.add(id(obj))
                    found[f"{layer}.{obj.__qualname__}"] = obj
    return dict(sorted(found.items()))


def unbounded(caches: dict) -> list[str]:
    return [name for name, fn in caches.items() if fn.cache_info().maxsize is None]


class CacheCensus:
    """Accumulates cache_info() across cache clears: hits and misses are
    summed, currsize keeps its peak.  Starts by emptying every cache, so it
    counts only what happens after it was made."""

    def __init__(self, caches: dict):
        self.caches = caches
        for fn in caches.values():
            fn.cache_clear()
        self.hits = dict.fromkeys(caches, 0)
        self.misses = dict.fromkeys(caches, 0)
        self.peak = dict.fromkeys(caches, 0)

    def _fold(self):
        for name, fn in self.caches.items():
            info = fn.cache_info()
            self.hits[name] += info.hits
            self.misses[name] += info.misses
            self.peak[name] = max(self.peak[name], info.currsize)

    def clear_all(self):
        """Fold the current statistics in, clear every cache and check that
        each one really is empty."""
        self._fold()
        for fn in self.caches.values():
            fn.cache_clear()
        left = {n: fn.cache_info().currsize for n, fn in self.caches.items()
                if fn.cache_info().currsize}
        if left:
            raise RuntimeError(f"caches not empty after cache_clear: {left}")

    def snapshot(self) -> dict:
        """Totals including what the caches hold right now (not cleared)."""
        out = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            out[name] = {
                "hits": self.hits[name] + info.hits,
                "misses": self.misses[name] + info.misses,
                "currsize": max(self.peak[name], info.currsize),
                "maxsize": info.maxsize,
            }
        return out


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

class Tracer:
    """Records one span per wrapped call into flat arrays.

    `excluded` is time spent on the tracer's own bookkeeping inside a span
    (the pair counting of series.mul); every timestamp subtracts it, so the
    bookkeeping lands in no span."""

    def __init__(self):
        self.labels: list[str] = []
        self.label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.op_id = 0
        self.excluded = 0.0
        self.counters: dict[str, int] = {}
        self.tags: dict[int, str] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _label_id(self, label: str) -> int:
        nid = self.label_ids.get(label)
        if nid is None:
            nid = self.label_ids[label] = len(self.labels)
            self.labels.append(label)
        return nid

    def wrap(self, fn, label: str, after=None):
        """A wrapper recording a span named `label` around `fn`.  `after`
        (span index, args, result) runs once the span has closed and its
        time is excluded from every enclosing span."""
        nid = self._label_id(label)
        name_a, parent_a, op_a, t0_a, t1_a = self.name, self.parent, self.op, self.t0, self.t1
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(t0_a)
            name_a.append(nid)
            parent_a.append(stack[-1])
            op_a.append(tracer.op_id)
            t1_a.append(0.0)
            stack.append(idx)
            t0_a.append(clock() - tracer.excluded)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1_a[idx] = clock() - tracer.excluded
                stack.pop()
            if after is not None:
                start = clock()
                after(idx, args, result)
                tracer.excluded += clock() - start
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", label)
        wrapper.__qualname__ = getattr(fn, "__qualname__", label)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def count(self, key: str, amount: int):
        self.counters[key] = self.counters.get(key, 0) + amount

    def install(self):
        """Wrap every traced target and rebind all of its aliases."""
        mods = layer_modules()
        hooks = {
            "series.Series.__mul__": self._after_series_mul,
            "indices.enumerate_patterns": self._after_patterns,
            "identities.check_identity": self._after_check_identity,
        }
        wrappers: dict[int, object] = {}
        for layer, owner, attr, obj in traced_targets(mods):
            if id(obj) not in wrappers:
                label = f"{layer}.{obj.__qualname__}"
                wrappers[id(obj)] = self.wrap(obj, label, hooks.get(label))
            self._rebind(owner, attr, wrappers[id(obj)])
        # module-level aliases of wrapped functions anywhere in the package
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and getattr(mod, attr) is obj:
                    self._rebind(mod, attr, w)
        return self

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- hooks --------------------------------------------------------------

    def _after_series_mul(self, idx, args, result):
        a, b = args[0], args[1]
        if type(b).__name__ != "Series":
            return
        ring = a.ring
        kept = 0
        for e1 in a.terms:
            for e2 in b.terms:
                if ring.check_exponents(tuple(x + y for x, y in zip(e1, e2))):
                    kept += 1
        self.count("series.mul.term_pairs", len(a.terms) * len(b.terms))
        self.count("series.mul.kept_pairs", kept)

    def _after_patterns(self, idx, args, result):
        self.count("indices.patterns_out", len(result))

    def _after_check_identity(self, idx, args, result):
        self.tags[idx] = args[0] if args else ""

    # -- summaries ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.t0)

    def summarize(self, busy_prefixes=("genfun.", "identities.")) -> dict:
        """Per label: calls, total self time, and, for labels under
        `busy_prefixes`, busy time (time inside calls that are not nested in
        a call of the same label)."""
        n = len(self.t0)
        t0, t1, parent, name = self.t0, self.t1, self.parent, self.name
        dur = [t1[i] - t0[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += dur[i]
        per = {label: {"calls": 0, "self_s": 0.0, "busy_s": 0.0} for label in self.labels}
        for i in range(n):
            rec = per[self.labels[name[i]]]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - covered[i]
        busy_ids = {nid for nid, label in enumerate(self.labels)
                    if label.startswith(busy_prefixes)}
        by_tag: dict[str, float] = {}
        for i in range(n):
            nid = name[i]
            if nid not in busy_ids:
                continue
            p = parent[i]
            while p >= 0 and name[p] != nid:
                p = parent[p]
            if p < 0:
                per[self.labels[nid]]["busy_s"] += dur[i]
                tag = self.tags.get(i)
                if tag is not None:
                    by_tag[tag] = by_tag.get(tag, 0.0) + dur[i]
        return {"labels": per, "tags": by_tag, "counters": dict(self.counters)}

    def write(self, path) -> None:
        """All spans as tab-separated lines: span, label, parent, op, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tlabel\tparent\top\tstart_s\tend_s\n")
            for i in range(len(self.t0)):
                fh.write(f"{i}\t{self.labels[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.op[i]}\t{self.t0[i]:.9f}\t{self.t1[i]:.9f}\n")


def traced_targets(mods: dict):
    """(layer, owner, attribute, object) for every traced function: public
    functions defined in a layer module and the public or arithmetic methods
    of its classes.  Generators are skipped, since a span would close before
    they do any work."""
    for layer in LAYERS:
        mod = mods[layer]
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for mattr, meth in list(vars(obj).items()):
                    if not inspect.isfunction(meth):
                        continue
                    if mattr.startswith("_") and mattr not in ARITH_DUNDERS:
                        continue
                    if f"{layer}.{meth.__qualname__}" in TOO_SMALL_TO_SPAN:
                        continue
                    yield layer, obj, mattr, meth
            elif callable(obj) and not attr.startswith("_"):
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue
                if f"{layer}.{obj.__qualname__}" in TOO_SMALL_TO_SPAN:
                    continue
                yield layer, mod, attr, obj
