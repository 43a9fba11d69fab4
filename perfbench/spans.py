"""Span tracer that wraps idealkit's public functions from the outside.

Each wrapped call records one span: name, start, end, parent span, task id
and one small integer outcome. Spans live in flat arrays while the run goes
on and are summarised (and optionally written out) when it ends. Self time
is a span's duration minus the durations of its direct children; calls are
single-threaded, so children never overlap.

A function is wrapped at every module attribute that binds it, so
`buchberger` is traced whether `groebner` or `idealops` calls it.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

PACKAGE = "idealkit"

# Modules whose public functions and public class methods are wrapped.
# `polycore` and the package `__init__` only re-export; their bindings are
# patched too, but nothing is defined there.
TRACED_MODULES = (
    "fields", "orders", "poly", "groebner", "matrix", "idealops",
    "certify", "corpus", "parse", "cli",
)

# Per-term primitives: monomial arithmetic, field element arithmetic, order
# keys and polynomial accessors run once per term or per comparison, up to
# millions of times per pass. A span for each would measure the tracer, not
# the layer, so their time shows up as self time of the caller.
PRIMITIVES = frozenset({
    "poly.monomial_mul", "poly.monomial_divides", "poly.monomial_div",
    "poly.monomial_lcm", "poly.monomial_gcd", "poly.monomial_deg",
    "poly.Polynomial.__init__", "poly.Polynomial.is_zero",
    "poly.Polynomial.degree", "poly.Polynomial.degree_in",
    "poly.Polynomial.lead_monomial", "poly.Polynomial.lead_coeff",
    "poly.Polynomial.lead_key", "poly.Polynomial.sorted_terms",
    "poly.Polynomial.coeff", "poly.Polynomial.constant_term",
    "poly.Polynomial.term_mul",
    "poly.Ring.const", "poly.Ring.monomial", "poly.Ring.poly",
    "poly.Ring.var", "poly.Ring.index", "poly.Ring.convert",
    "poly.Ring.__init__",
    "orders.Lex.key", "orders.DegRevLex.key", "orders.Block.key",
    "orders.Lex.__init__", "orders.DegRevLex.__init__",
    "orders.Block.__init__",
    "fields.RationalField.coerce", "fields.RationalField.add",
    "fields.RationalField.sub", "fields.RationalField.mul",
    "fields.RationalField.div", "fields.RationalField.neg",
    "fields.RationalField.inv", "fields.RationalField.to_str",
    "fields.PrimeField.coerce", "fields.PrimeField.add",
    "fields.PrimeField.sub", "fields.PrimeField.mul",
    "fields.PrimeField.div", "fields.PrimeField.neg",
    "fields.PrimeField.inv", "fields.PrimeField.to_str",
    "parse.Token.__init__",
})

# Module attributes that are not idealkit functions but mark a code path:
# the thread pool is built only when IDEALKIT_THREADS asks for workers.
EXTRA_BINDINGS = (("matrix.ThreadPoolExecutor", "matrix", "ThreadPoolExecutor"),)


def _nonzero(result):
    return 0 if result.is_zero() else 1


def _length(result):
    return len(result)


# Outcome recorded per span for the functions whose stats need it.
OUTCOMES = {
    "groebner.buchberger": _length,
    "matrix.PolyMatrix.det": _nonzero,
}


def _public_targets():
    """(name, owner, attribute, function) for every traced definition."""
    out = []
    for short in TRACED_MODULES:
        mod = sys.modules[f"{PACKAGE}.{short}"]
        for attr, obj in sorted(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                for mattr, member in sorted(vars(obj).items()):
                    if mattr.startswith("_") and mattr != "__init__":
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        func = member.__func__
                    elif callable(member) and hasattr(member, "__code__"):
                        func = member
                    else:
                        continue
                    out.append((f"{short}.{attr}.{mattr}", obj, mattr, func))
            elif callable(obj) and hasattr(obj, "__code__"):
                out.append((f"{short}.{attr}", mod, attr, obj))
    return [t for t in out if t[0] not in PRIMITIVES]


class Tracer:
    """Install span-recording wrappers, record spans, summarise them.

    `clock` gives span times; the benchmark passes one that leaves out the
    time of its own speed probes, so they never count as idealkit's time.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.span_value = array("q")
        self.span_error = array("b")
        self.stack = [-1]
        self.task = -1
        self._patches: list = []

    # -- installation ---------------------------------------------------------

    def _name(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def _wrap(self, name, fn):
        nid = self._name(name)
        outcome = OUTCOMES.get(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, tasks = self.span_parent, self.span_task
        values, errors = self.span_value, self.span_error
        stack = self.stack
        clock = self.clock
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            tasks.append(tracer.task)
            values.append(0)
            errors.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                errors[idx] = 1
                raise
            ends[idx] = clock()
            stack.pop()
            if outcome is not None:
                values[idx] = outcome(result)
            return result

        return functools.update_wrapper(traced, fn, updated=())

    def install(self):
        """Patch every binding of every traced function; undo with uninstall."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        wrappers = {}
        for name, owner, attr, func in _public_targets():
            wrapped = self._wrap(name, func)
            wrappers[id(func)] = wrapped
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(wrapped)
            elif isinstance(raw, classmethod):
                new = classmethod(wrapped)
            else:
                new = wrapped
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        for name, short, attr in EXTRA_BINDINGS:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            raw = vars(mod)[attr]
            self._patches.append((mod, attr, raw))
            setattr(mod, attr, self._wrap(name, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- summaries ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def summary(self):
        """Per name: calls, errors, self_s and the sum of span outcomes."""
        n = len(self.span_name)
        child = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        stats = {name: {"calls": 0, "errors": 0, "self_s": 0.0, "value_sum": 0}
                 for name in self.names}
        names = self.names
        for i in range(n):
            s = stats[names[self.span_name[i]]]
            dur = ends[i] - starts[i]
            s["calls"] += 1
            s["errors"] += self.span_error[i]
            s["self_s"] += dur - child[i]
            s["value_sum"] += self.span_value[i]
        return stats

    def per_task(self, name: str):
        """{task id: [calls, outcome sum]} for the spans of one function."""
        nid = self.name_id.get(name)
        out: dict = {}
        for i in range(len(self.span_name)):
            if self.span_name[i] == nid:
                row = out.setdefault(self.span_task[i], [0, 0])
                row[0] += 1
                row[1] += self.span_value[i]
        return out

    def cache_hits(self, lookup: str, compute: str):
        """(lookups, hits): `lookup` spans with no direct `compute` child."""
        lid = self.name_id.get(lookup)
        cid = self.name_id.get(compute)
        if lid is None:
            return 0, 0
        computed = set()
        if cid is not None:
            for i in range(len(self.span_name)):
                if self.span_name[i] == cid:
                    computed.add(self.span_parent[i])
        lookups = hits = 0
        for i in range(len(self.span_name)):
            if self.span_name[i] == lid:
                lookups += 1
                if i not in computed:
                    hits += 1
        return lookups, hits

    def write(self, path, record):
        """Write the run record and every span, column by column, gzipped."""
        doc = {
            "record": record,
            "names": self.names,
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "task": self.span_task.tolist(),
            "value": self.span_value.tolist(),
            "error": self.span_error.tolist(),
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)
