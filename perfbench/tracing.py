"""Span tracing of mhscalc's layers, applied from outside the package.

The tracer swaps public functions and methods for timing wrappers while it
is installed and puts the originals back when it is removed, so untraced ops
in the same process run the program's own code.  A module-level function is
replaced in *every* mhscalc namespace that bound it by name (`nestedsums`
imports `gen_binomial`, `multinomial`, `iterated_delta` and `nabla`; `egf`
imports `iterated_delta`; `cli` imports `c_direct`); a call through a
namespace left unpatched would bypass the wrapper.

Two kinds of wrapper:

* a *span* records (name, start, end, parent span, op) in memory, plus a work
  count for the layers that have one;
* a *leaf* tally counts and times the hot kernel coefficients `gen_binomial`
  and `multinomial` without a span each (hundreds of thousands of calls per
  round) and charges their time to the enclosing span, so that span's self
  time excludes it.

Self time of a span is its duration minus its child spans and leaf time.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from time import perf_counter

from mhscalc import cli, egf, kernel, mhs, multiseq, nestedsums, report


def _summands(args, result):
    return nestedsums.direct_summand_count(args[0], args[1])


def _delta_terms(args, result):
    return math.prod(k + 1 for k in args[1])


def _memo_entries(args, result):
    return args[0].memo_entries


def _chains(args, result):
    depth = args[0].depth
    return math.comb(args[1] + depth - 1, depth - 1)


def _comparisons(args, result):
    return len(args[0].comparisons)


# (layer name, owner object, attribute, work count or None) per span.
TARGETS = [
    ("cli.main", cli, "main", None),
    ("nestedsums.c_direct", nestedsums, "c_direct", _summands),
    ("nestedsums.recurrence", nestedsums.RecurrenceEvaluator, "value", _memo_entries),
    ("multiseq.iterated_delta", multiseq, "iterated_delta", _delta_terms),
    ("mhs.mhs_value", mhs, "mhs_value", _chains),
    ("egf.mul", egf.TruncatedSeries, "__mul__", None),
    ("egf.subst_linear", egf, "subst_linear", None),
    ("egf.from_sequence", egf, "from_sequence", None),
    ("egf.F_from_sequence", egf, "F_from_sequence", None),
    ("egf.nabla_series", egf, "nabla_series", None),
    ("egf.xi_apply", egf, "xi_apply", None),
    ("report.render", report.VerificationReport, "to_text", _comparisons),
    ("report.render", report.VerificationReport, "to_json", _comparisons),
    ("report.render", report.VerificationReport, "to_csv", _comparisons),
]


LEAVES = (("kernel.gen_binomial", "gen_binomial"), ("kernel.multinomial", "multinomial"))


def _bindings(owner, attr):
    """Every (namespace, attr) that holds the same object as owner.attr."""
    original = getattr(owner, attr)
    if isinstance(owner, type):
        return original, [(owner, attr)]
    found = []
    for module_name, module in sorted(sys.modules.items()):
        if module is None or not (module_name == "mhscalc" or module_name.startswith("mhscalc.")):
            continue
        for name, value in vars(module).items():
            if value is original:
                found.append((module, name))
    return original, found


class Tracer:
    """Spans and leaf tallies for the traced ops of one run.

    Only ops traced with `installed(count=True)` add to the calls and work
    counts, so counts cover a fixed set of ops however long the run is.
    """

    def __init__(self):
        # [name, start, end, parent index, op, leaf seconds, work]; work is
        # None outside counted ops and 0 for layers without a work count.
        self.spans: list[list] = []
        self.leaf_calls: dict[str, int] = {}
        self.leaf_seconds: dict[str, float] = {}
        self.gen_binomial_args: set = set()
        self._op = -1
        self._count = False
        self._stack: list[int] = []
        self._patches = []  # (namespace, attr, original, wrapper)
        self.namespaces: dict[str, list[str]] = {}
        for name, owner, attr, work in TARGETS:
            self._patch(name, owner, attr, self._span(name, getattr(owner, attr), work))
        for name, attr in LEAVES:
            self.leaf_calls[name] = 0
            self.leaf_seconds[name] = 0.0
            self._patch(name, kernel, attr, self._leaf(name, getattr(kernel, attr)))

    def _patch(self, name, owner, attr, wrapper):
        original, bindings = _bindings(owner, attr)
        for namespace, bound in bindings:
            self._patches.append((namespace, bound, original, wrapper))
            where = (f"{namespace.__module__}.{namespace.__qualname__}"
                     if isinstance(namespace, type) else namespace.__name__)
            self.namespaces.setdefault(name, []).append(f"{where}.{bound}")

    def _span(self, name, fn, work):
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, tracer._op, 0.0, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if tracer._count:
                span[6] = work(args, result) if work else 0
            return result

        return wrapper

    def _leaf(self, name, fn):
        spans, stack, tracer = self.spans, self._stack, self
        calls, seconds = self.leaf_calls, self.leaf_seconds
        distinct = self.gen_binomial_args if name == "kernel.gen_binomial" else None

        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - start
            seconds[name] += elapsed
            if stack:
                spans[stack[-1]][5] += elapsed
            if tracer._count:
                calls[name] += 1
                if distinct is not None:
                    distinct.add(args)
            return result

        return wrapper

    @contextmanager
    def installed(self, count: bool):
        """Trace one op: wrappers in place for its duration only."""
        self._op += 1
        self._count = count
        for namespace, attr, _original, wrapper in self._patches:
            setattr(namespace, attr, wrapper)
        try:
            yield
        finally:
            for namespace, attr, original, _wrapper in self._patches:
                setattr(namespace, attr, original)
            self._count = False

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name, leaf tallies included."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op, _leaf, _work in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = dict(self.leaf_seconds)
        for index, (name, start, end, _parent, _op, leaf, _work) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[index] - leaf
        return totals

    def work(self) -> dict[str, tuple[int, int]]:
        """(calls, work) per span name over the counted ops."""
        out: dict[str, tuple[int, int]] = {}
        for name, _start, _end, _parent, _op, _leaf, work in self.spans:
            if work is None:
                continue
            calls, total = out.get(name, (0, 0))
            out[name] = (calls + 1, total + (work or 0))
        return out

    def write_spans(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, leaf, work in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "op": op, "leaf_s": leaf, "work": work}) + "\n")
