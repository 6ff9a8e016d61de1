"""Spans around the package's public functions, recorded from outside.

``Tracer.installed()`` replaces each traced function in every
``fermat_hodge`` module that binds it (``enumerate_level`` is wrapped as
``monoid.enumerate_level`` wherever ``hilbert``, ``cycles``,
``characters`` or ``cli`` imported it) and restores the originals on
exit.  A span is (name, start, end, parent span index, item id); spans
stay in memory until ``write`` is called.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import process_time

# (module, function); spans are named "<module>.<function>".
FUNCTIONS = (
    ("monoid", "enumerate_level"),
    ("monoid", "is_member"),
    ("hilbert", "hilbert_basis"),
    ("hilbert", "is_decomposable"),
    ("cycles", "check_condition"),
    ("cycles", "is_quasi_decomposable"),
    ("cycles", "build_pool"),
    ("cycles", "standard_elements"),
    ("cycles", "verdict"),
    ("characters", "enumerate_hodge_labels"),
    ("characters", "from_monoid"),
    ("cli", "main"),
)
CACHE_METHODS = (
    ("get_level", "cache.get"),
    ("get_basis", "cache.get"),
    ("get_standard", "cache.get"),
    ("get_report", "cache.get"),
    ("put_level", "cache.put"),
    ("put_basis", "cache.put"),
    ("put_standard", "cache.put"),
    ("put_report", "cache.put"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.item = None
        self.counts: Counter = Counter()
        self.budgets: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = process_time()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.item)
            if count is not None:
                count(tracer.counts, args, result)
            return result

        return wrapper

    def counting_budget(self):
        """A SearchBudget subclass that remembers the last count checked."""
        from fermat_hodge.budget import SearchBudget

        budgets = self.budgets

        class CountingBudget(SearchBudget):
            last = 0

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                budgets.append(self)

            def check(self, candidates: int) -> None:
                self.last = candidates
                super().check(candidates)

        return CountingBudget

    @contextmanager
    def installed(self):
        """Wrap the traced functions for the duration of the block."""
        from fermat_hodge import budget

        modules = [
            mod for name, mod in sys.modules.items()
            if name == "fermat_hodge" or name.startswith("fermat_hodge.")
        ]
        undo = []
        for mod_name, fn_name in FUNCTIONS:
            if f"fermat_hodge.{mod_name}" not in sys.modules:
                continue  # a layer the workload never imported does no work
            orig = getattr(sys.modules[f"fermat_hodge.{mod_name}"], fn_name)
            span = f"{mod_name}.{fn_name}"
            wrapper = self._wrap(span, orig, COUNTERS.get(span))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, orig))
        cache = sys.modules.get("fermat_hodge.cache")
        if cache is not None:
            cls = cache.ResultCache
            for method, span in CACHE_METHODS:
                orig = vars(cls)[method]
                setattr(cls, method, self._wrap(span, orig, COUNTERS.get(span)))
                undo.append((cls, method, orig))
            for method, counter in (("_read", _count_read), ("_write", _count_write)):
                orig = vars(cls)[method]
                setattr(cls, method, _counted(self.counts, orig, counter))
                undo.append((cls, method, orig))
        base, counting = budget.SearchBudget, self.counting_budget()
        for mod in modules:
            if vars(mod).get("SearchBudget") is base:
                undo.append((mod, "SearchBudget", base))
                mod.SearchBudget = counting
        try:
            yield counting
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    # -- derived numbers ---------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def summary(self) -> dict:
        """Calls and self seconds per span name; self seconds per layer,
        overall and per item kind (item ids are (sequence number, kind))."""
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        layer_s: dict = defaultdict(float)
        kind_layer_s: dict = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self.self_times()):
            name, (_, kind) = span[0], span[4]
            layer = name.split(".", 1)[0]
            calls[name] += 1
            self_s[name] += own
            layer_s[layer] += own
            kind_layer_s[kind][layer] += own
        return {
            "calls": calls,
            "self_s": self_s,
            "layer_s": layer_s,
            "kind_layer_s": kind_layer_s,
            "reduce_ticks": sum(b.last for b in self.budgets),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _counted(counts, fn, counter):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        result = fn(self, *args, **kwargs)
        counter(counts, self, args, result)
        return result

    return wrapper


def _count_read(counts, cache, args, payload) -> None:
    if payload is not None:
        kind, name = args[:2]
        counts["cache.bytes_read"] += cache._path(kind, name).stat().st_size


def _count_write(counts, cache, args, result) -> None:
    kind, name = args[:2]
    counts["cache.bytes_written"] += cache._path(kind, name).stat().st_size


def _count_rows(counts, args, result) -> None:
    counts["monoid.enumerate_level.rows"] += len(result)


def _count_elements(counts, args, result) -> None:
    counts["hilbert.elements"] += len(result.elements)


def _count_witness(counts, args, result) -> None:
    counts["cycles.quasi_witnesses"] += result is not None


def _count_labels(counts, args, result) -> None:
    counts["characters.labels"] += len(result)


def _count_hit(counts, args, result) -> None:
    counts["cache.hits"] += result is not None


COUNTERS = {
    "monoid.enumerate_level": _count_rows,
    "hilbert.hilbert_basis": _count_elements,
    "cycles.is_quasi_decomposable": _count_witness,
    "characters.enumerate_hodge_labels": _count_labels,
    "cache.get": _count_hit,
}
