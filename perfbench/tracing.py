"""Spans and counters recorded around calls into each layer, from outside
the library.

A span is ``[name, start_ns, end_ns, parent_index, item]``; ``item`` names
the workload job that caused it.  Spans stay in memory until the worker
writes them out at the end.  Field arithmetic is counted, not spanned:
one span per multiplication would cost more than the multiplication.

Wrappers go on every module attribute and class attribute that binds a
traced function, because ``from .mpoly import exact_divide`` gives
``vschur`` and ``factor`` bindings of their own: patching only the
defining module would miss those calls.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

MODULES = (
    "schurlab",
    "schurlab.ffield",
    "schurlab.mpoly",
    "schurlab.vschur",
    "schurlab.factor",
    "schurlab.newton",
    "schurlab.cli",
)

# (span name, defining module, attribute path); both verification entry
# points report under one span name.
SPANNED = (
    ("ffield.make_field", "schurlab.ffield", "make_field"),
    ("mpoly.mul", "schurlab.mpoly", "MultiPoly.__mul__"),
    ("mpoly.exact_divide", "schurlab.mpoly", "exact_divide"),
    ("mpoly.substitute", "schurlab.mpoly", "substitute"),
    ("vschur.t_poly", "schurlab.vschur", "t_poly"),
    ("vschur.r_poly", "schurlab.vschur", "r_poly"),
    ("vschur.schur_bialternant", "schurlab.vschur", "schur_bialternant"),
    ("factor.verify_fact", "schurlab.factor", "verify_fact_eq1"),
    ("factor.verify_fact", "schurlab.factor", "verify_fact_eq2"),
    ("factor.linear_factors", "schurlab.factor", "linear_factors_over"),
    ("newton.degree", "schurlab.newton", "degree_of_extension"),
    ("newton.oracle", "schurlab.newton", "brute_count_alternatives"),
    ("cli.main", "schurlab.cli", "main"),
)
FACTOR_SPANS = ("factor.verify_fact", "factor.linear_factors")


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


def _rebind(original, wrapper) -> int:
    """Replace every binding of ``original`` in the package; returns the count."""
    count = 0
    for module in MODULES:
        mod = importlib.import_module(module)
        owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    count += 1
    return count


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.item = None
        self._stack: list[int] = []
        self._open: Counter = Counter()

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        spans, stack, is_open = self.spans, self._stack, self._open
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.item])
            stack.append(index)
            is_open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
                is_open[name] -= 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _terms_seen(self, *polys):
        counts = self.counts
        for poly in polys:
            terms = getattr(poly, "_terms", None)
            if terms is not None and len(terms) > counts["mpoly.peak_terms"]:
                counts["mpoly.peak_terms"] = len(terms)

    def _after_mul(self, args, result):
        left, right = args
        self.counts["mpoly.mul_term_pairs"] += len(left._terms) * len(getattr(right, "_terms", (0,)))
        self._terms_seen(left, right, result)

    def _after_divide(self, args, result):
        self._terms_seen(args[0], args[1], result)

    def _after_substitute(self, args, result):
        self._terms_seen(args[0], result)
        if any(self._open[name] for name in FACTOR_SPANS):
            self.counts["factor.substitutions"] += 1
            if result.is_zero():
                self.counts["factor.annihilated"] += 1

    def install(self) -> None:
        """Put the wrappers in place; raises if a traced function is unbound."""
        from schurlab.ffield import FFElement, FieldSpec

        after = {
            "mpoly.mul": self._after_mul,
            "mpoly.exact_divide": self._after_divide,
            "mpoly.substitute": self._after_substitute,
        }
        for name, module, path in SPANNED:
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr)
            wrapper = self._spanned(name, original, after.get(name))
            if not _rebind(original, wrapper):
                raise RuntimeError(f"no binding of {module}.{path} found")
        for key, attr in (("ffield.mul", "__mul__"), ("ffield.add", "__add__"), ("ffield.add", "__sub__")):
            _rebind(getattr(FFElement, attr), self._counted(key, getattr(FFElement, attr)))

        elements = FieldSpec.elements
        counts, is_open = self.counts, self._open

        def counted_elements(spec):
            in_oracle = is_open["newton.oracle"] > 0
            for x in elements(spec):
                counts["ffield.elements"] += 1
                if in_oracle:
                    counts["newton.oracle_elements"] += 1
                yield x

        _rebind(elements, counted_elements)

    # -- output --------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def self_times(spans: list) -> tuple[Counter, Counter]:
    """Seconds of self time and number of spans, by span name.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _item in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    seconds, calls = Counter(), Counter()
    for index, (name, start, end, _parent, _item) in enumerate(spans):
        seconds[name] += (end - start - child_ns[index]) / 1e9
        calls[name] += 1
    return seconds, calls


def first_child_delay(spans: list, name: str) -> float:
    """Seconds from the first ``name`` span's start to its first child's start."""
    for index, span in enumerate(spans):
        if span[0] == name:
            for child in spans[index + 1:]:
                if child[3] == index:
                    return (child[1] - span[1]) / 1e9
            return (span[2] - span[1]) / 1e9
    return 0.0
