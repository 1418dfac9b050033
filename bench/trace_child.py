"""Traced ``impactzeta`` run: span every public layer call from outside.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 bench/trace_child.py verify --suite oracle --format json

The program itself is not modified.  Each function listed in ``SPANS`` is
wrapped, and the wrapper replaces the original everywhere it is bound: in
every ``impactzeta`` module namespace (``from .genfun import
reachable_count_oracle`` in ``suites`` is a second binding) and under every
alias on its class (``BiPoly.__radd__`` is ``BiPoly.__add__``).  A binding
left unpatched aborts the run.

A span records its call count and self time: its duration minus the time
covered by the spans it encloses.  Work in functions that are not wrapped
(``VertexAddr.height``, the private generator search) is self time of the
nearest enclosing span.  Prints one JSON object: the CLI exit code and
output, wall time, per-span counts and self seconds, and layer counters.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import sys
import time
import weakref
from collections import Counter, defaultdict


class Tracer:
    """In-memory span stack; a frame is ``[span name, child seconds]``."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        self.stack: list[list] = []
        self.top_s = 0.0  # summed duration of spans with no enclosing span
        self.bfs_sources: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.enumerations: set = set()

    def span(self, name, fn, hook=None):
        """Wrap fn in a span; ``hook(tracer, parent, args, kwargs, result)`` runs after it."""
        calls, self_s, stack, clock = self.calls, self.self_s, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    tracer.top_s += elapsed
            if hook is not None:
                hook(tracer, parent, args, kwargs, result)
            return result

        return wrapper

    def count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def _built(tracer, parent, args, kwargs, tree):
    tracer.counters["building.vertices_built"] += len(tree)


def _bfs(tracer, parent, args, kwargs, dist):
    tree, source = args[0], args[1] if len(args) > 1 else kwargs["source"]
    seen = tracer.bfs_sources.setdefault(tree, set())
    if source not in seen:
        seen.add(source)
        tracer.counters["building.bfs_distinct_sources"] += 1
    if parent == "genfun.oracle":
        tracer.counters["genfun.vertices_scanned"] += len(dist)


def _enumerated(tracer, parent, args, kwargs, records):
    signature = inspect.signature(sys.modules["impactzeta.padic"].enumerate_ideals)
    named = signature.bind(*args, **kwargs).arguments
    key = (named["inst"], named["n"], named["max_contribution"])
    if key in tracer.enumerations:
        return
    tracer.enumerations.add(key)
    tracer.counters["padic.enumerate_distinct"] += 1
    tracer.counters["padic.ideals_found"] += len(records)
    tracer.counters["padic.principal_found"] += sum(1 for r in records if r.principal)


def _ideal_test(tracer, parent, args, kwargs, result):
    if parent == "padic.enumerate":
        tracer.counters["padic.lattices_scanned"] += 1


# (module:qualname, span name, hook).  Span names start with their layer.
SPANS = (
    ("poly:BiPoly.__add__", "poly.add", None),
    ("poly:BiPoly.__mul__", "poly.mul", None),
    ("poly:BiPoly.__sub__", "poly.other", None),
    ("poly:BiPoly.__rsub__", "poly.other", None),
    ("poly:BiPoly.__neg__", "poly.other", None),
    ("poly:BiPoly.__pow__", "poly.other", None),
    ("poly:BiPoly.subs_q", "poly.other", None),
    ("poly:BiPoly.x_coefficients", "poly.other", None),
    ("poly:exact_div", "poly.exact_div", None),
    ("poly:series_expand", "poly.series_expand", None),
    ("poly:RationalFn.__eq__", "poly.ratfn_eq", None),
    ("poly:RationalFn.__add__", "poly.other", None),
    ("poly:RationalFn.__mul__", "poly.other", None),
    ("poly:RationalFn.subs_q", "poly.other", None),
    ("poly:SeriesPrefix.at_q", "poly.other", None),
    ("orders:full_zeta", "orders.full_zeta", None),
    ("orders:principal_zeta", "orders.principal_zeta", None),
    ("orders:classify_type", "orders.classify_type", None),
    ("orders:unit_index", "orders.other", None),
    ("orders:numerator_poly", "orders.other", None),
    ("orders:check_main_theorem", "orders.other", None),
    ("orders:check_zeta_recurrence", "orders.other", None),
    ("orders:principal_count_series", "orders.other", None),
    ("genfun:layer_genfun_q", "genfun.closed_form", None),
    ("genfun:basin_genfun_q", "genfun.closed_form", None),
    ("genfun:layer_genfun", "genfun.closed_form", None),
    ("genfun:basin_genfun", "genfun.closed_form", None),
    ("genfun:geodesic_genfun_q", "genfun.closed_form", None),
    ("genfun:reachable_count_closed", "genfun.closed_form", None),
    ("genfun:reachable_count_oracle", "genfun.oracle", None),
    ("genfun:check_recurrence_q", "genfun.other", None),
    ("genfun:check_geodesic_q", "genfun.other", None),
    ("genfun:oracle_series_check", "genfun.other", None),
    ("building:build_truncated", "building.build", _built),
    ("building:build_line_tree", "building.build", _built),
    ("building:TruncatedTree.bfs_distances", "building.bfs", _bfs),
    ("building:layer_members", "building.layer_members", None),
    ("building:distance", "building.other", None),
    ("building:way_out_vertex", "building.other", None),
    ("padic:enumerate_ideals", "padic.enumerate", _enumerated),
    ("padic:is_ideal", "padic.is_ideal", _ideal_test),
    ("padic:lattice_distance", "padic.lattice_distance", None),
    ("padic:ClassAtlas.__init__", "padic.atlas", None),
    ("padic:ClassAtlas.locate", "padic.locate", None),
    ("padic:coset_reps", "padic.coset_reps", None),
    ("padic:source_and_distance_check", "padic.source_check", None),
    ("padic:traveling", "padic.traveling", None),
    ("padic:make_case", "padic.other", None),
    ("suites:identity_suite", "suites.suite", None),
    ("suites:line_fixture_suite", "suites.suite", None),
    ("suites:oracle_suite", "suites.suite", None),
    ("suites:arithmetic_suite", "suites.suite", None),
)
# Counted without a span: a constructor too cheap and too frequent to time.
COUNTS = (("poly:BiPoly.__post_init__", "poly.bipoly_new"),)


def install(tracer: Tracer) -> None:
    """Replace every binding of each listed function with its wrapper."""
    importlib.import_module("impactzeta.cli")  # loads every module
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "impactzeta"]
    targets = [(t, functools.partial(tracer.span, name, hook=hook)) for t, name, hook in SPANS]
    targets += [(t, functools.partial(tracer.count, name)) for t, name in COUNTS]
    originals = []
    patched = list(modules)
    for target, make in targets:
        module_name, _, qualname = target.partition(":")
        module = sys.modules["impactzeta." + module_name]
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            namespaces = [owner]
            patched.append(owner)
        else:
            original = getattr(module, attr)
            namespaces = modules
        wrapper = make(original)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapper)
        originals.append(original)
    for ns in patched:
        for key, value in vars(ns).items():
            if any(value is original for original in originals):
                raise RuntimeError(f"unpatched binding {ns.__name__}.{key}")


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from impactzeta import cli

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    wall = time.perf_counter() - start
    report = {
        "exit": code,
        "stdout": out.getvalue(),
        "wall_s": wall,
        "top_s": tracer.top_s,
        "spans": {n: [tracer.calls[n], tracer.self_s[n]] for n in tracer.self_s},
        "counts": {n: tracer.calls[n] for _, n in COUNTS},
        "counters": dict(tracer.counters),
    }
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
