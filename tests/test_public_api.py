"""Every public function, class and method in ``src/impactzeta`` is used.

A public name that only the tests call is API that nothing exercises in
use, and often a second copy of a job the program does elsewhere.  A name
counts as used when another ``src`` module, its own module outside its own
definition, or a ``bench/*.py`` script refers to it: as an identifier, an
attribute, or a ``module:qualname`` string (the form in which
``bench/trace_child.py`` names the functions it wraps).  An import alone
is no use: a name imported and never called counts as unused.  This covers
module-level functions and classes, and the public (non-underscore)
methods of public classes.  The only exceptions are the referees below,
each with the reason it stays.

A ``module:qualname`` string keeps a name alive without calling it, so a
second test lists the names that nothing refers to except such a string
in ``bench/``: a function the program no longer calls, which the benchmark
still wraps.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "impactzeta"

REFEREES = {
    "slope_map": "referee for the order-q step behind classify_type's q^d",
    "poly_from_json": "inverse of cli.poly_to_json, for round-trip tests",
}

SPAN_ONLY = {
    "build_line_tree": "named in `bench/trace_child.py` `SPANS`; goes with ROADMAP item 1",
    "TruncatedTree.bfs_distances": "referee for building.distance (BFS against the "
    "address rule), also named in `bench/trace_child.py` `SPANS`",
    "reachable_count_closed": "named in `bench/trace_child.py` `SPANS`; acceptance "
    "test 5 still compares it with BFS; goes with its span (ROADMAP item 15)",
}

_SPAN_STRING = re.compile(r"\w+:[\w.]+")


def _references(node, skip=None, span_strings=True) -> set[str]:
    """Names referred to anywhere under ``node``, leaving out the ``skip``
    subtree, and ``module:qualname`` strings unless ``span_strings`` is false."""
    out = set()
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        stack.extend(ast.iter_child_nodes(sub))
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif span_strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _SPAN_STRING.fullmatch(sub.value):
                out.update(re.split(r"[:.]", sub.value))
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unreferenced_public_names(bench_spans: bool = True) -> set[str]:
    """Public names nothing refers to; span strings in ``bench/`` count
    as references unless ``bench_spans`` is false."""
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    bench = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        bench |= _references(_parse(path), span_strings=bench_spans)
    unused = set()
    for name, module in modules.items():
        elsewhere = set(bench)
        for other, tree in modules.items():
            if other != name:
                elsewhere |= _references(tree)
        for stmt in module.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if stmt.name.startswith("_"):
                continue
            if stmt.name not in elsewhere | _references(module, skip=stmt):
                unused.add(stmt.name)
            if not isinstance(stmt, ast.ClassDef):
                continue
            for method in stmt.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                if method.name not in elsewhere | _references(module, skip=method):
                    unused.add(f"{stmt.name}.{method.name}")
    return unused


def test_no_public_name_exists_only_for_tests():
    assert unreferenced_public_names() == set(REFEREES)


def test_no_public_name_lives_only_in_a_bench_span():
    span_only = unreferenced_public_names(bench_spans=False) - unreferenced_public_names()
    assert span_only == set(SPAN_ONLY)


def _attribute_reads(node, skip=None) -> set[str]:
    """Names read as ``x.name`` anywhere under ``node``, leaving out ``skip``."""
    out = set()
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        stack.extend(ast.iter_child_nodes(sub))
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
    return out


def unread_fields() -> set[str]:
    """Annotated class fields of ``src/impactzeta`` that nothing reads.

    A field is read when ``x.field`` is loaded somewhere in ``src`` or in a
    ``bench/*.py`` script outside the body of the class that declares it.
    A field that only its own methods or the tests read is a second copy
    of a datum the program keeps elsewhere, or derives.

    Blind spot: reads are matched by attribute name alone, so a field whose
    name another object also has (``args.n`` reads as any field ``n``)
    always counts as read.
    """
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    bench = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        bench |= _attribute_reads(_parse(path))
    unread = set()
    for name, module in modules.items():
        elsewhere = set(bench)
        for other, tree in modules.items():
            if other != name:
                elsewhere |= _attribute_reads(tree)
        for cls in module.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            read = elsewhere | _attribute_reads(module, skip=cls)
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    if stmt.target.id not in read:
                        unread.add(f"{cls.name}.{stmt.target.id}")
    return unread


def test_no_record_field_goes_unread():
    assert unread_fields() == set()


def unread_parameters() -> set[str]:
    """Parameters of functions in ``src/impactzeta`` that their bodies never read.

    Every function counts: module-level, methods, nested functions and
    lambdas.  A parameter is read when its name is loaded anywhere in the
    body, nested scopes included, so a closure's read counts.  A parameter
    nothing reads is a second copy of a datum the caller already holds, or
    a leftover of an older signature.

    Blind spot: a nested scope that rebinds the name and reads its own
    binding counts as a read of the outer parameter.
    """
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(_parse(path)):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {
                node.id
                for stmt in body
                for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            name = getattr(fn, "name", "<lambda>")
            unread |= {f"{path.stem}.{name}({x.arg})" for x in params if x and x.arg not in read}
    return unread


def test_no_parameter_goes_unread():
    assert unread_parameters() == set()
