"""Every public module-level function and class in ``src/impactzeta`` is used.

A public name that only the tests call is API that nothing exercises in
use, and often a second copy of a job the program does elsewhere.  A name
counts as used when another ``src`` module, its own module outside its own
definition, or a ``bench/*.py`` script refers to it: as an identifier, an
attribute, an imported name, or a ``module:qualname`` string (the form in
which ``bench/trace_child.py`` names the functions it wraps).  The only
exceptions are the referees below, each with the reason it stays.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "impactzeta"

REFEREES = {
    "bfs_distance": "referee for building.distance (BFS against the address rule)",
    "slope_map": "referee for the order-q step behind classify_type's q^d",
    "poly_from_json": "inverse of cli.poly_to_json, for round-trip tests",
}

_SPAN_STRING = re.compile(r"\w+:[\w.]+")


def _references(node) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if _SPAN_STRING.fullmatch(sub.value):
                out.update(re.split(r"[:.]", sub.value))
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def unreferenced_public_names() -> set[str]:
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    bench = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        bench |= _references(_parse(path))
    unused = set()
    for name, module in modules.items():
        elsewhere = set(bench)
        for other, tree in modules.items():
            if other != name:
                elsewhere |= _references(tree)
        statements = [(stmt, _references(stmt)) for stmt in module.body]
        for stmt, _ in statements:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            if stmt.name.startswith("_") or stmt.name in elsewhere:
                continue
            if not any(stmt.name in refs for s, refs in statements if s is not stmt):
                unused.add(stmt.name)
    return unused


def test_no_public_name_exists_only_for_tests():
    assert unreferenced_public_names() == set(REFEREES)
