"""The two brute-force oracles never read the formulas they check.

``padic`` (ideal enumeration and placement) and ``building`` (trees and the
walk-count BFS) must import nothing from ``orders`` (the type counts and
zeta functions) or ``genfun`` (the closed-form generating functions), in
any import form, anywhere in the module.  Nor do they import ``report``:
they return data, and ``suites`` builds the checks from it.  The two
closed-form sides, ``orders`` and ``genfun``, import nothing from each
other either: ``suites`` builds both and hands them to the checks.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "impactzeta"
ORACLES = ("padic", "building")
FORMULAS = {"orders", "genfun"}
CHECK_RECORDS = {"report"}


def imported_modules(tree: ast.Module) -> set[str]:
    """Last dotted component of every module named by an import statement."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                out.add(node.module.rpartition(".")[2])
            # ``from . import orders`` names the module as an alias.
            out.update(alias.name for alias in node.names)
    return out


def test_import_scan_sees_every_form():
    source = (
        "from .orders import contribution\n"
        "import impactzeta.genfun\n"
        "def f():\n"
        "    from . import orders\n"
    )
    assert FORMULAS <= imported_modules(ast.parse(source))


def test_oracles_import_no_formula_module():
    for name in ORACLES:
        tree = ast.parse((SRC / f"{name}.py").read_text())
        assert not imported_modules(tree) & FORMULAS, name


def test_oracles_build_no_check_records():
    for name in ORACLES:
        tree = ast.parse((SRC / f"{name}.py").read_text())
        assert not imported_modules(tree) & CHECK_RECORDS, name


def test_closed_form_sides_import_nothing_from_each_other():
    for name, other in (("orders", "genfun"), ("genfun", "orders")):
        tree = ast.parse((SRC / f"{name}.py").read_text())
        assert other not in imported_modules(tree), name
