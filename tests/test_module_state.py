"""No function in ``src/impactzeta`` keeps state in a module-level name,
except the one memo that is pinned.

``tests/test_padic.py::test_caches_are_bounded`` sees every ``lru_cache``
but not a plain module-level memo: a dict or list that a function fills.
This guard reads the source instead.  It lists every module-level name
that a function writes through, by item or slice assignment or deletion,
attribute assignment, a ``global`` statement or a mutating method call,
and asserts that the only one is ``genfun._running``, whose single entry
``tests/test_genfun.py`` pins.

Blind spot: a write through another name bound to the same object (an
alias, or an argument) is not seen; nor is a name that only a
comprehension inside the function rebinds.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "impactzeta"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
MUTATORS = {
    "add", "append", "appendleft", "clear", "difference_update", "discard",
    "extend", "extendleft", "insert", "intersection_update", "pop", "popitem",
    "popleft", "remove", "reverse", "setdefault", "sort",
    "symmetric_difference_update", "update",
}


def _base(node):
    """The name at the root of ``a[i].b[j]``, or None."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _own_nodes(fn):
    """The nodes of ``fn``'s own scope; nested functions are yielded, not
    entered.  A nested class body counts as part of the scope."""
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _written_targets(node):
    """Roots of the item and attribute targets that ``node`` stores or deletes."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        targets = []
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, (ast.Subscript, ast.Attribute)) and not isinstance(sub.ctx, ast.Load):
                yield _base(sub)


def _scan_function(fn, outer: set, module_names: set, found: set):
    nodes = list(_own_nodes(fn))
    a = fn.args
    params = {x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x}
    declared = {name for node in nodes if isinstance(node, ast.Global) for name in node.names}
    stored = {n.id for n in nodes if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
    local = (outer | params | stored) - declared
    found |= declared
    for node in nodes:
        written = set(_written_targets(node))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
        ):
            written.add(_base(node.func.value))
        found |= written & (module_names - local)
        if isinstance(node, FUNCTIONS):
            _scan_function(node, local, module_names, found)


def written_module_names(tree: ast.Module) -> set[str]:
    """Module-level names of ``tree`` that one of its functions writes through."""
    module_names = {
        node.id
        for stmt in tree.body
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    }
    found: set = set()
    stack = [tree]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            if isinstance(child, FUNCTIONS):
                _scan_function(child, set(), module_names, found)
            else:
                stack.append(child)
    return found


def test_the_scan_sees_every_form():
    source = (
        "CACHE, SLICED, LOGGED, COUNT, TAGGED, GONE, SAFE, SHADOWED = {}, [], [], 0, {}, {}, [], []\n"
        "def f(SAFE):\n"
        "    global COUNT\n"
        "    COUNT += 1\n"
        "    CACHE[1] = 2\n"
        "    SLICED[:] = [1]\n"
        "    del GONE[0]\n"
        "    SAFE.append(1)\n"
        "    SHADOWED = []\n"
        "    SHADOWED.append(1)\n"
        "    def g():\n"
        "        LOGGED.append(1)\n"
        "        SHADOWED.clear()\n"
        "class C:\n"
        "    def m(self):\n"
        "        TAGGED['x'].last = self\n"
    )
    written = written_module_names(ast.parse(source))
    assert written == {"CACHE", "SLICED", "LOGGED", "COUNT", "TAGGED", "GONE"}


def test_only_the_pinned_memo_is_module_state():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= {f"{path.stem}.{name}" for name in written_module_names(tree)}
    assert found == {"genfun._running"}
