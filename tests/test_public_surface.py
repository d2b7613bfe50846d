"""The package exports only what its own modules use: every name that
`knotpoints/__init__.py` imports has a caller somewhere in the package."""

import ast
import functools
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "knotpoints"


# the layers from the top down: the upper ones call the most, so they are
# searched first
MODULES = ("cli", "bmgame", "bump", "indexcomb", "nsets", "realfn", "intervalsets")


@functools.cache
def _tree(module: str) -> ast.Module:
    """The module's syntax tree, parsed when first needed."""
    return ast.parse(_text(module))


@functools.cache
def _text(module: str) -> str:
    return (PACKAGE / f"{module}.py").read_text()


def _has_caller(module: str, name: str) -> bool:
    """Whether the module loads `name` outside its top-level definition.
    The text finds the lines that spell the name; the statements there
    decide."""
    text = _text(module)
    at = text.find(name)
    while at >= 0:
        end = at + len(name)
        if not (text[at - 1 : at].isidentifier() or text[end : end + 1].isidentifier()):
            chain = _statements_at(_tree(module).body, text.count("\n", 0, at) + 1)
            if chain and getattr(chain[0], "name", None) != name and name in _own_loads(chain[-1]):
                return True
        at = text.find(name, end)
    return False


def _statements_at(body: list, line: int) -> list:
    """The statements of `body` whose lines hold `line`, outermost first
    (an `except` clause counts as a statement)."""
    for stmt in body:
        first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", ())])
        if first <= line <= stmt.end_lineno:
            for block in ("body", "handlers", "orelse", "finalbody"):
                inner = _statements_at(getattr(stmt, block, ()), line)
                if inner:
                    return [stmt] + inner
            return [stmt]
    return []


def _own_loads(stmt) -> set[str]:
    """Names and attributes that the statement's own expressions load,
    leaving out the statements nested in it.  Imports, `__all__` entries
    and docstrings are aliases or strings, never loads."""
    out = set()
    todo = [c for c in ast.iter_child_nodes(stmt) if not isinstance(c, (ast.stmt, ast.excepthandler))]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return out


def test_every_exported_name_has_a_caller_in_the_package():
    """A caller is a load outside the top-level definition of the name, so
    recursion does not count.  Only the statements around the places that
    spell a name are walked, and a module is parsed only when it spells a
    name that still lacks a caller."""
    assert sorted(MODULES + ("__init__",)) == sorted(p.stem for p in PACKAGE.glob("*.py"))
    exported = {a.asname or a.name for s in _tree("__init__").body if isinstance(s, ast.ImportFrom) for a in s.names}
    assert exported
    uncalled = [n for n in sorted(exported) if not any(_has_caller(m, n) for m in MODULES)]
    assert uncalled == []
