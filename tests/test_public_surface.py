"""The package exports only what its own modules use: every name that
`knotpoints/__init__.py` imports has a caller somewhere in the package, and
each module's `__all__` lists exactly the names imported from it.  Nor does
the package keep code only its tests call: every top-level function and
class of a module has a caller in the package too."""

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


def _has_caller(module: str, name: str, own: ast.stmt | None = None) -> bool:
    """Whether the module loads `name` outside its definition: `own`, the
    def of a method, or else the top-level statement that defines `name`.
    The text finds the lines that spell the name; the statements there
    decide."""
    text = _text(module)
    at = text.find(name)
    while at >= 0:
        end = at + len(name)
        if not (text[at - 1 : at].isidentifier() or text[end : end + 1].isidentifier()):
            chain = _statements_at(_tree(module).body, text.count("\n", 0, at) + 1)
            outside = chain and (
                own not in chain if own is not None else getattr(chain[0], "name", None) != name
            )
            if outside and name in _own_loads(chain[-1]):
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


def _imports_of_init() -> dict[str, set[str]]:
    """The names `knotpoints/__init__.py` imports, per module."""
    out = {m: set() for m in MODULES}
    for s in _tree("__init__").body:
        if isinstance(s, ast.ImportFrom):
            out[s.module].update(a.asname or a.name for a in s.names)
    return out


def _dunder_all(module: str) -> set[str]:
    """The module's `__all__`, empty when it has none."""
    for s in _tree(module).body:
        if isinstance(s, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in s.targets):
            return set(ast.literal_eval(s.value))
    return set()


def test_each_dunder_all_lists_what_the_package_imports_from_the_module():
    for module, names in _imports_of_init().items():
        assert _dunder_all(module) == names, module


def test_every_exported_name_has_a_caller_in_the_package():
    """A caller is a load outside the top-level definition of the name, so
    recursion does not count.  Only the statements around the places that
    spell a name are walked, and a module is parsed only when it spells a
    name that still lacks a caller."""
    assert sorted(MODULES + ("__init__",)) == sorted(p.stem for p in PACKAGE.glob("*.py"))
    exported = set().union(*_imports_of_init().values())
    assert exported
    uncalled = [n for n in sorted(exported) if not any(_has_caller(m, n) for m in MODULES)]
    assert uncalled == []


def test_every_top_level_function_and_class_has_a_caller_in_the_package():
    """Exported or not, so that a kernel only the tests call lives in the
    tests.  The defining module is searched first."""
    defined = [
        (m, s.name)
        for m in MODULES
        for s in _tree(m).body
        if isinstance(s, (ast.FunctionDef, ast.ClassDef))
    ]
    assert len(defined) > 100
    uncalled = [f"{m}.{n}" for m, n in defined if not any(_has_caller(x, n) for x in (m, *MODULES))]
    assert uncalled == []


# IntervalSet queries kept without a caller: the benchmark's set counts are
# to read `n_components` instead of building every component as Fractions,
# and `contains_point` is its one-point sibling
KEPT_METHODS = {("IntervalSet", "contains_point"), ("IntervalSet", "n_components")}


def test_every_method_and_property_has_a_caller_in_the_package():
    """Every method and property of a top-level class, dunders aside, is
    loaded by name somewhere in the package outside its own def.  A load of
    the name counts for every class that defines it."""
    methods = [
        (m, c.name, s)
        for m in MODULES
        for c in _tree(m).body
        if isinstance(c, ast.ClassDef)
        for s in c.body
        if isinstance(s, ast.FunctionDef) and not (s.name.startswith("__") and s.name.endswith("__"))
    ]
    assert len(methods) > 50
    uncalled = [
        f"{m}.{c}.{s.name}"
        for m, c, s in methods
        if (c, s.name) not in KEPT_METHODS and not any(_has_caller(x, s.name, s) for x in (m, *MODULES))
    ]
    assert uncalled == []
