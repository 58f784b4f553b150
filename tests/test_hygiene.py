"""Source hygiene of the package: no dead imports, no dangling exports."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "factorwidth"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported_names(tree):
    """Local names bound by the module's imports, with their line numbers."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)  # a re-export counts as a use
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports but never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_resolves(path):
    name = ("factorwidth" if path.name == "__init__.py"
            else f"factorwidth.{path.stem}")
    module = importlib.import_module(name)
    missing = sorted(n for n in getattr(module, "__all__", ())
                     if not hasattr(module, n))
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_level_import_from_a_module_imported_at_top(path):
    # such a name belongs in the top-level import; a function-level import
    # stays only where it breaks an import cycle (``from . import dualcone``)
    tree = ast.parse(path.read_text())
    top = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    sources = {(node.level, node.module) for node in top}
    late = [f"from {'.' * node.level}{node.module} (line {node.lineno})"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node not in top
            and node.level and (node.level, node.module) in sources]
    assert not late, f"{path.name} imports again inside a function: {late}"


def _private_definitions(tree):
    """Module-level ``_name`` functions, classes and constants, with the
    top-level statement that defines each."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node):
    """Names a statement reads: loads, attribute accesses and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_no_dead_private_definitions():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    dead = []
    for name, tree in trees.items():
        for private, definition in _private_definitions(tree):
            used = any(private in _references(node)
                       for other in trees.values() for node in other.body
                       if node is not definition)
            if not used:
                dead.append(f"{name}: {private} (line {definition.lineno})")
    assert not dead, f"private definitions referenced nowhere: {dead}"


def _reads_outside_symcore(attrs):
    return [f"{path.name}: .{node.attr} (line {node.lineno})"
            for path in MODULES if path.name != "symcore.py"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in attrs]


def test_only_symcore_reads_numerators_and_denominators():
    # symcore._scaled is the package's one rational-to-integer map; every
    # other module reads the (num, den) view or converts through it
    reads = _reads_outside_symcore(("numerator", "denominator"))
    assert not reads, f"rational parts read outside symcore: {reads}"


def test_only_symcore_reads_entries():
    # every matrix answers for its numbers through its (num, den) view, so
    # no other module chooses between the view and the entries array
    reads = _reads_outside_symcore(("entries",))
    assert not reads, f"SymMatrix.entries read outside symcore: {reads}"
