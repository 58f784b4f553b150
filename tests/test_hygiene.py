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


def _functions(path):
    """``(class name or "", function)`` for each module-level function of
    ``path`` and each method of its classes."""
    for node in ast.parse(path.read_text()).body:
        cls = isinstance(node, ast.ClassDef)
        for func in node.body if cls else [node]:
            if isinstance(func, ast.FunctionDef):
                yield node.name if cls else "", func


def _symcore_functions():
    """Each module-level function of symcore and each method of its classes,
    with its name and whether it is a ``SymMatrix`` method."""
    for cls, func in _functions(PACKAGE / "symcore.py"):
        yield func.name, func, cls == "SymMatrix"


def test_symcore_reads_entries_only_to_hand_out_or_compare_numbers():
    # a matrix stores its (num, den) view alone; entries, made from it on
    # first read, are read only where numbers leave as values or compare
    readers = {name for name, func, _ in _symcore_functions()
               if any(isinstance(node, ast.Attribute) and node.attr == "entries"
                      for node in ast.walk(func))}
    assert readers == {"__getitem__", "rows", "__eq__", "scale_congruence"}


def test_no_symmatrix_accessor_converts_into_the_view():
    # every constructor stores the view, so the one SymMatrix method that
    # calls _scaled is to_exact, which builds a new matrix from a float one
    callers = {name for name, func, method in _symcore_functions()
               if method and "_scaled" in set(_called_names([func]))}
    assert callers == {"to_exact"}


def test_no_bare_value_error_raised():
    # every argument check raises symcore._InputError, a ValueError that
    # the command line can tell from numpy's LinAlgError (also a ValueError)
    bare = [f"{path.name} (line {node.lineno})" for path in MODULES
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and isinstance(node.exc.func, ast.Name)
            and node.exc.func.id == "ValueError"]
    assert not bare, f"raise ValueError( instead of _InputError: {bare}"


def test_one_reader_bounds_every_support():
    # a support's width and range are checked once, in symcore._support,
    # which every entry point that takes a support calls
    sites = [(path.name, n) for path in MODULES
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if ".indices[-1]" in line]
    assert len(sites) == 1, f"supports bounded in several places: {sites}"
    (name, line), = sites
    reader, = (func for fname, func, _ in _symcore_functions()
               if fname == "_support")
    assert name == "symcore.py"
    assert reader.lineno <= line <= reader.end_lineno


def _function(path, qualname):
    func, = (func for cls, func in _functions(path)
             if qualname in (func.name, f"{cls}.{func.name}"))
    return func


def _is_member_target(node):
    """Whether ``node`` is ``<...>.feas_tol * (<... max_abs() ...>)``."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and getattr(node.left, "attr", None) == "feas_tol"
            and "max_abs" in set(_called_names([node.right])))


def test_one_home_for_the_member_target():
    # feas_tol (1 + max|A|) is computed once, in fw_membership, and handed
    # to both member exits
    sites = [path.name for path in MODULES
             for node in ast.walk(ast.parse(path.read_text()))
             if _is_member_target(node)]
    assert sites == ["decompose.py"], sites
    assert any(map(_is_member_target, ast.walk(
        _function(PACKAGE / "decompose.py", "fw_membership"))))


def test_one_home_for_the_certificate_gate_margins():
    # the dual tolerance and the pairing margin are dualcone's two named
    # constants; the width-2 closed form reads the margin from there
    dual, decomp = PACKAGE / "dualcone.py", PACKAGE / "decompose.py"
    tree = ast.parse(decomp.read_text())
    literals = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and node.value == 1e-8]
    tol_line, = (node.lineno for node in tree.body
                 if isinstance(node, ast.Assign)
                 and node.targets[0].id == "_BLOCK_PSD_TOL")
    assert literals == [tol_line], "decompose.py restates a 1e-8 margin"
    for path, qualname, wanted in (
            (dual, "verify_candidate", {"_DUAL_TOL", "_PAIRING_MARGIN"}),
            (dual, "DualCertificate.__post_init__", {"_DUAL_TOL"}),
            (decomp, "_width_two", {"_PAIRING_MARGIN"})):
        nodes = list(ast.walk(_function(path, qualname)))
        read = {getattr(node, "id", getattr(node, "attr", None))
                for node in nodes}
        constants = {node.value for node in nodes
                     if isinstance(node, ast.Constant)}
        assert wanted <= read, (qualname, wanted - read)
        assert not constants & {1e-8, 1e-9}, (qualname, constants)


def test_build_asks_the_battery_for_its_failing_blocks():
    # BlockDecomposition.build keeps no psd threshold of its own: its block
    # tolerance goes only to _psd_battery, whose verdict it reads
    build = _function(PACKAGE / "decompose.py", "BlockDecomposition.build")
    args = {id(arg) for node in ast.walk(build) if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "_psd_battery"
            for arg in node.args}
    tol = [node for node in ast.walk(build)
           if isinstance(node, ast.Name) and node.id == "_BLOCK_PSD_TOL"]
    assert tol and all(id(node) in args for node in tol)


def _called_names(statements):
    for sub in (s for stmt in statements for s in ast.walk(stmt)):
        if isinstance(sub, ast.Call):
            func = sub.func
            yield getattr(func, "attr", getattr(func, "id", None))


def test_cli_leaves_input_checks_to_the_library():
    # cli.py maps the library's _InputError to exit 64 and re-checks nothing:
    # it catches ValueError only around its file loaders and the --lambda
    # and ``pna a`` parsers (calls to Fraction), and TypeError or KeyError
    # nowhere, since the library's JSON readers check every shape themselves
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    caught = []
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Try):
                continue
            names = {sub.id for handler in node.handlers if handler.type
                     for sub in ast.walk(handler.type)
                     if isinstance(sub, ast.Name)}
            if names & {"TypeError", "KeyError"}:
                caught.append(f"{func.name} (line {node.lineno})")
            if not names & {"ValueError", "TypeError", "KeyError"}:
                continue
            calls = set(_called_names(node.body))
            if not (func.name.startswith("_load_")
                    or calls <= {"Fraction", "split"}):
                caught.append(f"{func.name} (line {node.lineno})")
    assert not caught, f"cli.py catches library errors itself: {caught}"
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    imported = {name for name, _ in _imported_names(tree)}
    gone = {"_CliInputError", "_check_width", "_check_float_range",
            "_solver_options", "_as_width", "_fits_float", "_support_index"}
    assert not (defined | imported) & gone


def _attribute_sites(attr):
    """``(module, line)`` of each ``numbers.<attr>`` in the package."""
    return [(path.name, node.lineno) for path in MODULES
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == attr
            and getattr(node.value, "id", None) == "numbers"]


@pytest.mark.parametrize("attr, reader", [("Rational", "_as_rational"),
                                          ("Real", "_as_tol")])
def test_one_reader_per_kind_of_number(attr, reader):
    # a rational argument is read by symcore._as_rational, a tolerance by
    # symcore._as_tol; no other module imports numbers
    importers = [path.name for path in MODULES
                 if "numbers" in {name for name, _ in _imported_names(
                     ast.parse(path.read_text()))}]
    assert importers == ["symcore.py"], importers
    (name, line), = _attribute_sites(attr)
    func, = (func for fname, func, _ in _symcore_functions()
             if fname == reader)
    assert name == "symcore.py" and func.lineno <= line <= func.end_lineno


def test_cli_takes_its_default_tolerances_from_the_library():
    # the psd tolerance is symcore._PSD_TOL_DEFAULT, and --tol and --max-iter
    # of check-fw and soks default to SolverOptions' own defaults
    constants = {node.value for node in ast.walk(
        ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.Constant)}
    assert not constants & {1e-9, 1e-7, 20000}
