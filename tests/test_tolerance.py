"""One default tolerance: every defaulted ``tol`` in the package and every
CLI ``--tol`` default is the name ``TOL`` (bound in ``spaces``), and no
module binds a second tolerance name."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "purecomb"
MODULES = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}


def _tol_defaults(tree):
    """(line, default) of every defaulted parameter or class field named tol."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            positional = a.posonlyargs + a.args
            pairs = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
            pairs += [(arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            yield from ((d.lineno, d) for arg, d in pairs if arg.arg == "tol")
        elif isinstance(node, ast.ClassDef):
            yield from ((stmt.lineno, stmt.value) for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                        and isinstance(stmt.target, ast.Name) and stmt.target.id == "tol")


def _bound_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            yield node.lineno, node.id
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, ast.arg):
            yield node.lineno, node.arg
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((node.lineno, a.asname or a.name) for a in node.names)


def test_every_tol_default_is_TOL():
    found = {(name, line): ast.unparse(d) for name, tree in MODULES.items()
             for line, d in _tol_defaults(tree)}
    assert found
    assert {k: v for k, v in found.items() if v != "TOL"} == {}


def test_every_cli_tol_default_is_TOL():
    calls = [c for c in ast.walk(MODULES["cli.py"])
             if isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute)
             and c.func.attr == "add_argument" and c.args
             and isinstance(c.args[0], ast.Constant) and c.args[0].value == "--tol"]
    assert calls
    for c in calls:
        defaults = [k.value for k in c.keywords if k.arg == "default"]
        assert [ast.unparse(d) for d in defaults] == ["TOL"], ast.unparse(c)


def test_no_second_tolerance_name():
    others = [(name, line, bound) for name, tree in MODULES.items()
              for line, bound in _bound_names(tree) if "TOL" in bound and bound != "TOL"]
    assert others == []
