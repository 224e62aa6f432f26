"""The package's public surface: what the bench tracer wraps must exist
after ``import purecomb`` alone, and every public module-level function or
class must have a caller outside the tests.

Both read source with ``ast`` and import nothing from ``bench/``.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "purecomb"


def _wrapped():
    """``WRAPPED`` of ``bench/tracer.py``: module name -> function names."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["WRAPPED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py binds no WRAPPED")


WRAPPED = _wrapped()

# Names with no caller in src/, bench/ or tools/ that the package keeps.
KEPT = {f"{mod}.{fn}": "looked up by name in bench/tracer.py WRAPPED"
        for mod, fns in WRAPPED.items() for fn in fns}


def _bench_imports():
    """The ``purecomb.<module>`` names the bench files import themselves."""
    found = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(a.name for a in node.names if a.name.startswith("purecomb."))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("purecomb."):
                found.add(node.module)
    return sorted(found)


def test_tracer_names_resolve_after_package_import():
    """``tracer.install()`` looks each WRAPPED module up in ``sys.modules``:
    ``import purecomb`` plus the bench's own ``purecomb.<module>`` imports
    (``io`` and ``cli`` are not loaded by the package) must load every one,
    with every listed function, in a fresh interpreter."""
    probe = (
        "import importlib, json, sys\n"
        "import purecomb\n"
        f"for name in {_bench_imports()!r}:\n"
        "    importlib.import_module(name)\n"
        f"wrapped = {WRAPPED!r}\n"
        "missing = [f'{m}.{f}' for m, fns in wrapped.items() for f in fns\n"
        "           if f'purecomb.{m}' not in sys.modules\n"
        "           or not callable(getattr(sys.modules[f'purecomb.{m}'], f, None))]\n"
        "print(json.dumps(missing))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert json.loads(out.stdout) == []


def _referenced(tree, skip=None):
    """Every name, attribute and imported name used in ``tree``, outside
    the node ``skip``."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    """A public module-level def or class must be used by package code
    other than itself (``__init__`` does not count), by ``bench/`` or by
    ``tools/``, or sit on ``KEPT`` with its reason."""
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
               if p.stem != "__init__"}
    outside = set()
    for path in sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py")):
        outside |= _referenced(ast.parse(path.read_text()))
    users = {name: _referenced(tree) for name, tree in modules.items()}
    unused = []
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            used = (node.name in outside or node.name in _referenced(tree, skip=node)
                    or any(node.name in refs for other, refs in users.items() if other != mod))
            if not used and f"{mod}.{node.name}" not in KEPT:
                unused.append(f"{mod}.{node.name}")
    assert unused == []


def test_kept_names_exist():
    for key in KEPT:
        mod, name = key.split(".")
        assert any(isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == name
                   for n in ast.parse((SRC / f"{mod}.py").read_text()).body), key
