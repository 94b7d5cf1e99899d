"""Source hygiene that no installed linter checks: every name a module of
the package imports is read somewhere in that module, and only the modules
that make thresholds read the raw tolerance eps."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ocpoly"


def unused_imports(tree: ast.Module) -> list:
    """(line, name) of each imported name the module never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unused_imports_are_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport re as regex\n"
                     "from math import pi, tau\nprint(tau, os.sep)\n")
    assert unused_imports(tree) == [(3, "regex"), (4, "pi")]


def test_every_import_is_read():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in unused_imports(ast.parse(path.read_text()))]
    assert found == []


EPS_READERS = ("scalars.py", "cli.py")


def tolerance_leaks(tree: ast.Module) -> list:
    """(line, what) of each read of an ``.eps`` attribute, and of an
    ``is_zero`` defined on ``Field``: thresholds come from the named
    properties of ``Field``, and is_zero() means exactly zero."""
    found = [(n.lineno, ".eps") for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr == "eps"
             and isinstance(n.ctx, ast.Load)]
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and cls.name == "Field":
            for n in cls.body:
                bound = [n.name] if isinstance(n, ast.FunctionDef) else \
                    [t.id for t in getattr(n, "targets", [])
                     if isinstance(t, ast.Name)]
                if "is_zero" in bound:
                    found.append((n.lineno, "Field.is_zero"))
    return sorted(found)


def test_tolerance_leaks_are_found():
    tree = ast.parse("class Field:\n    eps = 1e-9\n"
                     "    def is_zero(self, a):\n"
                     "        return abs(a) <= self.eps\n"
                     "def close(x, y, fld):\n"
                     "    return abs(x - y) <= fld.eps\n"
                     "class Other:\n    is_zero = None\n")
    assert tolerance_leaks(tree) == [(3, "Field.is_zero"), (4, ".eps"),
                                     (6, ".eps")]
    tree = ast.parse("class Field:\n    is_zero = staticmethod(abs)\n")
    assert tolerance_leaks(tree) == [(2, "Field.is_zero")]


def test_eps_is_read_only_where_thresholds_are_made():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(SRC.glob("*.py"))
             for line, what in tolerance_leaks(ast.parse(path.read_text()))
             if what != ".eps" or path.name not in EPS_READERS]
    assert found == []
