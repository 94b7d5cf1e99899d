"""Source hygiene that no installed linter checks: every name a module of
the package imports is read somewhere in that module, only the modules
that make thresholds read the raw tolerance eps, only algebra.py touches
the integers of exact elements, the scalar mode is read outside
scalars.py only where an element's class is picked and by the sphere rule
of roots._whole_class, every name of the package that the benchmark in
perfbench/ calls or traces exists, and no module names numpy.polynomial."""

import ast
import importlib
import re
from collections import Counter
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


INTEGER_ATTRS = {"num", "den", "int_terms", "int_norm_diag", "_norm_num"}


def integer_reads(tree: ast.Module) -> list:
    """(line, name) of each read of an exact element's integers: the
    attributes INTEGER_ATTRS, and the constructor _exact, read as a name
    or imported."""
    found = [(n.lineno, "." + n.attr) for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and n.attr in INTEGER_ATTRS
             and isinstance(n.ctx, ast.Load)]
    found += [(n.lineno, n.id) for n in ast.walk(tree)
              if isinstance(n, ast.Name) and n.id == "_exact"
              and isinstance(n.ctx, ast.Load)]
    found += [(n.lineno, a.name) for n in ast.walk(tree)
              if isinstance(n, ast.ImportFrom) for a in n.names
              if a.name == "_exact"]
    return sorted(found)


def test_integer_reads_are_found():
    tree = ast.parse("from .algebra import _exact, combination\n"
                     "def f(x, t):\n"
                     "    return _exact(x.params, x.den * t.den, x.num)\n"
                     "def g(x):\n"
                     "    return x._norm_num() + x.params.table.int_terms[0]"
                     " + sum(x.params.table.int_norm_diag)\n"
                     "numerator = denominator = x.numerator\n")
    assert integer_reads(tree) == [
        (1, "_exact"), (3, ".den"), (3, ".den"), (3, ".num"), (3, "_exact"),
        (5, "._norm_num"), (5, ".int_norm_diag"), (5, ".int_terms")]


def test_only_algebra_reads_exact_integers():
    """README: the integer arithmetic of exact mode lives in algebra.py;
    other modules work on elements through its operations."""
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(SRC.glob("*.py")) if path.name != "algebra.py"
             for line, what in integer_reads(ast.parse(path.read_text()))]
    assert found == []


def mode_reads(tree: ast.Module, module: str) -> list:
    """(line, where, what) of each read of the scalar mode: an ``.exact``
    attribute loaded outside scalars.py, and the name ExactOctonion read
    or imported outside algebra.py; where is the qualified name of the
    enclosing function or class, "<module>" at the top level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "exact" \
                    and isinstance(child.ctx, ast.Load) \
                    and module != "scalars.py":
                found.append((child.lineno, where, ".exact"))
            if isinstance(child, ast.Name):
                names = [child.id]
            elif isinstance(child, ast.Attribute):
                names = [child.attr]
            elif isinstance(child, ast.ImportFrom):
                names = [a.name for a in child.names]
            else:
                names = []
            if "ExactOctonion" in names and module != "algebra.py":
                found.append((child.lineno, where, "ExactOctonion"))
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = child.name if where == "<module>" \
                    else f"{where}.{child.name}"
            visit(child, inner)

    visit(tree, "<module>")
    return sorted(found)


def test_mode_reads_are_found():
    tree = ast.parse("from .algebra import ExactOctonion\n"
                     "class Octonion:\n"
                     "    def make(cls, params):\n"
                     "        return params.field.exact\n"
                     "def f(x, alg):\n"
                     "    x.exact = isinstance(x, alg.ExactOctonion)\n"
                     "    return x.params.field.exact or ExactOctonion\n")
    assert mode_reads(tree, "roots.py") == [
        (1, "<module>", "ExactOctonion"), (4, "Octonion.make", ".exact"),
        (6, "f", "ExactOctonion"), (7, "f", ".exact"),
        (7, "f", "ExactOctonion")]
    assert mode_reads(tree, "algebra.py") == [
        (4, "Octonion.make", ".exact"), (7, "f", ".exact")]
    assert [w for _, w, _ in mode_reads(tree, "scalars.py")] == [
        "<module>", "f", "f"]


# Where the mode may be read outside scalars.py, and how often: the choice
# of an element's class, and the one rule that differs by mode beyond an
# element or a scalar (exact mode asks G = 0 of a sphere, real mode bounds
# |E| s + |G| by witness_tol sum_t |a_t| s^t).
MODE_READERS = {("algebra.py", "Octonion.__init__"): 1,
                ("algebra.py", "Octonion.make"): 2,
                ("algebra.py", "_product_table"): 1,
                ("roots.py", "_whole_class"): 2}


def test_mode_is_read_only_where_it_is_the_rule():
    """README: Field methods carry the scalar rules that differ by mode and
    ExactOctonion overrides the element rules, so no call site asks for
    the mode; ExactOctonion is not named outside algebra.py either."""
    found = [(path.name, where, what) for path in sorted(SRC.glob("*.py"))
             for _, where, what in mode_reads(ast.parse(path.read_text()),
                                              path.name)]
    assert [f for f in found if f[2] != ".exact"] == []
    counts = Counter((module, where) for module, where, _ in found)
    assert {k: n for k, n in counts.items()
            if n > MODE_READERS.get(k, 0)} == {}
    assert sum(counts.values()) <= 6


PERFBENCH = SRC.parent.parent / "perfbench"


def dotted(node) -> list:
    """['A', 'Octonion', 'make'] for the expression A.Octonion.make, [] for
    an expression that is not a chain of names."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return head + [node.attr] if head else []
    return []


def perfbench_names() -> list:
    """(module, dotted name) of each ocpoly name perfbench uses: the TARGETS
    that its tracer wraps, and each attribute chain on the ocpoly modules
    that its workloads import, read from the two files' syntax trees."""
    spans = ast.parse((PERFBENCH / "spans.py").read_text())
    (targets,) = [n.value for n in spans.body if isinstance(n, ast.Assign)
                  and dotted(n.targets[0]) == ["TARGETS"]]
    names = set()
    for entry in targets.elts:
        _, module, cls, attr = (ast.literal_eval(e) for e in entry.elts[:4])
        names.add((module, attr if cls is None else f"{cls}.{attr}"))
    workloads = ast.parse((PERFBENCH / "workloads.py").read_text())
    aliases = {n.targets[0].id: ast.literal_eval(n.value.args[0])
               for n in workloads.body if isinstance(n, ast.Assign)
               and isinstance(n.value, ast.Call)
               and dotted(n.value.func)[-1:] == ["import_module"]}
    for node in ast.walk(workloads):
        chain = dotted(node)
        if len(chain) > 1 and chain[0] in aliases:
            names.add((aliases[chain[0]], ".".join(chain[1:])))
    return sorted(names)


def test_perfbench_names_resolve():
    """Every ocpoly name the benchmark calls or traces exists, looked up in
    its owner's own namespace as the tracer does, so a rename that would
    break a benchmark run fails here first."""
    names = perfbench_names()
    assert len(names) >= 30
    assert {m for m, _ in names} == {"ocpoly." + m for m in (
        "algebra", "dynamics", "errors", "opoly", "render", "roots",
        "scalars")}
    missing = []
    for module, name in names:
        owner = importlib.import_module(module)
        for part in name.split("."):
            owner = vars(owner).get(part)
            if owner is None:
                missing.append(f"{module}:{name}")
                break
    assert missing == []


def test_no_numpy_polynomial():
    """README: one polynomial type, CentralPoly, serves the solver, its
    derivatives and its stop test; no module names numpy's."""
    pattern = re.compile(r"\b(np|numpy)\.polynomial\b"
                         r"|from numpy import .*\bpolynomial\b")
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted(SRC.glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line)]
    assert found == []
