"""Every name a library module imports is used in that module.

A stdlib stand-in for a linter's unused-import rule (F401), so that a
deletion cannot leave an import behind.  `__init__.py` re-exports by
importing and is skipped.  No import is exempt: one kept only so that
another module can patch or trace it must go.
Likewise every module-level private function, class and constant is loaded,
by name or as an attribute, somewhere in the package besides its own
definition, so that a deletion cannot leave a helper behind.  Every
import is relative or names a standard-library module, so the runtime
stays pure stdlib.  And the command line reads its flags without
importing argparse.  Only diagonal_seminorm and the seminorm builders
construct a seminorm, and only seminorm._group_matrix reads a group
element: building hands no chart's or action's matrix to `mat`.  Only
arith._rational tests `type(x) is Fraction` to take an entry as it is, so
that every other reader goes through it.  Only apartment._piece copies a
piece or tests the types of its entries, and only it refuses an entry.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "padicbuilding"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_library_has_modules():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def test_an_unused_import_is_caught(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\nfrom math import (\n    ceil,\n    floor,\n)\n"
                    "\n"
                    "def f(x: floor) -> int:\n    return x\n", encoding="utf-8")
    assert _unused_imports(path) == [(1, "os"), (3, "ceil")]


def _non_stdlib_imports(path):
    """(line, module) of each absolute import whose top package is not in the standard library."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_relative_or_stdlib(path):
    assert _non_stdlib_imports(path) == []


def test_a_non_stdlib_import_is_caught(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\nimport numpy as np, json\nfrom . import arith\n"
                    "from .errors import DomainError\nfrom sympy.core import Rational\n"
                    "\n"
                    "def f():\n    import hypothesis\n", encoding="utf-8")
    assert _non_stdlib_imports(path) == [(3, "numpy"), (6, "sympy.core"), (9, "hypothesis")]


def _dead_private_helpers(paths):
    """(file, line, name) of each module-level private def, class or assignment
    that no other top-level statement of the package loads."""
    defined, statements = [], []
    for path in paths:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for t in targets for node in ast.walk(t)
                         if isinstance(node, ast.Name)]
            else:
                names = []
            defined += [(path.name, stmt.lineno, name, stmt) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            loads = [node for node in ast.walk(stmt)
                     if isinstance(getattr(node, "ctx", None), ast.Load)]
            statements.append((stmt, {node.id for node in loads if isinstance(node, ast.Name)}
                               | {node.attr for node in loads if isinstance(node, ast.Attribute)}))
    return sorted((file, line, name) for file, line, name, stmt in defined
                  if not any(name in refs for other, refs in statements if other is not stmt))


def test_every_private_helper_is_referenced():
    assert _dead_private_helpers(sorted(SRC.glob("*.py"))) == []


def test_a_dead_private_helper_is_caught(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("_LIMIT = 3\n_SPARE: int = 4\n__all__ = []\n\n"
                 "def _used(x):\n    return x + _LIMIT\n\n"
                 "def _recursive(x):\n    return _recursive(x - 1) if x else 0\n\n"
                 "def _dead():\n    return 1\n\n"
                 "def _by_attribute():\n    return 2\n\n"
                 "class _Spare:\n    pass\n\nclass _Kept:\n    pass\n\n_STORED = 0\n",
                 encoding="utf-8")
    b.write_text("from . import a\nfrom .a import _used\n\n"
                 "def public(x):\n    a._STORED = x\n"
                 "    return _used(x) + a._by_attribute(), a._Kept()\n", encoding="utf-8")
    assert _dead_private_helpers([a, b]) == [("a.py", 2, "_SPARE"), ("a.py", 8, "_recursive"),
                                             ("a.py", 11, "_dead"), ("a.py", 17, "_Spare"),
                                             ("a.py", 23, "_STORED")]


def _top_level_calls(path):
    """(top-level statement, callee) of each call by name or by module attribute in the file;
    the callee is dotted as it was imported."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {}      # local name -> dotted name it was imported as
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update({a.asname or a.name: f"{node.module or ''}.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):
            names.update({a.asname or a.name: a.name for a in node.names})
    for stmt in tree.body:
        for node in ast.walk(stmt):
            func = getattr(node, "func", None)
            if isinstance(func, ast.Name):
                yield stmt, names.get(func.id, func.id)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                yield stmt, f"{names.get(func.value.id, func.value.id)}.{func.attr}"


def _seminorm_builds(paths):
    """(module, top-level def, callee) of each call to DiagonalSeminorm or dataclasses.replace,
    and of each call in seminorm to reduced_echelon or mat_det, which decide a kernel basis."""
    found = []
    for path in paths:
        for stmt, callee in _top_level_calls(path):
            kind = callee if callee == "dataclasses.replace" else callee.split(".")[-1]
            if kind in ("dataclasses.replace", "DiagonalSeminorm") or \
                    path.stem == "seminorm" and kind in ("reduced_echelon", "mat_det"):
                found.append((path.stem, getattr(stmt, "name", "<module>"), kind))
    return sorted(found)


def test_only_the_seminorm_builders_construct_a_seminorm():
    assert _seminorm_builds(MODULES) == [
        ("seminorm", "canonical_class", "DiagonalSeminorm"),
        ("seminorm", "diagonal_seminorm", "DiagonalSeminorm"),
        ("seminorm", "diagonal_seminorm", "mat_det"),
        ("seminorm", "diagonal_seminorm", "reduced_echelon"),
        ("seminorm", "phi_from_apartment", "DiagonalSeminorm"),
        ("seminorm", "pullback_from_functional", "DiagonalSeminorm"),
        ("seminorm", "scale_seminorm", "dataclasses.replace"),
    ]


def test_a_stray_seminorm_build_is_caught(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import dataclasses\nfrom dataclasses import replace as swap\n"
                    "from . import seminorm\nfrom .seminorm import DiagonalSeminorm\n\n"
                    "def moved(g):\n    return DiagonalSeminorm(g.basis, g.values, g.ctx, g._inv, 0)\n\n"
                    "def scaled(g):\n    return swap(g, values=()), dataclasses.replace(g)\n\n"
                    "class Point:\n    def copy(self, g):\n"
                    "        return seminorm.DiagonalSeminorm(*g), 'ab'.replace('a', 'b')\n\n"
                    "BASE = DiagonalSeminorm((), (), None, ((), 1), 0)\n", encoding="utf-8")
    assert _seminorm_builds([path]) == [("mod", "<module>", "DiagonalSeminorm"),
                                        ("mod", "Point", "DiagonalSeminorm"),
                                        ("mod", "moved", "DiagonalSeminorm"),
                                        ("mod", "scaled", "dataclasses.replace"),
                                        ("mod", "scaled", "dataclasses.replace")]


def test_a_stray_kernel_decision_is_caught(tmp_path):
    # inside seminorm only diagonal_seminorm reduces a kernel or takes a determinant
    seminorm, other = tmp_path / "seminorm.py", tmp_path / "building.py"
    seminorm.write_text("from . import arith\nfrom .arith import mat_det, reduced_echelon as rref\n\n"
                        "def diagonal_seminorm(b):\n    return rref(b), mat_det(b)\n\n"
                        "def kernel_of(g):\n    return rref(g.basis)\n\n"
                        "def _volume(g):\n    return arith.mat_det(g.basis)\n", encoding="utf-8")
    other.write_text("from .arith import mat_det\n\n"
                     "def same_class(m):\n    return mat_det(m) == 0\n", encoding="utf-8")
    assert _seminorm_builds([seminorm, other]) == [("seminorm", "_volume", "mat_det"),
                                                   ("seminorm", "diagonal_seminorm", "mat_det"),
                                                   ("seminorm", "diagonal_seminorm", "reduced_echelon"),
                                                   ("seminorm", "kernel_of", "reduced_echelon")]


GROUP_SHAPE = "group element must be"


def _is_shape_message(node):
    # a string starting GROUP_SHAPE that is not the singular refusal
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and \
        node.value.startswith(GROUP_SHAPE) and node.value != f"{GROUP_SHAPE} invertible"


def _group_element_reads(paths):
    """(module, top-level def, what) of each raise of the group-element shape message, and
    of each call to mat in building or in a def raising that message, so that a group
    element is read once."""
    found = []
    for path in paths:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise) and any(map(_is_shape_message, ast.walk(node))):
                    found.append((path.stem, getattr(stmt, "name", "<module>"), GROUP_SHAPE))
        readers = {name for module, name, _ in found if module == path.stem}
        for stmt, callee in _top_level_calls(path):
            name = getattr(stmt, "name", "<module>")
            if callee.split(".")[-1] == "mat" and (path.stem == "building" or name in readers):
                found.append((path.stem, name, "mat"))
    return sorted(found)


def test_only_the_group_matrix_reads_a_group_element():
    # building's two mat calls build a unipotent and project a plain matrix, not a group element
    assert _group_element_reads(MODULES) == [
        ("building", "sigma_project", "mat"),
        ("building", "sigma_project", "mat"),
        ("building", "unipotent_matrix", "mat"),
        ("seminorm", "_group_matrix", GROUP_SHAPE),
    ]


def test_a_second_group_element_reader_is_caught(tmp_path):
    seminorm, building = tmp_path / "seminorm.py", tmp_path / "building.py"
    seminorm.write_text("from .arith import _exact, mat\n\n"
                        "def _group_matrix(m, n):\n"
                        "    if len(m) != n:\n        raise DomainError(f'group element must be {n}x{n}')\n"
                        "    return mat(_exact(m))\n\n"
                        "def compose_with(g, m):\n"
                        "    raise SingularMatrixError('group element must be invertible')\n\n"
                        "def diagonal_seminorm(basis):\n    return mat(basis)\n",
                        encoding="utf-8")
    building.write_text("from . import arith\nfrom .arith import mat as read\n"
                        "from .seminorm import _group_matrix\n\n"
                        "def _checked(g, n):\n    return read(_group_matrix(g, n))\n\n"
                        "def in_stabilizer_P_x(g, n):\n"
                        "    if len(g) != n:\n        raise DomainError('group element must be square')\n"
                        "    return arith.mat(g)\n", encoding="utf-8")
    assert _group_element_reads([seminorm, building]) == [
        ("building", "_checked", "mat"),
        ("building", "in_stabilizer_P_x", GROUP_SHAPE),
        ("building", "in_stabilizer_P_x", "mat"),
        ("seminorm", "_group_matrix", GROUP_SHAPE),
        ("seminorm", "_group_matrix", "mat"),
    ]


PIECE_REFUSAL = "invalid piece"
PIECE_READS = {"type", "isinstance", "_INT_TYPE", "_sequence"}


def _piece_reads(paths):
    """(module, top-level def, what) of each raise of the piece refusal, and of each type test
    or _sequence call, by name or as an attribute, in a def that raises it or takes an argument
    named piece, so that a piece is read once."""
    found = []
    for path in paths:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(stmt, "name", "<module>")
            raises = [node for node in ast.walk(stmt) if isinstance(node, ast.Raise) and any(
                isinstance(c, ast.Constant) and str(c.value).startswith(PIECE_REFUSAL)
                for c in ast.walk(node))]
            found += [(path.stem, name, PIECE_REFUSAL)] * len(raises)
            args = stmt.args.args if isinstance(stmt, ast.FunctionDef) else []
            if raises or "piece" in [a.arg for a in args]:
                found += [(path.stem, name, read) for node in ast.walk(stmt)
                          for read in [getattr(node, "id", getattr(node, "attr", None))]
                          if read in PIECE_READS]
    return sorted(found)


def test_only_the_piece_reader_reads_a_piece():
    # apartment_point refuses an index below 1 itself, a range check as every caller makes its own
    assert _piece_reads(MODULES) == [
        ("apartment", "_piece", "_INT_TYPE"),
        ("apartment", "_piece", "_sequence"),
        ("apartment", "_piece", PIECE_REFUSAL),
        ("apartment", "_piece", "type"),
        ("apartment", "apartment_point", PIECE_REFUSAL),
    ]


def test_a_second_piece_reader_is_caught(tmp_path):
    apartment, building = tmp_path / "apartment.py", tmp_path / "building.py"
    apartment.write_text("from .arith import _sequence\n\n"
                         "def _piece(piece):\n    piece = tuple(_sequence(piece))\n"
                         "    if not _INT_TYPE.issuperset(map(type, piece)):\n"
                         "        raise DomainError(f'invalid piece {piece}')\n    return piece\n\n"
                         "def apartment_point(piece, exponents):\n"
                         "    piece = tuple(piece if isinstance(piece, str) else _sequence(piece))\n"
                         "    if not all(type(i) is int for i in piece):\n"
                         "        raise DomainError(f'invalid piece {piece}')\n    return piece\n\n"
                         "def monomial_element(perm):\n"
                         "    return [w if type(w) is int else 0 for w in _sequence(perm)]\n",
                         encoding="utf-8")
    building.write_text("from . import arith\n\n"
                        "def sigma_project(g, piece):\n"
                        "    return [i for i in arith._sequence(piece) if type(i) is int]\n\n"
                        "def _refuse(s):\n    raise DomainError('invalid piece ' + repr(s))\n",
                        encoding="utf-8")
    assert _piece_reads([apartment, building]) == [
        ("apartment", "_piece", "_INT_TYPE"),
        ("apartment", "_piece", "_sequence"),
        ("apartment", "_piece", PIECE_REFUSAL),
        ("apartment", "_piece", "type"),
        ("apartment", "apartment_point", "_sequence"),
        ("apartment", "apartment_point", PIECE_REFUSAL),
        ("apartment", "apartment_point", "isinstance"),
        ("apartment", "apartment_point", "type"),
        ("building", "_refuse", PIECE_REFUSAL),
        ("building", "sigma_project", "_sequence"),
        ("building", "sigma_project", "type"),
    ]


def _is_fraction_test(node):
    # type(...) is Fraction or type(...) is not Fraction, with Fraction by name or as an attribute
    return isinstance(node, ast.Compare) and len(node.ops) == 1 and \
        isinstance(node.ops[0], (ast.Is, ast.IsNot)) and isinstance(node.left, ast.Call) and \
        getattr(node.left.func, "id", None) == "type" and \
        "Fraction" in (getattr(node.comparators[0], "id", None),
                       getattr(node.comparators[0], "attr", None))


def _fraction_forks(paths):
    """(module, top-level def) of each `if` or conditional expression testing type(...) is
    Fraction: the fast path that reads a Fraction as it is, which only the reader takes."""
    found = []
    for path in paths:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            found += [(path.stem, getattr(stmt, "name", "<module>")) for node in ast.walk(stmt)
                      if isinstance(node, (ast.If, ast.IfExp)) and _is_fraction_test(node.test)]
    return sorted(found)


def test_only_the_rational_reader_takes_a_fraction_as_it_is():
    assert _fraction_forks(MODULES) == [("arith", "_rational")]


def test_a_stray_fraction_fork_is_caught(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import fractions\nfrom fractions import Fraction\n\n"
                    "def val(c):\n    c = c if type(c) is Fraction else read(c)\n    return c\n\n"
                    "def shift(d):\n    if type(d) is not fractions.Fraction:\n        d = read(d)\n"
                    "    return d\n\n"
                    "class Value:\n    def finite(self, x):\n"
                    "        return [y if type(y) is Fraction else read(y) for y in x]\n\n"
                    "def fine(x):\n    return x if type(x) is int else isinstance(x, Fraction)\n\n"
                    "ZERO = 0 if type(0) is Fraction else Fraction(0)\n", encoding="utf-8")
    assert _fraction_forks([path]) == [("mod", "<module>"), ("mod", "Value"), ("mod", "shift"),
                                       ("mod", "val")]


def test_the_cli_does_not_import_argparse():
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, padicbuilding.cli; print('argparse' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout == "False\n"
