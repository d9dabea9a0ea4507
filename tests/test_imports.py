"""Every name a library module imports is used in that module.

A stdlib stand-in for a linter's unused-import rule (F401), so that a
deletion cannot leave an import behind.  `__init__.py` re-exports by
importing and is skipped; an import line marked `# noqa: F401` is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "padicbuilding"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
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
                    "from re import compile  # noqa: F401\n\n"
                    "def f(x: floor) -> int:\n    return x\n", encoding="utf-8")
    assert _unused_imports(path) == [(1, "os"), (3, "ceil")]
