"""Every library module other than ``__init__`` uses each name it imports.

No linter runs on this code base, so this stdlib ``ast`` check stands in for
pyflakes' F401: a name imported into ``src/sobolev1d/<module>.py`` must be
read somewhere in that module, in code or in a string annotation.  An
import kept on purpose, say a name a profiler patches, is marked
``# noqa: F401`` on its line.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sobolev1d"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotation_names(node) -> set:
    """Names inside string annotations such as ``"Polynomial | None"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval")) if isinstance(n, ast.Name)}
    return set()


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.append((alias.lineno, name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    assert unused_imports((SRC / module).read_text()) == [], module


def test_the_check_sees_unused_and_marked_imports():
    source = (
        "from math import comb, gcd\n"
        "from decimal import (\n"
        "    Decimal,\n"
        "    Context,  # noqa: F401\n"
        ")\n"
        "import os.path\n"
        "def f(x: 'Decimal') -> int:\n"
        "    return comb(x, 2)\n"
    )
    assert unused_imports(source) == [(1, "gcd"), (6, "os")]
