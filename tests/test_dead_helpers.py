"""Every private helper in the library is read by the library.

A function or method of ``src/sobolev1d`` whose name starts with a single
``_`` is an implementation detail, so nothing outside the package should
need it: if no module of the package reads its name (as a plain name or as
an attribute) outside its own body, it is dead code, kept alive at most by a
test.  Dunder methods are the interpreter's and are not checked.  This stdlib
``ast`` check stands in for a dead-code linter, in the style of
``test_unused_imports.py``.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sobolev1d"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _reads(root) -> Counter:
    """How often each name is read under root, as a plain name or as an
    attribute."""
    out = Counter()
    for node in ast.walk(root):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
    return out


def dead_helpers(sources: dict) -> list:
    """(module, line, name) of each private function or method that no
    module in ``sources`` (name -> source text) reads outside its own body."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum((_reads(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_private(node.name):
                if total[node.name] == _reads(node)[node.name]:
                    dead.append((module, node.lineno, node.name))
    return sorted(dead)


def test_every_private_helper_is_read_in_the_library():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert dead_helpers(sources) == []


def test_the_check_sees_dead_and_self_recursive_helpers():
    sources = {
        "a.py": (
            "def _used(x):\n"
            "    return x\n"
            "def _dead():\n"
            "    return 1\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "class C:\n"
            "    def _method(self):\n"
            "        return 2\n"
            "    def _orphan(self):\n"
            "        return 3\n"
            "    def __repr__(self):\n"
            "        return 'C'\n"
        ),
        "b.py": (
            "from a import _used\n"
            "def public(c):\n"
            "    return _used(c._method())\n"
        ),
    }
    assert dead_helpers(sources) == [
        ("a.py", 3, "_dead"),
        ("a.py", 5, "_recursive"),
        ("a.py", 10, "_orphan"),
    ]
