"""Every cache in the library is bounded.

A ``functools.lru_cache`` holds its arguments and results for the life of
the process, so each one in ``src/sobolev1d`` must name an integer
``maxsize``; ``functools.cache`` and ``maxsize=None``, which never evict,
must not appear.  This stdlib ``ast`` check stands in for a linter rule, in
the style of ``test_unused_imports.py``.  The Galerkin oracle's Legendre
tables are bounded twice: by the cache's size and by the number of integers
a kept table may hold.
"""

import ast
from pathlib import Path

import pytest

from sobolev1d import oracles
from sobolev1d.oracles import GalerkinConfig, galerkin_lambda
from sobolev1d.solver import ProblemSpec
from sobolev1d.weights import parse_weight

SRC = Path(__file__).resolve().parent.parent / "src" / "sobolev1d"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def unbounded_caches(source: str) -> list:
    """(line, name) of each cache in source that is not given an integer
    maxsize: a bare or unbounded ``lru_cache``, or ``functools.cache``."""
    tree = ast.parse(source)
    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) == "lru_cache":
            sizes = node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "maxsize"]
            if len(sizes) == 1 and isinstance(sizes[0], ast.Constant) and type(sizes[0].value) is int:
                bounded.add(id(node.func))
    found = []
    for node in ast.walk(tree):
        if _name(node) == "lru_cache" and id(node) not in bounded:
            found.append((node.lineno, "lru_cache"))
        elif isinstance(node, ast.Attribute) and node.attr == "cache" and _name(node.value) == "functools":
            found.append((node.lineno, "cache"))
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, "cache") for alias in node.names if alias.name == "cache"]
    return sorted(found)


@pytest.mark.parametrize("module", MODULES)
def test_every_cache_is_bounded(module):
    assert unbounded_caches((SRC / module).read_text()) == [], module


def test_the_check_sees_unbounded_caches():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=8)\n"
        "def a(x): return x\n"
        "@lru_cache(16)\n"
        "def b(x): return x\n"
        "@lru_cache\n"
        "def c(x): return x\n"
        "@lru_cache(maxsize=None)\n"
        "def d(x): return x\n"
        "@functools.lru_cache(None)\n"
        "def e(x): return x\n"
        "@functools.cache\n"
        "def f(x): return x\n"
        "hits = f.cache_info()\n"
    )
    assert unbounded_caches(source) == [
        (2, "cache"),
        (7, "lru_cache"),
        (9, "lru_cache"),
        (11, "lru_cache"),
        (13, "cache"),
    ]


def test_a_legendre_table_above_the_budget_is_not_kept():
    k, N = 12, 120
    assert (N + 1) * (2 * k + N + 2) // 2 > oracles.MAX_TABLE_INTEGERS
    spec = ProblemSpec(k, parse_weight("chi:1/4,3/4"))
    oracles._legendre_table.cache_clear()
    galerkin_lambda(spec, GalerkinConfig(N))
    assert oracles._legendre_table.cache_info().currsize == 0
    galerkin_lambda(spec, GalerkinConfig(24))  # within the budget: kept
    assert oracles._legendre_table.cache_info().currsize == 1
