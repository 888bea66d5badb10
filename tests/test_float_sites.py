"""Floats enter the library only at output and in the numerical oracles.

Every solve and every Galerkin bound computes in exact arithmetic; float
mode rounds the exact result at output, and only the finite-difference sign
iteration and the grid maximum principle compute in floats, without a mode
switch.  This stdlib ``ast`` check keeps it so: the functions in
``src/sobolev1d`` that name ``FLOAT`` or read a ``.mode`` attribute must be
exactly the allow-list below.  A new one is a second, float code path, or
a mode branch that can no longer be taken.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sobolev1d"

ALLOWED = {
    # the output mode of a solve, and its rounding at output
    "solver.ProblemSpec.__post_init__",
    "solver._round_at_output",
    "cli._resolve_mode",
    "cli._solution_json",
}


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def float_sites(source: str, module: str) -> set:
    """Qualified names of the functions (lambdas as ``<lambda>``) in which
    ``FLOAT`` is read or a ``.mode`` attribute is read."""
    found = set()

    def visit(node, path, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, SCOPES):
                name = getattr(child, "name", "<lambda>")
                is_function = not isinstance(child, ast.ClassDef)
                visit(child, path + [name], in_function or is_function)
                continue
            reads = isinstance(child, (ast.Name, ast.Attribute)) and isinstance(
                child.ctx, ast.Load
            )
            named = (isinstance(child, ast.Name) and child.id == "FLOAT") or (
                isinstance(child, ast.Attribute) and child.attr == "mode"
            )
            if in_function and reads and named:
                found.add(".".join([module, *path]))
            visit(child, path, in_function)

    visit(ast.parse(source), [], False)
    return found


def test_floats_and_modes_are_read_only_where_allowed():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= float_sites(path.read_text(), path.stem)
    assert found == ALLOWED


def test_the_check_sees_functions_methods_and_lambdas():
    source = (
        "FLOAT = 'float'\n"
        "def f(p):\n"
        "    return p.mode\n"
        "def g(mode):\n"
        "    return mode\n"
        "class W:\n"
        "    exact = property(lambda self: self.p.mode == 'exact')\n"
        "    def h(self):\n"
        "        def inner():\n"
        "            return FLOAT\n"
        "        return inner\n"
    )
    assert float_sites(source, "m") == {"m.f", "m.W.<lambda>", "m.W.h.inner"}
