"""The numerator codec has one writer and one reader.

``Polynomial`` keeps its integer numerators as ``marshal.dumps(nums, 2)``
bytes, and ``==`` and ``hash`` compare those bytes.  That is sound only if
each value has one encoding: version 2 writes none of the back-references
that version 3 and later add, so ``dumps((a, a), 4)`` differs from
``dumps((a, b), 4)`` for two equal but distinct ints while version 2 gives
equal bytes.  This stdlib ``ast`` check keeps the codec in
``polynomials._store`` and ``Polynomial.nums`` and every ``dumps`` call on
the literal version 2.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sobolev1d"

ALLOWED = {
    "polynomials.<import>",
    "polynomials._store",
    "polynomials.Polynomial.nums",
}

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def codec_sites(source: str, module: str) -> tuple[set, list]:
    """The qualified names of the scopes that read ``marshal`` (imports
    named ``<import>``), and the ``marshal.dumps`` calls, as source text,
    that do not pass the literal version 2 as their second argument."""
    found, bad_dumps = set(), []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, SCOPES):
                visit(child, path + [getattr(child, "name", "<lambda>")])
                continue
            if (
                isinstance(child, ast.Import)
                and any(alias.name == "marshal" for alias in child.names)
            ) or (isinstance(child, ast.ImportFrom) and child.module == "marshal"):
                found.add(".".join([module, *path, "<import>"]))
            if isinstance(child, ast.Name) and child.id == "marshal":
                if isinstance(child.ctx, ast.Load):
                    found.add(".".join([module, *path]))
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "dumps"
                and isinstance(child.func.value, ast.Name)
                and child.func.value.id == "marshal"
            ):
                version = child.args[1] if len(child.args) == 2 else None
                if child.keywords or not (
                    isinstance(version, ast.Constant) and version.value == 2
                ):
                    bad_dumps.append(ast.unparse(child))
            visit(child, path)

    visit(ast.parse(source), [])
    return found, bad_dumps


def test_marshal_is_read_only_by_the_codec_and_at_version_2():
    found, bad_dumps = set(), []
    for path in sorted(SRC.glob("*.py")):
        sites, bad = codec_sites(path.read_text(), path.stem)
        found |= sites
        bad_dumps += bad
    assert found == ALLOWED
    assert bad_dumps == []


def test_the_check_sees_reads_imports_and_versions():
    source = (
        "import marshal\n"
        "def f(t):\n"
        "    from marshal import loads\n"
        "    return marshal.dumps(t, 2)\n"
        "class P:\n"
        "    def g(self):\n"
        "        return marshal.dumps(self.t)\n"
        "    h = property(lambda self: marshal.dumps(self.t, version=2))\n"
        "def j(t, v=4):\n"
        "    return marshal.dumps(t, v)\n"
    )
    found, bad = codec_sites(source, "m")
    assert found == {
        "m.<import>", "m.f.<import>", "m.f", "m.P.g", "m.P.<lambda>", "m.j"
    }
    assert bad == [
        "marshal.dumps(self.t)",
        "marshal.dumps(self.t, version=2)",
        "marshal.dumps(t, v)",
    ]

