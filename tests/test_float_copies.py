"""Float output rounds exact values, not coefficients.

A solution keeps u and u^(k) exact in both modes, and a float sampled from
a piecewise u is the rounding of the exact value.  A float copy of a polynomial, with
coefficients rounded first, gives values that cancellation ruins at high
degree (u(1/2) = -853.05 for a uniform weight at k = 40, where the exact
value is 7.2031581806864855).  This stdlib ``ast`` check keeps such a copy
from coming back: no ``to_float`` is defined in ``src/sobolev1d``, and the
rounded coefficients ``float_coeffs`` are read only by the two samplers
below, of weights for the numerical oracles and of a ``pow:`` extremizer's
polynomial part.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sobolev1d"

ALLOWED_COEFFICIENT_READERS = {
    # Horner over rounded coefficients: eval_weight, and the pow: samples
    # of PolyPlusPower
    "polynomials.Polynomial.eval_float",
    # the grid sampler of weights in the finite-difference oracles
    "polynomials.pp_values_at",
}

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def float_copy_sites(source: str, module: str) -> tuple[set, set]:
    """(qualified names defining ``to_float``, qualified names of the
    functions, lambdas as ``<lambda>``, that read ``.float_coeffs``)."""
    defines, reads = set(), set()

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, SCOPES):
                name = getattr(child, "name", "<lambda>")
                if name == "to_float":
                    defines.add(".".join([module, *path, name]))
                visit(child, path + [name])
                continue
            stores = isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store)
            if stores and child.id == "to_float":
                defines.add(".".join([module, *path, "to_float"]))
            if (
                isinstance(child, ast.Attribute)
                and child.attr == "float_coeffs"
                and isinstance(child.ctx, ast.Load)
            ):
                reads.add(".".join([module, *path]))
            visit(child, path)

    visit(ast.parse(source), [])
    return defines, reads


def test_no_float_copy_and_coefficients_rounded_only_for_weight_samples():
    defines, reads = set(), set()
    for path in sorted(SRC.glob("*.py")):
        d, r = float_copy_sites(path.read_text(), path.stem)
        defines |= d
        reads |= r
    assert defines == set()
    assert reads == ALLOWED_COEFFICIENT_READERS


def test_the_check_sees_definitions_methods_and_lambdas():
    source = (
        "def to_float(p):\n"
        "    return p.float_coeffs()\n"
        "class P:\n"
        "    def to_float(self):\n"
        "        return [c for c in self.float_coeffs()]\n"
        "    rounded = property(lambda self: self.float_coeffs)\n"
        "    def float_coeffs(self):\n"
        "        return []\n"
        "class Q:\n"
        "    to_float = P.to_float\n"
        "def reads_coeffs_only(p):\n"
        "    return p.coeffs\n"
    )
    defines, reads = float_copy_sites(source, "m")
    assert defines == {"m.to_float", "m.P.to_float", "m.Q.to_float"}
    assert reads == {"m.to_float", "m.P.to_float", "m.P.<lambda>"}
