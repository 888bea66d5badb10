"""The library's value records, built by ``scalars.record``.

Each keeps what its former dataclass gave: positional and keyword
construction with defaults, ``__post_init__`` validation and coercion,
equality by exact type and field values, hashing and refused assignment when
frozen, and a field-listing repr.
"""

import pytest
from fractions import Fraction as F

from sobolev1d.closed_forms import HardyExtremizer
from sobolev1d.oracles import GalerkinConfig, OracleReport
from sobolev1d.polynomials import PiecewisePolynomial, Polynomial
from sobolev1d.quadrature import QuadratureResult
from sobolev1d.scalars import EXACT, record
from sobolev1d.solver import (
    DerivativeSeeds,
    ExtremalSolution,
    LinearSystem,
    PolyPlusPower,
    ProblemSpec,
    SolveDiagnostics,
    build_matrix,
)
from sobolev1d.weights import (
    DiracWeight,
    HardyWeight,
    IndicatorWeight,
    MomentVector,
    PiecewiseWeight,
    PolyWeight,
    PowerLawTerm,
    PowerWeight,
    WeightDomainError,
)

PW = PiecewisePolynomial([F(0), F(1, 2), F(1)], [Polynomial([1]), Polynomial([2])])
PW_NEGATIVE = PiecewisePolynomial([F(0), F(1, 2), F(1)], [Polynomial([1]), Polynomial([-1])])
MOMENTS = MomentVector(2, (4, 3), 12)

# class, field names in order, two unequal argument tuples, defaults
# (field -> value), and arguments __post_init__ rejects (with the error)
CASES = [
    (PolyWeight, ("poly",), (Polynomial([1, 1]),), (Polynomial([2]),), {},
     ((Polynomial([-1]),), WeightDomainError)),
    (PiecewiseWeight, ("pp",), (PW,), (PW.scale(F(2)),), {},
     ((PW_NEGATIVE,), WeightDomainError)),
    (IndicatorWeight, ("a", "b"), (F(1, 4), F(3, 4)), (F(0), F(1, 2)), {},
     ((F(3, 4), F(1, 4)), WeightDomainError)),
    (DiracWeight, ("a",), (F(1, 3),), (F(1, 2),), {}, ((F(1),), WeightDomainError)),
    (PowerWeight, ("alpha",), (F(1, 2),), (F(0),), {}, ((F(1),), WeightDomainError)),
    (HardyWeight, ("order",), (1,), None, {}, ((2,), WeightDomainError)),
    (MomentVector, ("k", "nums", "den"), (2, (1, 2), 1), (1, (1,), 1), {},
     ((2, (1,), 1), ValueError)),
    (PowerLawTerm, ("coefficient", "exponent"), (F(1, 2), F(3, 2)), (F(1), F(3, 2)), {},
     None),
    (ProblemSpec, ("k", "rho", "mode"), (2, DiracWeight(F(1, 3))), (1, DiracWeight(F(1, 3))),
     {"mode": EXACT}, ((0, DiracWeight(F(1, 3))), ValueError)),
    (LinearSystem, ("matrix", "moments"), (build_matrix(2), MOMENTS),
     (build_matrix(2), MomentVector(2, (1, 0), 1)), {}, None),
    (DerivativeSeeds, ("k", "nums", "den"), (2, (1, 2), 1), (2, (1, 3), 1), {}, None),
    (SolveDiagnostics,
     ("boundary_residual", "normalization_residual", "min_interior_value",
      "positivity_certified", "closed_form_mu_checked", "pointload_candidate_deviation"),
     (), (1.0,),
     {"boundary_residual": 0.0, "normalization_residual": 0.0, "min_interior_value": None,
      "positivity_certified": None, "closed_form_mu_checked": False,
      "pointload_candidate_deviation": None},
     None),
    (PolyPlusPower, ("poly", "term"), (Polynomial([1]), PowerLawTerm(F(1), F(1, 2))),
     (Polynomial([2]), PowerLawTerm(F(1), F(1, 2))), {}, None),
    # diagnostics None: a SolveDiagnostics is mutable, so unhashable
    (ExtremalSolution,
     ("spec", "mu", "lam", "seeds", "u", "u_k", "diagnostics", "method"),
     (ProblemSpec(1, DiracWeight(F(1, 2))), F(4), 0.5, None, PW, PW, None, "pipeline"),
     (ProblemSpec(1, DiracWeight(F(1, 2))), F(4), 0.5, None, PW, PW, None, "closed_form"),
     {}, None),
    (GalerkinConfig, ("degree",), (4,), (5,), {}, ((-1,), ValueError)),
    (OracleReport,
     ("method", "lambda_estimate", "history", "sign_definite", "details"),
     ("galerkin",), ("galerkin", 0.5),
     {"lambda_estimate": None, "history": [], "sign_definite": None, "details": {}},
     None),
    (QuadratureResult, ("value", "error", "intervals"), (1.0, 1e-12, 3), (1.0, 1e-12, 4),
     {}, None),
    (HardyExtremizer, (), (), None, {}, None),
]
MUTABLE = {SolveDiagnostics, OracleReport}
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, args, other, defaults, bad", CASES, ids=IDS)
def test_record_construction_and_defaults(cls, names, args, other, defaults, bad):
    assert "__dataclass_fields__" not in vars(cls)  # no generated code
    obj = cls(*args)
    assert cls(**dict(zip(names, args))) == obj
    for name, value in zip(names, args):
        assert getattr(obj, name) == value
    for name, value in defaults.items():
        assert getattr(obj, name) == value
    assert len(args) + len(defaults) == len(names)
    with pytest.raises(TypeError):
        cls(*args, *[None] * (len(names) - len(args) + 1))
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    if args:
        with pytest.raises(TypeError):
            cls(*args, **{names[0]: args[0]})
        if not defaults:
            with pytest.raises(TypeError):
                cls(*args[:-1])


@pytest.mark.parametrize("cls, names, args, other, defaults, bad", CASES, ids=IDS)
def test_record_equality_hash_and_repr(cls, names, args, other, defaults, bad):
    obj = cls(*args)
    assert obj == cls(*args)
    if other is not None:
        assert obj != cls(*other)

    class Sub(cls):
        pass

    assert obj != Sub(*args)  # equality needs the exact same class
    assert obj != tuple(getattr(obj, name) for name in names)
    fields = ", ".join(f"{name}={getattr(obj, name)!r}" for name in names)
    assert repr(obj) == f"{cls.__qualname__}({fields})"
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(cls(*args))


@pytest.mark.parametrize("cls, names, args, other, defaults, bad", CASES, ids=IDS)
def test_record_assignment_and_post_init(cls, names, args, other, defaults, bad):
    obj = cls(*args)
    target = names[0] if names else "anything"
    if cls in MUTABLE:
        setattr(obj, target, 7)
        assert getattr(obj, target) == 7
    else:
        with pytest.raises(AttributeError):
            setattr(obj, target, 7)
        with pytest.raises(AttributeError):
            delattr(obj, target)
        assert obj == cls(*args)
    if bad is not None:
        bad_args, error = bad
        with pytest.raises(error):
            cls(*bad_args)


def test_record_post_init_coerces_fields():
    chi = IndicatorWeight(0, 1)
    assert type(chi.a) is F and type(chi.b) is F
    assert type(DiracWeight(0.5).a) is F
    assert type(PowerWeight(0).alpha) is F


def test_oracle_reports_get_a_fresh_list_and_dict():
    first, second = OracleReport("galerkin"), OracleReport("galerkin")
    first.history.append((0, 1.0))
    first.details["degree"] = 3
    assert second.history == [] and second.details == {}
    assert "history" not in vars(OracleReport)  # no shared class-level default


def test_record_keeps_class_attributes_and_methods():
    @record
    class Pair:
        left: int
        right: int = 2
        kind = "pair"  # not annotated: no field

        def total(self):
            return self.left + self.right

    assert Pair(1).total() == 3
    assert Pair(1).kind == "pair"
    assert repr(Pair(1)) == "test_record_keeps_class_attributes_and_methods.<locals>.Pair(left=1, right=2)"
    assert Pair.__init__.__qualname__.endswith("Pair.__init__")
