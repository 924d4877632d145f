"""Value semantics of the engine's record classes.

Each class is built twice from equal fields.  The two values are equal
(for the interned `JetVar`, one object), they hash equal where the class is
hashable, and `repr` gives the text pinned below.  Frozen classes refuse
assignment; `DerSpec` and `VarietyInput` stay mutable and unhashable.
`JetVar`, `Monomial` and `MonoidElem` keep their total order.  A `Monomial`
is the frozenset of its (variable, exponent) pairs: hash and equality are
the set's, but its order is the term order, never the subset test.
"""

import importlib
import inspect
import operator
import re
from fractions import Fraction

import pytest

from diffalg.algebra import JetVar, Monomial, Poly, solve_affine
from diffalg.axioms import (
    DefinableSetDesc,
    DimensionCertificate,
    TriangularSystem,
    nc_normalize,
    wide_from_deep,
)
from diffalg.config import CommutationCheck, CommutationReport, GFun, RealizeReport, Witness
from diffalg.derivation import DerSpec, Tower, twisted_lift
from diffalg.jet import JetAtom, TAdd, TConst, TDer, TMul, TNeg, TVar
from diffalg.monoid import COMMUTATIVE, FREE, InitialSet, MonoidElem, Record, minimal_leaders
from diffalg.parsing import Token, parse_poly, parse_variety
from diffalg.prolong import VarietyPresentation, reg_rank_at, twisted_bundle

T, X, Y = JetVar("t"), JetVar("x"), JetVar("y")


def e(*exps):
    return MonoidElem(COMMUTATIVE, len(exps), exps)


def word(*letters):
    return MonoidElem(FREE, 2, letters)


def x_at(*exps):
    return JetVar("x", e(*exps))


# class name -> a factory that builds a fresh value of that class each call
SAMPLES = {
    "MonoidElem": lambda: e(1, 0),
    "InitialSet": lambda: InitialSet(FREE, 2, frozenset([word()])),
    "MinimalLeaders": lambda: minimal_leaders(InitialSet(FREE, 1, frozenset([MonoidElem(FREE, 1, ())]))),
    "JetVar": lambda: x_at(0, 2),
    "Monomial": lambda: Monomial.of(x_at(1, 0), 2),
    "AffineSpace": lambda: solve_affine([[1, 0]], [-2]),
    "DerSpec": lambda: DerSpec(eta={T: 1}, images={X: Poly.variable(T)}),
    "TowerStage": lambda: Tower([T], {T: 1}).extend(parse_poly("c^2 - t"), "c").stages[0],
    "LiftResult": lambda: twisted_lift(parse_poly("t*x^2"), DerSpec(eta={T: 1})),
    "TConst": lambda: TConst(Fraction(1, 2)),
    "TVar": lambda: TVar("x"),
    "TAdd": lambda: TAdd(TVar("x"), TConst(Fraction(1))),
    "TMul": lambda: TMul(TVar("x"), TVar("y")),
    "TNeg": lambda: TNeg(TVar("x")),
    "TDer": lambda: TDer(2, TVar("x")),
    "JetAtom": lambda: JetAtom(parse_poly("x - 1"), "!="),
    "GFun": lambda: GFun(parse_poly("x[d2]"), (e(1, 0), e(0, 1))),
    "Witness": lambda: Witness(word(1, 2), e(0, 1), word(2, 1), e(1, 0)),
    "CommutationCheck": lambda: CommutationCheck(e(1, 1), "violation", witness=None, reduced_difference=Poly.const(3)),
    "CommutationReport": lambda: CommutationReport("local", (CommutationCheck(e(1, 0), "commutes", trivial=True),)),
    "RealizeReport": lambda: RealizeReport(False, 2, 3, mismatch=e(0, 1), expected="1", got="2"),
    "DefinableSetDesc": lambda: DefinableSetDesc((X, Y), (JetAtom(parse_poly("x*y - 1"), "="),), (X,)),
    "WideFromDeepResult": lambda: wide_from_deep(
        DefinableSetDesc((X, Y), (JetAtom(parse_poly("y - x^2"), "="),), (X,)), 1
    ),
    "NcNormalizeResult": lambda: nc_normalize(
        InitialSet(FREE, 1, frozenset([MonoidElem(FREE, 1, ())])),
        DefinableSetDesc((JetVar("x", MonoidElem(FREE, 1, ())),), (), ()),
    ),
    "TriangularSystem": lambda: TriangularSystem((T, X), ((X, parse_poly("x^2 - t")),)),
    "DimensionCertificate": lambda: DimensionCertificate(1, (X,), (T,)),
    "Token": lambda: Token("ident", "x", 2, 5),
    "VarietyInput": lambda: parse_variety("x^2 + y^2 - 1\npoint: 1, 0\n"),
    "VarietyPresentation": lambda: VarietyPresentation((X, Y), (parse_poly("x*y - 1"),)),
    "Prolongation": lambda: twisted_bundle(VarietyPresentation((X,), (parse_poly("x^2 - t"),)), DerSpec(eta={T: 1})),
    "RegRank": lambda: reg_rank_at(VarietyPresentation((X, Y), (parse_poly("y - x^2"),)), (1, 1), d=1),
}

# the repr of each sample, as the dataclasses and NamedTuples gave it
REPRS = {
    "AffineSpace": (
        "AffineSpace(n=2, rank=1, consistent=True, particular=(Poly(2), Poly(0)), kernel=((Poly(0), "
        "Poly(1)),))"
    ),
    "CommutationCheck": (
        "CommutationCheck(alpha=MonoidElem(kind='commutative', k=2, data=(1, 1)), status='violation', "
        "trivial=False, witness=None, reduced_difference=Poly(3), point=None)"
    ),
    "CommutationReport": (
        "CommutationReport(kind='local', checks=(CommutationCheck(alpha=MonoidElem(kind='commutative', "
        "k=2, data=(1, 0)), status='commutes', trivial=True, witness=None, reduced_difference=None, "
        "point=None),))"
    ),
    "DefinableSetDesc": (
        "DefinableSetDesc(indices=(JetVar(base='x', index=None), JetVar(base='y', index=None)), "
        "atoms=(JetAtom(poly=Poly(x*y - 1), rel='='),), projection=(JetVar(base='x', index=None),))"
    ),
    "DerSpec": "DerSpec(eta={JetVar(base='t', index=None): Poly(1)}, images={JetVar(base='x', index=None): Poly(t)})",
    "DimensionCertificate": (
        "DimensionCertificate(free_count=1, solve_order=(JetVar(base='x', index=None),), "
        "free_vars=(JetVar(base='t', index=None),))"
    ),
    "GFun": (
        "GFun(value=Poly(x[d2]), witness=(MonoidElem(kind='commutative', k=2, data=(1, 0)), "
        "MonoidElem(kind='commutative', k=2, data=(0, 1))))"
    ),
    "InitialSet": "InitialSet(kind='free', k=2, elements=frozenset({MonoidElem(kind='free', k=2, data=())}))",
    "JetAtom": "JetAtom(poly=Poly(x - 1), rel='!=')",
    "JetVar": "JetVar(base='x', index=MonoidElem(kind='commutative', k=2, data=(0, 2)))",
    "LiftResult": "LiftResult(lift=Poly(2*t*x*y_x + x^2), coeff_only=Poly(x^2))",
    "MinimalLeaders": "MinimalLeaders(elements=frozenset({MonoidElem(kind='free', k=1, data=(1,))}), length_bound=1)",
    "MonoidElem": "MonoidElem(kind='commutative', k=2, data=(1, 0))",
    "Monomial": (
        "Monomial(powers=frozenset({(JetVar(base='x', index=MonoidElem(kind='commutative', k=2, data=(1, "
        "0))), 2)}))"
    ),
    "NcNormalizeResult": (
        "NcNormalizeResult(v_prime=InitialSet(kind='free', k=1, "
        "elements=frozenset({MonoidElem(kind='free', k=1, data=())})), "
        "z_prime=DefinableSetDesc(indices=(JetVar(base='x', index=MonoidElem(kind='free', k=1, "
        "data=())),), atoms=(), projection=()), added=frozenset(), "
        "projection_note='projection to the free coordinates is unchanged')"
    ),
    "Prolongation": (
        "Prolongation(source=VarietyPresentation(variables=(JetVar(base='x', index=None),), "
        "gens=(Poly(x^2 - t),)), spec=DerSpec(eta={JetVar(base='t', index=None): Poly(1)}, images={}), "
        "equations=(Poly(2*x*y_x - 1),))"
    ),
    "RealizeReport": (
        "RealizeReport(ok=False, depth=2, checked=3, mismatch=MonoidElem(kind='commutative', k=2, "
        "data=(0, 1)), expected='1', got='2')"
    ),
    "RegRank": "RegRank(dimension=1, in_reg=True)",
    "TAdd": "TAdd(left=TVar(name='x'), right=TConst(value=Fraction(1, 1)))",
    "TConst": "TConst(value=Fraction(1, 2))",
    "TDer": "TDer(index=2, arg=TVar(name='x'))",
    "TMul": "TMul(left=TVar(name='x'), right=TVar(name='y'))",
    "TNeg": "TNeg(arg=TVar(name='x'))",
    "TVar": "TVar(name='x')",
    "Token": "Token(kind='ident', text='x', line=2, column=5)",
    "TowerStage": "TowerStage(gen=JetVar(base='c', index=None), minpoly=Poly(c^2 - t), dvalue=RatFun((1/2) / (c)))",
    "TriangularSystem": (
        "TriangularSystem(ambient=(JetVar(base='t', index=None), JetVar(base='x', index=None)), "
        "equations=((JetVar(base='x', index=None), Poly(x^2 - t)),))"
    ),
    "VarietyInput": (
        "VarietyInput(variables=(JetVar(base='x', index=None), JetVar(base='y', index=None)), "
        "gens=(Poly(y^2 + x^2 - 1),), spec=DerSpec(eta={}, images={}), point=(Poly(1), Poly(0)))"
    ),
    "VarietyPresentation": (
        "VarietyPresentation(variables=(JetVar(base='x', index=None), JetVar(base='y', index=None)), "
        "gens=(Poly(x*y - 1),))"
    ),
    "WideFromDeepResult": (
        "WideFromDeepResult(wide=DefinableSetDesc(indices=(JetVar(base='x', index=None), "
        "JetVar(base='yy1', index=None)), atoms=(JetAtom(poly=Poly(-x^2 + yy1), rel='='),), "
        "projection=(JetVar(base='x', index=None),)), x_vars=(JetVar(base='x', index=None),), "
        "y_vars=(JetVar(base='yy1', index=None),), "
        "projection_note='projection to (x) equals the projection of the input to its first n coordinates', "
        "jet_recovery=())"
    ),
    "Witness": (
        "Witness(word1=MonoidElem(kind='free', k=2, data=(1, 2)), leader1=MonoidElem(kind='commutative', "
        "k=2, data=(0, 1)), word2=MonoidElem(kind='free', k=2, data=(2, 1)), "
        "leader2=MonoidElem(kind='commutative', k=2, data=(1, 0)))"
    ),
}

MUTABLE = {"DerSpec", "VarietyInput"}
# unhashable by class, or by a field holding a DerSpec (Prolongation) or a RatFun (TowerStage)
UNHASHABLE = {"DerSpec", "VarietyInput", "Prolongation", "TowerStage"}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_equal_values_are_equal_and_hash_equal(name):
    a, b = SAMPLES[name](), SAMPLES[name]()
    assert type(a).__name__ == name
    # variables are interned: equal ones are one object
    assert (a is b) if name == "JetVar" else (a is not b)
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_repr_is_unchanged(name):
    assert repr(SAMPLES[name]()) == REPRS[name]


@pytest.mark.parametrize("name", sorted(set(SAMPLES) - MUTABLE))
def test_frozen_classes_refuse_assignment(name):
    value = SAMPLES[name]()
    field = re.match(r"\w+\((\w+)=", repr(value)).group(1)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_equal_variables_are_one_object():
    # the table of variables lives for the process; order and repr stay as pinned above
    assert x_at(1, 0) is JetVar("x", MonoidElem.exponents((1, 0))) is JetVar(base="x", index=e(1, 0))
    assert JetVar("x", word(1, 2)) is JetVar("x", MonoidElem.word(2, (1, 2)))
    assert JetVar("x") is JetVar("x", None) and JetVar("x") is not JetVar("y")
    assert x_at(1, 0) is not x_at(0, 1)
    assert JetVar("x", e(1, 0)) is not JetVar("x", MonoidElem(COMMUTATIVE, 3, (1, 0, 0)))
    params = inspect.signature(JetVar).parameters
    assert list(params) == ["base", "index"] and params["index"].default is None
    with pytest.raises(TypeError):
        JetVar()


def test_variable_text_is_kept_once_and_reads_as_before():
    cases = {
        JetVar("t"): "t",
        JetVar("x", word()): "x[0]",
        JetVar("x", word(1, 2)): "x[d1 d2]",
        x_at(0, 2): "x[d2^2]",
        JetVar("u", MonoidElem(COMMUTATIVE, 3, (1, 0, 3))): "u[d1 d3^3]",
    }
    for v, text in cases.items():
        # the f-string __str__ rendered on every call before the text was kept
        assert str(v) == text == (v.base if v.index is None else f"{v.base}[{v.index}]")
        assert str(v) is str(v) is v.text
        assert repr(v) == f"JetVar(base={v.base!r}, index={v.index!r})"


def test_derspec_is_unhashable_and_mutable():
    with pytest.raises(TypeError):
        hash(DerSpec())
    spec = DerSpec()
    spec.images = {X: Poly.const(1)}
    assert spec == DerSpec(images={X: 1})


def test_records_take_every_field():
    with pytest.raises(TypeError):
        Token("int", "1")
    with pytest.raises(TypeError, match="Witness takes 4 fields, got 2"):
        Witness(word(1, 2), e(0, 1))


def test_keys_and_text_are_set_when_the_value_is_made():
    # object.__getattribute__ reads a slot as it is, computing nothing
    index = MonoidElem(COMMUTATIVE, 2, (3, 7))
    assert object.__getattribute__(index, "sort_key") == ("commutative", 2, 10, (-3, -7))
    assert object.__getattribute__(MonoidElem(FREE, 2, (2, 1)), "sort_key") == ("free", 2, 2, (2, 1))
    v = JetVar("fresh", index)
    assert object.__getattribute__(v, "sort_key") == ("fresh", 1, index.sort_key)
    assert object.__getattribute__(v, "text") == "fresh[d1^3 d2^7]"
    plain = JetVar("fresh")
    assert object.__getattribute__(plain, "sort_key") == ("fresh", 0, ())
    assert object.__getattribute__(plain, "text") == "fresh"
    # only a Monomial computes a slot on first read
    assert "__getattr__" not in vars(Record) and not hasattr(Record, "_lazy")
    names = ["algebra", "axioms", "cli", "config", "derivation", "errors", "jet", "monoid", "parsing", "prolong"]
    modules = [importlib.import_module(f"diffalg.{name}") for name in names]
    classes = {c for module in modules for c in vars(module).values() if isinstance(c, type)}
    lazy = {c.__name__ for c in classes if c.__module__.startswith("diffalg.") and "__getattr__" in vars(c)}
    assert lazy == {"Monomial"}


def test_unequal_values_differ():
    assert x_at(1, 0) != x_at(0, 1) and JetVar("x") != JetVar("y") and JetVar("x") != x_at(0, 0)
    assert e(1, 0) != e(0, 1) and word(1, 2) != word(2, 1) and e(1, 0) != MonoidElem(FREE, 2, (1,))
    assert Monomial.of(X, 2) != Monomial.of(X) and Monomial.of(X) != Monomial.of(Y)
    assert TVar("x") != TVar("y") and TConst(Fraction(1)) != TVar("x") and e(1, 0) != "d1"
    assert JetVar("x") != "x" and Monomial.of(X) != X


def test_monomial_computes_only_its_own_attributes():
    with pytest.raises(AttributeError, match="'Monomial' object has no attribute 'variable'"):
        Monomial.of(X).variable


# each list is written in increasing order
ORDERED = [
    [e(0, 0), e(1, 0), e(0, 1), e(2, 0), e(1, 1), e(0, 2)],
    [word(), word(1), word(2), word(1, 1), word(1, 2), word(2, 1), word(2, 2)],
    [JetVar("t"), x_at(0, 0), x_at(1, 0), x_at(0, 1), x_at(2, 0), JetVar("y")],
    [
        Monomial.one(),
        Monomial.of(T),
        Monomial.of(x_at(0, 0)),
        Monomial.of(x_at(1, 0)),
        Monomial.of(T, 2),
        Monomial.make({T: 1, x_at(0, 0): 1}),
        Monomial.of(x_at(0, 0), 2),
        Monomial.make({x_at(1, 0): 1, x_at(0, 0): 1}),
    ],
]


@pytest.mark.parametrize("chain", ORDERED, ids=["exponents", "words", "jetvars", "monomials"])
def test_total_order_is_unchanged(chain):
    for i, a in enumerate(chain):
        for j, b in enumerate(chain):
            assert (a < b) == (i < j), (a, b)
            assert (a > b) == (i > j), (a, b)
    assert sorted(reversed(chain)) == chain


def test_monomials_refuse_the_subset_order():
    # frozenset's <= and >= would read subsets: 1 <= t, t <= t*x[0]
    chain = ORDERED[-1]
    for a in chain:
        for b in chain:
            for compare in (operator.le, operator.ge):
                with pytest.raises(TypeError, match="not supported between instances of 'Monomial' and 'Monomial'"):
                    compare(a, b)


def test_equal_powers_give_equal_monomials_with_equal_hashes():
    x0 = x_at(0, 0)
    pairs = frozenset({(T, 2), (x0, 1)})
    built = [
        Monomial(pairs),
        Monomial([(x0, 1), (T, 2)]),
        Monomial.make({x0: 1, T: 2, X: 0}),
        Monomial.of(T, 2) * Monomial.of(x0),
        Monomial.of(x0) * Monomial.of(T) * Monomial.of(T),
        Monomial.of(T, 3) * Monomial.of(x0, 2) / Monomial.make({T: 1, x0: 1}),
        (Monomial.of(T, 2) * Monomial.of(x0) * Monomial.of(X)).without(X),
        Monomial.make({T: 2, x0: 1, X: 3}).gcd(Monomial.make({T: 5, x0: 1})),
    ]
    for m in built:
        assert type(m) is Monomial and m.powers is m
        assert m == built[0] and not m != built[0] and hash(m) == hash(built[0])
        # the hash and equality are the set's
        assert m == pairs and hash(m) == hash(pairs)
        assert m.sorted_powers == ((T, 2), (x0, 1)) and m.degree == 3 and m.variables() == {T, x0}
    assert len({*built, pairs}) == 1
    assert Monomial.one() == Monomial() == frozenset() and not Monomial.one()
    assert Monomial.of(T) != Monomial.of(T, 2) and hash(Monomial.of(T)) != hash(Monomial.of(T, 2))


@pytest.mark.parametrize("field", ["powers", "sort_key", "sorted_powers"])
def test_monomial_fields_refuse_assignment(field):
    m = Monomial.make({T: 1, X: 2})
    for _ in range(2):  # before the lazy slots are filled, and after
        with pytest.raises(AttributeError):
            setattr(m, field, None)
        with pytest.raises(AttributeError):
            delattr(m, field)
        assert m.sort_key == (3, ((X.sort_key, 2), (T.sort_key, 1))) and m.sorted_powers == ((T, 1), (X, 2))
    assert m.powers is m


def test_monomials_refuse_negative_exponents():
    cases = [
        (
            lambda: Monomial.make({X: 2, T: -1}),
            "[(JetVar(base='t', index=None), -1), (JetVar(base='x', index=None), 2)]",
        ),
        (lambda: Monomial.of(X, -1), "[(JetVar(base='x', index=None), -1)]"),
        (
            lambda: Monomial.of(T) / Monomial.of(X),
            "[(JetVar(base='t', index=None), 1), (JetVar(base='x', index=None), -1)]",
        ),
    ]
    for call, powers in cases:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"negative exponent in monomial: {powers}"
