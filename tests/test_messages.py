"""Exact texts of error messages, and of the error branches no other test runs.

Each case pins the whole message, position included, so a change to how a
message is built shows up here before it reaches a user.
"""

import pytest

from diffalg.algebra import JetVar, Monomial, Poly, RatFun, as_value, divide_exact, solve_affine, var
from diffalg.axioms import DefinableSetDesc, TriangularSystem, nc_normalize, triangular_dimension_certificate
from diffalg.cli import main
from diffalg.derivation import DerSpec, Tower, apply_derivation, twisted_lift
from diffalg.errors import (
    ConfigurationError,
    EngineError,
    FiberError,
    KindMismatchError,
    NonInvertibleError,
    NotTriangularError,
    ParseError,
    UncoveredVariableError,
    UndeclaredParameterError,
)
from diffalg.jet import DiffModel, JetAtom, jet_binding, rewrite_atom, rewrite_term
from diffalg.monoid import COMMUTATIVE, FREE, InitialSet, MonoidElem
from diffalg.parsing import (
    parse_config,
    parse_definable_json,
    parse_derspec,
    parse_index_text,
    parse_term,
    parse_term_atom,
)
from diffalg.prolong import VarietyPresentation, extend_at_point, twisted_bundle

X, Y, Z, T, S, C = (JetVar(name) for name in "xyztsc")


def message(call) -> str:
    with pytest.raises((EngineError, ParseError, ZeroDivisionError)) as err:
        call()
    return str(err.value)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: parse_config(""), "missing `k = ...` header (line 1, column 1)"),
        (lambda: parse_config("k = 1\n"), "missing `P: ...` line (line 1, column 1)"),
        (
            lambda: parse_config("k = 2\nP: d1\np[d1] = x[d1]\neta[d3]: t -> 1\n"),
            "eta index must be one of d1..d2 (line 4, column 5)",
        ),
        (lambda: parse_definable_json("[]"), "expected a JSON object (line 1, column 1)"),
        (lambda: parse_term("x +"), "expected a term, found end of input (line 1, column 4)"),
        (lambda: parse_term("1/0"), "zero denominator (line 1, column 3)"),
        (lambda: parse_term("x + 1/0"), "zero denominator (line 1, column 7)"),
        (lambda: parse_term_atom("d1(x)"), "expected '=' or '!=' (line 1, column 6)"),
        (lambda: parse_index_text("2"), "an index is 0 or a product of d1, d2, ... (line 1, column 1)"),
        (lambda: parse_index_text("x", FREE), "expected a derivation word (line 1, column 1)"),
        (lambda: parse_index_text("x"), "expected a monomial in d1, d2, ... (line 1, column 1)"),
    ],
)
def test_parse_error_messages(call, expected):
    assert message(call) == expected


def test_tower_messages_and_printing():
    tower = Tower([T], {T: 1})
    assert message(lambda: tower.invert(Poly.zero())) == "cannot invert zero"
    assert message(lambda: tower.invert(0)) == "cannot invert zero"
    assert message(lambda: tower.element("z")) == "z is not a tower variable"
    assert str(tower.extend(var("c") ** 2 - var("t") - 2, "c")) == "Q(t)[c: c^2 - t - 2 = 0]"


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: (var("x") * var("z") + var("y")).evaluate({Y: 1}), "binding misses variables: x, z"),
        (
            lambda: DefinableSetDesc((X,), (JetAtom(var("x") + var("y") * var("z"), "="),), (X,)),
            "atom mentions undeclared coordinates: y, z",
        ),
        (lambda: DerSpec(eta={T: var("u") * var("s")}), "eta image of t mentions undeclared parameters: s, u"),
        (lambda: DerSpec(eta={T: 1, S: 0}, images={T: 1, S: 2, X: 1}), "variables both parameter and main: s, t"),
        (
            lambda: Tower([T]).extend(var("c") ** 2 - var("u") - var("x"), "c"),
            "defining polynomial mentions foreign variables: u, x",
        ),
        (
            lambda: twisted_bundle(VarietyPresentation((X,), (var("x") - var("t") - var("s"),)), DerSpec()),
            "parameters not covered by the derivation: s, t",
        ),
        (
            lambda: twisted_bundle(
                VarietyPresentation((X, T, S), (var("x") - var("t") - var("s"),)), DerSpec(eta={T: 1, S: 1})
            ),
            "ambient variables declared as parameters: s, t",
        ),
        (
            lambda: extend_at_point(VarietyPresentation((X,), ()), DerSpec(), Tower([T, S, JetVar("u")]), ["u"], [1]),
            "tower transcendentals without derivative values: s, t",
        ),
    ],
)
def test_variable_listing_messages(call, expected):
    assert message(call) == expected


def test_tower_entry_points_take_numbers():
    tower = Tower([T], {T: 1})
    with pytest.raises(NonInvertibleError):
        tower.invert(0)
    assert tower.reduce(3) == Poly.const(3)
    assert tower.is_zero(0)
    assert tower.apply(5).is_zero


def _exponents(*exps):
    return MonoidElem.exponents(exps)


def _word(*letters):
    return MonoidElem.word(2, letters)


_CIRCLE = VarietyPresentation((X, Y), (var("x") ** 2 + var("y") ** 2 - 1,))
_ROOT = Tower([T], {T: 1}).extend(var("c") ** 2 - var("t"), "c")


@pytest.mark.parametrize(
    "call, error, expected",
    [
        # algebra
        (lambda: Poly({Monomial.one(): 1.5}), TypeError, "not an exact coefficient: 1.5"),
        (
            lambda: Monomial.make({X: -1}),
            ValueError,
            "negative exponent in monomial: [(JetVar(base='x', index=None), -1)]",
        ),
        (lambda: var("x").constant_value(), ValueError, "not a constant: x"),
        # the degree cap: no monomial reaches total degree 2^15, so no packed field carries
        (lambda: Monomial.of(X, 2**15), ValueError, "total degree 32768 is over the monomial degree cap of 32767"),
        (lambda: var("x") ** 2**15, ValueError, "total degree 32768 is over the monomial degree cap of 32767"),
        (
            lambda: var("x") ** 20000 * var("y") ** 20000,
            ValueError,
            "total degree 40000 is over the monomial degree cap of 32767",
        ),
        (
            lambda: Monomial.make({X: 2**14, Y: 2**14}),
            ValueError,
            "total degree 32768 is over the monomial degree cap of 32767",
        ),
        (lambda: Poly.zero().leading_term(), ValueError, "zero polynomial has no leading term"),
        (lambda: divide_exact(var("x"), Poly.zero()), ZeroDivisionError, "division by the zero polynomial"),
        (lambda: hash(RatFun(var("x"), var("y"))), TypeError, "rational functions are not hashable"),
        (lambda: as_value("a"), TypeError, "cannot interpret 'a' as a rational function"),
        (lambda: solve_affine([[1]], []), ValueError, "matrix and right-hand side sizes differ"),
        (lambda: solve_affine([[1, 2], [1]], [0, 0]), ValueError, "ragged matrix"),
        # axioms
        (lambda: DefinableSetDesc((X, X), (), ()), EngineError, "duplicate coordinates"),
        (
            lambda: DefinableSetDesc((X,), (), (Y,)),
            EngineError,
            "projection target must be a subset of the coordinates",
        ),
        (
            lambda: nc_normalize(
                InitialSet.of([_word()]), DefinableSetDesc((JetVar("x", _word()), JetVar("z", _word(1))), (), ())
            ),
            EngineError,
            "word coordinates must share one base name",
        ),
        (
            lambda: nc_normalize(InitialSet.of([_word(), _word(1)]), DefinableSetDesc((JetVar("x", _word()),), (), ())),
            EngineError,
            "coordinates do not match the initial set",
        ),
        (
            lambda: triangular_dimension_certificate(TriangularSystem((X,), ((Y, var("y") - var("x")),))),
            NotTriangularError,
            "main variable y is not an ambient coordinate",
        ),
        (
            lambda: triangular_dimension_certificate(TriangularSystem((X, Y), ((Y, var("x")),))),
            NotTriangularError,
            "equation for y does not involve it",
        ),
        # config
        (
            lambda: parse_config("k = 1\nP: d1\np[d1] = x[d1]^2\n").realize_check(
                DiffModel.on_parameters([T], [{T: 1}]), Poly.const(3), 1
            ),
            ConfigurationError,
            "separant for d1 vanishes at b",
        ),
        # derivation
        (
            lambda: twisted_lift(var("x") + var("y_x"), DerSpec()),
            EngineError,
            "reserved partner name y_x already occurs in y_x + x",
        ),
        (lambda: Tower([T], {S: 1}), UndeclaredParameterError, "eta assigns s, which is not a base parameter"),
        # jet
        (lambda: rewrite_term("x"), TypeError, "unknown term node: 'x'"),
        (
            lambda: rewrite_term(parse_term("d1(x)"), eta=[{}, {}], k=1),
            EngineError,
            "expected 1 parameter tables, got 2",
        ),
        (lambda: rewrite_term(parse_term("d3(x)"), k=2), EngineError, "derivation index d3 exceeds k=2"),
        (lambda: rewrite_term(parse_term("x"), mode="other"), KindMismatchError, "unknown mode 'other'"),
        (lambda: rewrite_atom(parse_term("x"), "<", parse_term("y")), EngineError, "unknown relation '<'"),
        (lambda: DiffModel([]), EngineError, "a model needs at least one derivation"),
        (
            lambda: DiffModel([Tower([T]), Tower([S])]),
            KindMismatchError,
            "model derivations must live on the same field",
        ),
        (
            lambda: DiffModel.on_parameters([T], [{T: 1}, {}]).apply(3, var("t")),
            EngineError,
            "no derivation d3 in a model with k=2",
        ),
        (
            lambda: jet_binding(DiffModel.on_parameters([T], [{T: 1}]), {}, [JetVar("x", _exponents(0))]),
            UncoveredVariableError,
            "no model value for x",
        ),
        # monoid
        (lambda: MonoidElem("other", 1, ()), ValueError, "unknown kind 'other'"),
        (lambda: MonoidElem(FREE, 0, ()), ValueError, "k must be at least 1"),
        (lambda: MonoidElem(FREE, 2, (3,)), ValueError, "word letters must lie in 1..2: (3,)"),
        (lambda: MonoidElem(COMMUTATIVE, 2, (1,)), ValueError, "exponent tuple must have length 2: (1,)"),
        (lambda: MonoidElem(COMMUTATIVE, 2, (1, -1)), ValueError, "exponents must be nonnegative: (1, -1)"),
        (
            lambda: _word(1).minus(_word(1)),
            KindMismatchError,
            "difference is only defined for exponent tuples",
        ),
        (lambda: _exponents(1, 0).minus(_exponents(0, 1)), ValueError, "d2 does not divide d1"),
        (
            lambda: InitialSet(FREE, 2, frozenset([_exponents(0, 0)])),
            KindMismatchError,
            "element 0 does not match (free, k=2)",
        ),
        (
            lambda: InitialSet.of([]),
            ValueError,
            "cannot infer kind and k from an empty set; use InitialSet directly",
        ),
        # parsing
        (lambda: parse_derspec("eta: t -> 1, t -> 2"), ParseError, "duplicate entry for t (line 1, column 14)"),
        # prolong
        (lambda: VarietyPresentation((X, X), ()), ValueError, "duplicate ambient variables"),
        (lambda: _CIRCLE.point_binding([1]), ValueError, "point has 1 coordinates, ambient dimension is 2"),
        (
            lambda: extend_at_point(_CIRCLE, DerSpec(), _ROOT, (T,), (1,)),
            ValueError,
            "point and tangent must match the ambient dimension",
        ),
        (
            lambda: extend_at_point(_CIRCLE, DerSpec(), _ROOT, (T, T), (1, 1)),
            FiberError,
            "coordinates must be distinct tower variables",
        ),
        (
            lambda: extend_at_point(VarietyPresentation((X,), ()), DerSpec(eta={T: 1}), Tower([T]), (T,), (1,)),
            FiberError,
            "a coefficient parameter cannot serve as a generic coordinate",
        ),
        (
            lambda: extend_at_point(VarietyPresentation((X,), ()), DerSpec(eta={S: 1}), Tower([T]), (T,), (1,)),
            UndeclaredParameterError,
            "eta assigns s, which is not a base parameter",
        ),
        (
            lambda: extend_at_point(_CIRCLE, DerSpec(), _ROOT, (T, C), (1, 1)),
            FiberError,
            "point does not satisfy y^2 + x^2 - 1 in the tower",
        ),
        (
            lambda: extend_at_point(VarietyPresentation((X, Y), ()), DerSpec(), _ROOT, (T, C), (1, 5)),
            FiberError,
            "prescribed value for c is not the forced derivative",
        ),
    ],
)
def test_guarded_input_messages(call, error, expected):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == expected


def test_the_degree_cap_is_reached_and_never_crossed(capsys):
    top = var("x") ** 32767
    assert str(top) == "x^32767" and top.total_degree() == 32767
    assert top.terms == {Monomial.of(X, 32767): 1} and Monomial.of(X, 32767).deg_in(X) == 32767
    # one more degree in a derivation: x^32767 -> 32767 * x^32766 * (x * y)
    with pytest.raises(ValueError, match="total degree 32768 is over the monomial degree cap of 32767"):
        apply_derivation(top, DerSpec(images={X: var("x") * var("y")}))
    # the command line reports the cap and exits 1
    assert main(["derive", "x^32768", "--spec", "d: x -> 1"]) == 1
    assert capsys.readouterr() == ("", "error: total degree 32768 is over the monomial degree cap of 32767\n")
    assert main(["derive", "x^32767", "--spec", "d: x -> 0"]) == 0
    assert capsys.readouterr().out == "0\n"
    # a power past the cap is refused before it is computed: (x+1)^16384 would come first
    assert main(["derive", "(x+1)^40000", "--spec", "eta: none; d: x -> 1"]) == 1
    assert capsys.readouterr() == ("", "error: total degree 40000 is over the monomial degree cap of 32767\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["derive", "x", "--spec", "d: x -> 1", "--k", "0"],
        ["derive", "x[d2]", "--spec", "d: x -> 1", "--k", "-2"],
        ["jet", "d1(x)", "--k", "0"],
    ],
)
def test_k_below_one_is_refused_where_it_enters(capsys, argv):
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: k must be at least 1\n")
