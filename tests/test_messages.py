"""Exact texts of error messages, and of the error branches no other test runs.

Each case pins the whole message, position included, so a change to how a
message is built shows up here before it reaches a user.
"""

import pytest

from diffalg.algebra import JetVar, Poly, var
from diffalg.axioms import DefinableSetDesc
from diffalg.derivation import DerSpec, Tower
from diffalg.errors import EngineError, ParseError
from diffalg.jet import JetAtom
from diffalg.monoid import FREE
from diffalg.parsing import parse_config, parse_definable_json, parse_index_text, parse_term, parse_term_atom
from diffalg.prolong import VarietyPresentation, extend_at_point, twisted_bundle

X, Y, Z, T, S = (JetVar(name) for name in "xyzts")


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
        (lambda: parse_term("1/0"), "zero denominator (line 1, column 1)"),
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
