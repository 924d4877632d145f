import gc
import os
from fractions import Fraction

import pytest

from diffalg.algebra import JetVar, Poly, RatFun, var
from diffalg.errors import ParseError
from diffalg.jet import TDer, TMul, TVar, term_str
from diffalg.monoid import COMMUTATIVE, FREE, MonoidElem
from diffalg.parsing import (
    parse_config,
    parse_definable_json,
    parse_derspec,
    parse_expression,
    parse_index_text,
    parse_poly,
    parse_ratfun,
    parse_term,
    parse_term_atom,
    parse_triangular,
    parse_variety,
)


def test_parse_poly_example():
    got = parse_poly("x[d1]^2 - x[0]")
    x0 = Poly.variable(JetVar("x", MonoidElem.exponents((0,))))
    xd1 = Poly.variable(JetVar("x", MonoidElem.exponents((1,))))
    assert got == xd1 * xd1 - x0


def test_parse_poly_with_k_and_free_mode():
    got = parse_poly("x[d2 d1] * x[0]", mode=FREE, k=2)
    assert JetVar("x", MonoidElem.word(2, (2, 1))) in got.variables()


def test_parse_term_example():
    got = parse_term("d1(x * d1(x))")
    assert got == TDer(1, TMul(TVar("x"), TDer(1, TVar("x"))))


def test_parse_term_atom():
    lhs, rel, rhs = parse_term_atom("d1(x) != x")
    assert rel == "!="
    assert lhs == TDer(1, TVar("x"))
    assert rhs == TVar("x")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("x[")
    assert err.value.column == 2

    with pytest.raises(ParseError) as err:
        parse_poly("x + @")
    assert err.value.column == 5

    with pytest.raises(ParseError):
        parse_poly("x y")  # trailing garbage

    with pytest.raises(ParseError):
        parse_poly("d1 + 1")  # reserved name used as a variable


def test_parse_rationals_and_division():
    assert parse_expression("1/2*x") == RatFun(var("x"), 2)
    assert parse_ratfun("1/(2*x)") == RatFun(Poly.const(1), 2 * var("x"))
    with pytest.raises(ParseError):
        parse_poly("1/(2*x)")  # a proper fraction is not a polynomial


def test_parse_index_text():
    assert parse_index_text("d1^2 d2", COMMUTATIVE, 2) == MonoidElem.exponents((2, 1))
    assert parse_index_text("d1 d2 d1", FREE, 2) == MonoidElem.word(2, (1, 2, 1))
    assert parse_index_text("0", COMMUTATIVE, 2) == MonoidElem.identity(COMMUTATIVE, 2)
    for mode in (COMMUTATIVE, FREE):
        with pytest.raises(ParseError, match="generator d3 exceeds k=2"):
            parse_index_text("d1 d3", mode, 2)


def test_parse_derspec_round_trip():
    text = "eta: t -> 1; d: x -> u, y -> v"
    spec = parse_derspec(text)
    assert spec.eta[JetVar("t")] == RatFun.const(1)
    assert spec.images[JetVar("x")] == RatFun(var("u"))
    again = parse_derspec(str(spec))
    assert again.eta == spec.eta and again.images == spec.images
    assert str(parse_derspec("eta: t -> 1")) == "eta: t -> 1"


def test_parse_config():
    cfg = parse_config(
        """
        k = 2
        P: d1, d2
        p[d1] = x[d1] - x[0]^2
        p[d2] = x[d2] - 2*x[0]
        eta: none
        """
    )
    assert cfg.k == 2
    assert len(cfg.leaders) == 2
    assert cfg.theta == MonoidElem.exponents((1, 1))


def test_parse_config_with_parameter_tables():
    cfg = parse_config(
        """
        k = 2
        P: d1, d2
        p[d1] = x[d1] - c*x[0]
        p[d2] = x[d2] - x[0]
        eta[d1]: c -> 1
        eta[d2]: c -> 0
        """
    )
    assert cfg.etas[0][JetVar("c")] == RatFun.const(1)
    assert cfg.etas[1][JetVar("c")] == RatFun.const(0)


def test_parse_config_errors():
    with pytest.raises(ParseError):
        parse_config("P: d1")  # k missing
    with pytest.raises(ParseError):
        parse_config("k = 2\nP: d1\nnonsense here")


@pytest.mark.parametrize(
    "parse, text, line",
    [
        (parse_config, "k = 2\n\n\nP: d1, d5\n", 4),
        (parse_config, "k = 2\nP: d1\n\n\np[d7] = x[d1]\n", 5),
        (parse_config, "k = 2\nP: d1\np[d1] = x[d1] +\n", 3),
        (parse_config, "k = 2\nP: d1\np[d1] = x[d1]\neta[d1]: c -> @\n", 4),
        (parse_config, "k = two\n", 1),
        (parse_config, "k = 1\nbase\n", 2),
        (parse_config, "k = 1\nbase = x y\n", 2),
        (parse_variety, "# circle\nx^2 + y^2 - 1\npoint: 1, @\n", 3),
        (parse_variety, "x^2 - c\nderivation: eta: c -> @\n", 2),
        (parse_variety, "\nx^2 +\n", 2),
        (parse_triangular, "ambient: x0, x1\nx1 : x1 - x0^2\nx2 x : x2\n", 3),
        (parse_triangular, "ambient: x0, x1\n\nx1 : x1 - @\n", 3),
        (parse_triangular, "\nambient: x0, x[\n", 2),
    ],
)
def test_parse_errors_carry_the_file_line(parse, text, line):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "parse, text, line, column",
    [
        (parse_config, "k = 2\nP: d1\np[d1] = x[d1] + @\n", 3, 17),
        (parse_config, "k = 2\nP: d1\np[d1] = x[d1]\neta[d1]: c -> @\n", 4, 15),
        (parse_config, "k = 2\nP:   d1 d1 , d7\n", 2, 14),
        (parse_variety, "x^2 - c\nderivation: eta: c -> @\n", 2, 23),
        (parse_triangular, "ambient: x, y\ny : y - @\n", 2, 9),
    ],
)
def test_parse_errors_carry_the_file_column(parse, text, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "parse, text, line, column, what",
    [
        (parse_config, "k = 2\nP: d1\nk = 2\np[d1] = x[d1]\n", 3, 1, "`k`"),
        (parse_config, "k = 1\nbase = y\nP: d1\n  base = z\np[d1] = y[d1]\n", 4, 3, "`base`"),
        (
            parse_config,
            "k = 2\nP: d1\np[d1] = x[d1] - x[0]\np[d1] = x[d1] - 5*x[0]\n",
            4,
            1,
            "`p[d1]`",
        ),
        (
            parse_config,
            "k = 2\nP: d1\np[d1] = x[d1]\neta: c -> 1\neta[d2]: c -> 2\n",
            5,
            1,
            "the eta table of d2",
        ),
        (parse_config, "k = 1\nP: d1\np[d1] = x[d1]\neta: c -> 1\neta: c -> 1\n", 5, 1, "the eta table of d1"),
        (parse_variety, "vars: x\nx^2 - 1\nvars: x, y\n", 3, 1, "`vars:`"),
        (parse_variety, "x^2 - c\nderivation: eta: c -> 1\nderivation: eta: c -> 2\n", 3, 1, "`derivation:`"),
        (parse_variety, "x^2 - 1\npoint: 1\n point: -1\n", 3, 2, "`point:`"),
        (parse_triangular, "ambient: x0, x1\nx1 : x1 - x0^2\nambient: x1\n", 3, 1, "`ambient:`"),
    ],
)
def test_a_header_or_table_is_declared_once(parse, text, line, column, what):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert err.value.message == f"{what} is declared twice"


def test_empty_eta_tables_do_not_count_as_declarations():
    cfg = parse_config("k = 2\nP: d1\np[d1] = x[d1]\neta: none\neta[d1]: c -> 1\neta[d2]: none\n")
    assert cfg.etas[0] == {JetVar("c"): Poly.const(1)}
    assert cfg.etas[1] == {}


def test_parse_variety():
    data = parse_variety(
        """
        # circle
        x^2 + y^2 - 1
        point: 1, 0
        """
    )
    assert data.variables == (JetVar("x"), JetVar("y"))
    assert len(data.gens) == 1
    assert data.point == (RatFun.const(1), RatFun.const(0))


def test_parse_variety_with_derivation_and_vars():
    data = parse_variety(
        """
        vars: x
        derivation: eta: c -> 1
        x^2 - c
        """
    )
    assert data.variables == (JetVar("x"),)
    assert data.spec.eta[JetVar("c")] == RatFun.const(1)


def test_parse_triangular():
    system = parse_triangular(
        """
        ambient: x0, x1
        x1 : x1 - x0^2
        """
    )
    assert system.ambient == (JetVar("x0"), JetVar("x1"))
    assert system.equations[0][0] == JetVar("x1")


def test_parse_definable_json():
    desc = parse_definable_json(
        '{"indices": ["z1", "z2"], "atoms": [{"poly": "z2 - z1", "rel": "="}], "projection": ["z1"]}'
    )
    assert len(desc.indices) == 2
    with pytest.raises(ParseError):
        parse_definable_json("not json")
    with pytest.raises(ParseError):
        parse_definable_json('{"indices": []}')
    for entry in ("2*z2", "z2^2", "z2 + 1", "1"):
        with pytest.raises(ParseError):
            parse_definable_json(f'{{"indices": ["z1", "{entry}"], "atoms": [], "projection": ["z1"]}}')


DEFINABLE_ERRORS = [
    # (file text, message, line and column of the offending character)
    (
        '{"indices": ["z1", "z2"],\n "atoms": [\n  {"poly": "z1 + @"}],\n "projection": ["z1"]}\n',
        "atoms[0].poly: unexpected character '@'",
        (3, 18),
    ),
    (
        '{"indices": ["z1",\n   "2*z2"],\n "atoms": [], "projection": ["z1"]}\n',
        "indices[1]: expected a name, found '2'",
        (2, 5),
    ),
    (
        '{"indices": ["z1"],\n "atoms": [{"poly": "z1", "rel": "<"}],\n "projection": ["z1"]}',
        "atoms[0].rel: unknown relation '<'",
        (2, 35),
    ),
    # an entry spelled with escapes is placed at its first character
    (
        '{"indices": ["z1"], "atoms": [],\n "projection": ["z\\u0031 +"]}',
        "projection[0]: unexpected trailing input '+'",
        (2, 18),
    ),
    # a value that is not a string is placed at its own first character
    (
        '{"indices": ["z1"],\n "atoms": [\n  {"poly": 5}],\n "projection": ["z1"]}\n',
        "atoms[0]: every atom needs a string field 'poly'",
        (3, 12),
    ),
    (
        '{"indices": ["z1"],\n "atoms": [],\n "projection": ["z1", 1]}\n',
        "field 'projection' must be a list of strings",
        (3, 23),
    ),
]


@pytest.mark.parametrize(
    "text, message, where",
    DEFINABLE_ERRORS,
    ids=["atom-poly", "index", "atom-rel", "escaped-projection", "poly-number", "projection-number"],
)
def test_definable_json_errors_name_the_entry_and_its_place_in_the_file(text, message, where):
    with pytest.raises(ParseError) as info:
        parse_definable_json(text)
    assert (info.value.message, (info.value.line, info.value.column)) == (message, where)


def test_parsing_json_leaves_no_reference_cycles():
    with open(os.path.join(os.path.dirname(__file__), "..", "corpus", "product.zjson"), encoding="utf-8") as fh:
        text = fh.read()
    parse_definable_json(text)  # warm-up: first-use caches are not garbage
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        parse_definable_json(text)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# ----------------------------------------------------------------------
# canonical-form round trips: print . parse . print == print


POLY_SAMPLES = [
    "x[d1]^2 - x[0]",
    "2*x[0]*x[d1 d2] + 1/2",
    "x[d1^2] - x[d1]*x[0]",
    "c*x[0]^3 - c^2",
]


@pytest.mark.parametrize("text", POLY_SAMPLES)
def test_poly_print_parse_round_trip(text):
    once = str(parse_poly(text))
    assert str(parse_poly(once)) == once


def test_term_print_parse_round_trip():
    for text in ["d1(x * d1(x))", "d2(d1(x)) + -x * (x + 1)", "1/2 * x + d1(t)"]:
        term = parse_term(text)
        once = term_str(term)
        assert parse_term(once) == term
        assert term_str(parse_term(once)) == once


def test_ratfun_print_parse_round_trip():
    for text in ["(x + 1) / (x - 1)", "-x^2 / t^2", "(2*t*u*x - x^2) / (t^2)"]:
        once = str(parse_ratfun(text))
        assert str(parse_ratfun(once)) == once
