import operator
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_nonzero_poly, rand_poly
from diffalg.algebra import (
    AffineSpace,
    JetVar,
    Monomial,
    Poly,
    RatFun,
    divide_exact,
    pseudo_remainder,
    solve_affine,
    var,
)
from diffalg.derivation import DerSpec, apply_derivation
from diffalg.errors import PoleError, UncoveredVariableError
from diffalg.monoid import MonoidElem
from diffalg.parsing import parse_expression

X = JetVar("x")
Y = JetVar("y")
T = JetVar("t")
C = JetVar("c")

x, y, t, c = var("x"), var("y"), var("t"), var("c")


def test_ring_ops_examples():
    assert (x + 1) * (x - 1) == x * x - 1
    p = 3 * x * y - y ** 2
    assert p + Poly.zero() == p
    # a constant factor, zero included, scales the other operand from either side
    for c in (Poly.zero(), Poly.const(0), Poly.const(-2), Poly.const(Fraction(1, 3))):
        k = c.constant_value()
        assert p * c == c * p == Poly({m: k * a for m, a in p.terms.items()})
    assert (Poly.zero() * Poly.zero()).is_zero and Poly.const(2) * Poly.const(3) == 6
    assert RatFun(x * x - 1, x - 1) == RatFun(x + 1)
    # a value with a constant denominator is a Poly, which reads as a fraction over 1
    for value, poly in [((x / y) * y, x), (RatFun(x * x - 1, x - 1) + 0, x + 1), (RatFun(x, 2) * 2, x)]:
        assert isinstance(value, Poly) and value == poly
    assert p.num is p and p.den == 1


def test_one_fraction_type_keeps_its_denominator_over_a_factor_base():
    # sums go over the largest exponent vector of one base, not over the product of denominators
    total = parse_expression("x/(t+1) + y/(t+1)")
    assert total.den == t + 1 and str(total) == "(y + x) / (t + 1)"
    difference = x / (t + 1) - x / (t * t + 2 * t + 1)
    assert difference.den == t * t + 2 * t + 1 and str(difference) == "(t*x) / (t^2 + 2*t + 1)"
    # a product divides each factor of the base out of the numerator as often as it goes
    for a in (t + 1, x * y - 3, RatFun(x, t + 1), parse_expression("x/(t+1) + y/(t^2+1)")):
        one = a * (Poly.const(1) / a)
        assert isinstance(one, Poly) and one == 1
    # variables() reads the value: t cancels from x*t / (t*y), so a derivation needs no image of t
    q = parse_expression("x*t/(t*y)")
    assert q.variables() == {X, Y} and (t / (t + 1) + Poly.const(1) / (t + 1)).variables() == set()
    assert apply_derivation(q, DerSpec(images={X: 1, Y: 0})) == Poly.const(1) / y


def test_product_with_the_unit_is_the_other_operand():
    p = 3 * x * y - y ** 2
    # the shared unit every Poly answers as its denominator, and a new one
    for one in (x.den, Poly.const(1)):
        for product in (p * one, one * p):
            assert product == p and product is p


def test_power_squares_no_further_than_its_last_bit(monkeypatch):
    p = x + 2 * y
    expected = [Poly.const(1)]
    for _ in range(9):
        expected.append(expected[-1] * p)
    products = []
    mul = Poly.__mul__

    def counted(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    for n in range(1, 10):
        products.clear()
        assert p ** n == expected[n]
        assert len(products) == bin(n).count("1") + n.bit_length() - 1


SUBSTITUTION = """
from diffalg.algebra import JetVar
from diffalg.parsing import parse_expression as e
binding = {JetVar("x"): e("t + 1"), JetVar("y"): e("1/(t + 1)"),
           JetVar("z"): e("1/(t + 2)"), JetVar("w"): e("(t + 2)/(t + 3)")}
print(e("x*y*z + x^2*y*w").substitute(binding))
"""


@pytest.mark.parametrize("seed", range(6))
def test_substitution_does_not_depend_on_the_hash_seed(seed):
    root = os.path.join(os.path.dirname(__file__), "..")
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", SUBSTITUTION], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    # the products cancel the factor t + 1 that y's image shares with x's
    assert proc.stdout == "(t^3 + 5*t^2 + 9*t + 7) / (t^2 + 5*t + 6)\n"


def test_protocol_corners_of_poly_and_ratfun():
    assert Poly.zero().content() == 1
    assert str(1 - x) == "-x + 1"
    assert repr(x + 1) == "Poly(x + 1)"
    assert repr(RatFun(x, y)) == "RatFun((x) / (y))"
    # the constructor keeps a constant denominator, and prints the numerator alone
    assert str(RatFun(x)) == "x"
    rf = RatFun(x, y)
    assert (rf == "a") is False
    for combine in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            combine(rf, "a")


def test_ratfun_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        RatFun(x, Poly.zero())
    with pytest.raises(ZeroDivisionError):
        RatFun(x) / RatFun.const(0)


def test_ratfun_powers_are_nonnegative_as_for_polynomials():
    rf = RatFun(x, y + 1)
    assert rf ** 2 == RatFun(x * x, (y + 1) ** 2)
    with pytest.raises(ValueError):
        rf ** -1
    with pytest.raises(ValueError):
        x ** -1


def test_a_number_over_a_ratfun_is_not_defined():
    with pytest.raises(TypeError):
        1 / RatFun(x, y + 1)
    assert Poly.const(1) / RatFun(x, y + 1) == RatFun(y + 1, x)


def test_partial_derivative_examples():
    assert (x * x * y).partial(X) == 2 * x * y
    assert Poly.const(5).partial(X) == Poly.zero()
    # d/dy is the derivation with images x -> 0, y -> 1: d(x/y)/dy = -x/y^2,
    # and a RatFun over a constant denominator derives its numerator
    d_dy = DerSpec(images={X: 0, Y: 1})
    assert apply_derivation(RatFun(x, y), d_dy) == RatFun(-x, y * y)
    assert apply_derivation(RatFun(x * y, 2), d_dy) == x / 2


def test_partials_commute():
    rng = random.Random(11)
    vars_ = [X, Y, T]
    for _ in range(50):
        p = rand_poly(rng, vars_)
        assert p.partial(X).partial(Y) == p.partial(Y).partial(X)


def test_evaluate_examples():
    p = x * x + y
    assert p.evaluate({X: 2, Y: 3}) == RatFun.const(7)
    q = RatFun(Poly.const(1), x)
    with pytest.raises(PoleError):
        q.evaluate({X: 0})
    assert (x * x - t).evaluate({X: t, T: t}) == RatFun(t * t - t)


def test_evaluate_requires_coverage():
    with pytest.raises(UncoveredVariableError):
        (x + y).evaluate({X: 1})


def test_evaluate_is_a_homomorphism():
    rng = random.Random(23)
    vars_ = [X, Y]
    binding = {X: RatFun(t + 1, t), Y: RatFun(t * t)}
    for _ in range(25):
        p = rand_poly(rng, vars_, max_degree=3)
        q = rand_poly(rng, vars_, max_degree=3)
        assert (p * q).evaluate(binding) == p.evaluate(binding) * q.evaluate(binding)
        assert (p + q).evaluate(binding) == p.evaluate(binding) + q.evaluate(binding)


def test_pseudo_remainder_examples():
    p = x * x - t
    rem, mult, quot = pseudo_remainder(x * x, p, X)
    assert rem == t
    assert mult == Poly.const(1)
    assert quot == Poly.const(1)

    rem, _, _ = pseudo_remainder(y, p, X)
    assert rem == y

    rem, _, _ = pseudo_remainder(p, p, X)
    assert rem.is_zero


def test_pseudo_remainder_identity_random():
    rng = random.Random(5)
    vars_ = [X, Y, T]
    for _ in range(40):
        f = rand_poly(rng, vars_, max_degree=4)
        p = rand_nonzero_poly(rng, vars_, max_degree=3)
        if p.deg_in(X) == 0:
            p = p + x * x
        rem, mult, quot = pseudo_remainder(f, p, X)
        assert mult * f == quot * p + rem
        assert rem.deg_in(X) < p.deg_in(X)


def test_pseudo_remainder_rejects_free_divisor():
    with pytest.raises(ValueError):
        pseudo_remainder(x, y + 1, X)


def test_divide_exact():
    assert divide_exact(x * x - 1, x - 1) == x + 1
    assert divide_exact(x * x + 1, x - 1) is None


def test_solve_affine_example_circle():
    space = solve_affine([[2, 0]], [0], n=2)
    assert space.rank == 1
    assert space.consistent
    assert space.dimension == 1
    ((k0, k1),) = space.kernel
    assert k0 == RatFun.const(0) and k1 == RatFun.const(1)


def test_solve_affine_empty_and_inconsistent():
    space = solve_affine([], [], n=4)
    assert space.rank == 0 and space.dimension == 4 and space.consistent

    bad = solve_affine([[Poly.zero()]], [Poly.const(1)])
    assert not bad.consistent
    assert bad.particular is None


def test_solve_affine_solutions_satisfy_system():
    rng = random.Random(17)
    for _ in range(20):
        m_rows = rng.randint(1, 3)
        n_cols = rng.randint(1, 4)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n_cols)] for _ in range(m_rows)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(m_rows)]
        space = solve_affine(a, b)
        assert space.rank + space.dimension == n_cols
        if space.consistent:
            for row, rhs in zip(a, b):
                total = sum(
                    (RatFun.const(cf) * sol for cf, sol in zip(row, space.particular)),
                    RatFun.const(rhs),
                )
                assert total.is_zero
            for vec in space.kernel:
                for row in a:
                    total = sum(
                        (RatFun.const(cf) * comp for cf, comp in zip(row, vec)),
                        RatFun.const(0),
                    )
                    assert total.is_zero


# ----------------------------------------------------------------------
# ring axioms on random triples


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 9), st.integers(1, 3))
def test_ring_axioms(seed, nvars):
    rng = random.Random(seed)
    vars_ = [X, Y, T, C][:nvars]
    p = rand_poly(rng, vars_)
    q = rand_poly(rng, vars_)
    r = rand_poly(rng, vars_)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_ring_axioms_500_triples():
    rng = random.Random(1234)
    for _ in range(500):
        nvars = rng.randint(1, 4)
        vars_ = [X, Y, T, C][:nvars]
        p = rand_poly(rng, vars_, max_degree=4)
        q = rand_poly(rng, vars_, max_degree=4)
        r = rand_poly(rng, vars_, max_degree=4)
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_ratfun_field_axioms_random():
    rng = random.Random(3)
    vars_ = [X, Y]
    for _ in range(30):
        a = RatFun(rand_poly(rng, vars_, max_degree=2), rand_nonzero_poly(rng, vars_, max_degree=2))
        b = RatFun(rand_poly(rng, vars_, max_degree=2), rand_nonzero_poly(rng, vars_, max_degree=2))
        assert a + b == b + a
        assert a * b == b * a
        assert a - a == RatFun.const(0)
        if not b.is_zero:
            assert (a / b) * b == a


# The rule the monomial order replaced, kept as a reference: each polynomial
# ordered its terms by degree, then by the exponent vector over its own
# variables, highest variable first.
def _reference_sorted_terms(p: Poly) -> list:
    own = sorted(p.variables(), reverse=True)

    def key(term):
        powers = dict(term[0].powers)
        return term[0].degree, tuple(powers.get(v, 0) for v in own)

    return sorted(p.terms.items(), key=key, reverse=True)


def _reference_leading_coeff_in(p: Poly, v: JetVar) -> Poly:
    top = max((m.deg_in(v) for m in p.terms), default=0)
    return Poly({m.without(v): c for m, c in p.terms.items() if m.deg_in(v) == top})


_D1, _D2 = MonoidElem.exponents((1, 0)), MonoidElem.exponents((0, 1))
MIXED_VARS = [
    C,
    T,
    X,
    JetVar("x", MonoidElem.exponents((0, 0))),
    JetVar("x", _D1),
    JetVar("x", _D2),
    JetVar("x", MonoidElem.exponents((1, 1))),
    JetVar("x", MonoidElem.exponents((2, 0))),
    JetVar("y", _D1),
    JetVar("x", MonoidElem.word(2, ())),
    JetVar("x", MonoidElem.word(2, (1,))),
    JetVar("x", MonoidElem.word(2, (1, 2))),
    JetVar("x", MonoidElem.word(2, (2, 1))),
    JetVar("y", MonoidElem.word(2, (2,))),
]


def test_monomial_order_and_lead_in_match_the_per_polynomial_rule():
    rng = random.Random(41)
    for _ in range(3000):
        vars_ = rng.sample(MIXED_VARS, rng.randint(1, 5))
        p = rand_nonzero_poly(rng, vars_, max_terms=6, max_degree=4)
        reference = _reference_sorted_terms(p)
        assert sorted(p.terms, reverse=True) == [m for m, _ in reference]
        assert p.leading_term() == reference[0]
        for v in vars_ + [JetVar("z")]:
            assert p.lead_in(v) == (p.deg_in(v), _reference_leading_coeff_in(p, v))
    assert Poly.zero().lead_in(X) == (0, Poly.zero())


def test_printing_is_canonical_and_deterministic():
    p = x * x - 1
    assert str(p) == "x^2 - 1"
    q = 2 * x * y + y ** 2 - Fraction(1, 2)
    assert str(q) == "y^2 + 2*x*y - 1/2"
    assert str(RatFun(-x * x, t * t)) == "(-x^2) / (t^2)"
    theta = MonoidElem.exponents((1, 0))
    jet = Poly.variable(JetVar("x", theta))
    assert str(jet) == "x[d1]"
