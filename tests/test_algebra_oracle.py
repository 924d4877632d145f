"""The polynomial core against SymPy, an independent oracle, on seeded random inputs.

SymPy is used by the tests only; the engine never imports it.  Values go to
SymPy's sparse polynomial ring over QQ and its field of fractions, whose
elements are kept in lowest terms (as `sympy.cancel` would), so equal
values compare equal.

Every result the oracle sees is also held to the coefficient rule of
`diffalg.algebra` (`assert_lean`): each coefficient is a nonzero `int`, or a
`Fraction` whose denominator is not 1, and never a float.
"""

import random
from fractions import Fraction

import pytest

from conftest import rand_nonzero_poly, rand_poly, rand_ratfun
from diffalg import algebra
from diffalg.algebra import (
    JetVar,
    Monomial,
    Poly,
    RatFun,
    as_value,
    divide_exact,
    fraction,
    over_one_base,
    pseudo_remainder,
    solve_affine,
)
from diffalg.config import _rational_root
from diffalg.derivation import Tower
from diffalg.errors import NonInvertibleError
from diffalg.monoid import MonoidElem

sympy = pytest.importorskip("sympy")

VARS = [JetVar("x"), JetVar("y"), JetVar("t"), JetVar("x", MonoidElem.exponents((1, 0)))]
RING, *_GENS = sympy.ring([str(v) for v in VARS], sympy.QQ)
FIELD = RING.to_field()
GENS = dict(zip(VARS, _GENS))


def to_ring(p: Poly):
    out = RING(0)
    for m, c in p.terms.items():
        term = RING(sympy.QQ(c.numerator, c.denominator))
        for v, e in m.powers:
            term *= GENS[v] ** e
        out += term
    return out


def to_field(value):
    return FIELD(to_ring(value.num)) / FIELD(to_ring(value.den))


def assert_lean(*values):
    """Each coefficient of each `Poly` or `RatFun` keeps the coefficient rule."""
    for value in values:
        for poly in (value.num, value.den):
            for c in poly.terms.values():
                assert c.__class__ is int or (c.__class__ is Fraction and c.denominator != 1), (value, c)
                assert c != 0, value


def _sharing_operands(rng):
    """Two sums of fractions whose denominators share a factor f, one of
    them over f and the other over f^2, so the merge of their bases splits."""
    t = Poly.variable(VARS[2])
    f = rng.choice([t + 1, rand_nonzero_poly(rng, VARS, max_terms=2, max_degree=1) * t + 2])

    def part(den):
        return RatFun(rand_poly(rng, VARS, max_terms=2, max_degree=2), den)

    other = rand_nonzero_poly(rng, VARS, max_terms=2, max_degree=1) + 1
    return part(f) + part(other), part(f ** 2) * part(other + Poly.variable(VARS[0]))


def test_field_operations_match_sympy():
    rng = random.Random(2024)
    for i in range(60):
        if i < 40:
            a = rand_ratfun(rng, VARS, max_terms=3, max_degree=2)
            if rng.random() < 0.5:
                b = rand_ratfun(rng, VARS, max_terms=3, max_degree=2)
            else:
                b = rand_poly(rng, VARS, max_terms=3)
        else:
            a, b = _sharing_operands(rng)
        assert_lean(a, b)
        fa, fb = to_field(a), to_field(b)
        results = [(a + b, fa + fb), (a - b, fa - fb), (a * b, fa * fb), (a ** 2, fa ** 2), (b ** 3, fb ** 3)]
        if not b.is_zero:
            results.append((a / b, fa / fb))
        for got, want in results:
            assert_lean(got)
            assert to_field(got) == want, (a, b)


def test_pseudo_remainder_matches_sympy_prem():
    rng = random.Random(7)
    checked = 0
    while checked < 60:
        main = rng.choice(VARS)
        f = rand_poly(rng, VARS, max_terms=4, max_degree=4)
        p = rand_nonzero_poly(rng, VARS, max_terms=3, max_degree=3)
        d, lead = p.lead_in(main)
        if d == 0:
            continue
        checked += 1
        rem, mult, quo = pseudo_remainder(f, p, main)
        assert_lean(rem, mult, quo)
        assert mult * f == quo * p + rem
        assert rem.deg_in(main) < d
        # mult = lead^k after the k steps taken; sympy.prem multiplies by lead^(delta + 1)
        k = 0
        while lead ** k != mult:
            k += 1
            assert k <= f.deg_in(main), (f, p, main)
        delta = max(f.deg_in(main) - d, -1)
        want = to_ring(f).prem(to_ring(p), GENS[main])
        assert want == to_ring(lead) ** (delta + 1 - k) * to_ring(rem), (f, p, main)


def test_divide_exact_matches_sympy_div():
    rng = random.Random(11)
    hits = 0
    for _ in range(60):
        b = rand_nonzero_poly(rng, VARS, max_terms=3, max_degree=2)
        if rng.random() < 0.5:
            a = b * rand_poly(rng, VARS, max_terms=3, max_degree=2)
        else:
            a = rand_poly(rng, VARS, max_terms=4, max_degree=3)
        got = divide_exact(a, b)
        if got is not None:
            assert_lean(got)
        # one divisor is a Groebner basis of its ideal: the remainder is 0 exactly when b divides a
        quotient, remainder = to_ring(a).div(to_ring(b))
        if remainder == 0:
            hits += 1
            assert got is not None and to_ring(got) == quotient, (a, b)
        else:
            assert got is None, (a, b)
    assert 20 <= hits < 60


def test_lead_in_matches_sympy_leading_coefficient():
    rng = random.Random(5)
    for _ in range(60):
        p = rand_poly(rng, VARS, max_terms=5, max_degree=4)
        for v in VARS:
            degree, lead = p.lead_in(v)
            assert_lean(lead)
            sp = to_ring(p)
            assert degree == max(sp.degree(GENS[v]), 0)
            assert to_ring(lead) == sp.coeff_wrt(GENS[v], degree), (p, v)


def test_to_field_reads_a_fraction():
    x, t = (Poly.variable(v) for v in VARS[::2])
    gx, gt = GENS[VARS[0]], GENS[VARS[2]]
    assert to_field(RatFun(x * t - 1, t + 1)) == FIELD(gx * gt - 1) / FIELD(gt + 1)
    assert to_field(RatFun(x * x - 1, x - 1)) == FIELD(gx + 1)


def test_fraction_layer_results_keep_the_coefficient_rule():
    # values over a FactorBase and its derive against SymPy's derivative, solve_affine and Tower.invert
    rng = random.Random(19)
    x, t = VARS[0], VARS[2]
    one = Poly.const(1)
    for _ in range(30):
        # a constant term keeps RatFun from cancelling a monomial factor off a denominator
        dens = [
            rand_poly(rng, VARS, max_terms=2, max_degree=2) * Poly.variable(x) + rng.choice([1, -2, Fraction(3, 2)])
            for _ in range(2)
        ]
        value = RatFun(rand_poly(rng, VARS, max_terms=3, max_degree=2), dens[0] * dens[1])
        base, (f,) = over_one_base([value], dens)
        assert_lean(*base.factors)
        assert_lean(f.numer)
        assert to_field(f) == to_field(value)
        df = base.derive(f, lambda v: one if v == x else None, {})
        assert_lean(df.numer)
        assert to_field(df) == to_field(value).diff(FIELD(GENS[x])), value

        rows = [[rand_ratfun(rng, VARS, max_terms=2, max_degree=1) for _ in range(2)] for _ in range(2)]
        space = solve_affine(rows, [rand_poly(rng, VARS, max_terms=2, max_degree=1) for _ in range(2)])
        assert_lean(*(space.particular or ()), *(y for vec in space.kernel for y in vec))

    c = JetVar("c")
    tower = Tower([t], {t: one}).extend(Poly.variable(c) ** 2 - Poly.variable(t) * Fraction(1, 2) - 3, c)
    inverted = 0
    for _ in range(20):
        num = rand_nonzero_poly(rng, [t, c], max_terms=3, max_degree=2)
        elem = RatFun(num, rand_nonzero_poly(rng, [t], max_degree=1))
        try:
            inv = tower.invert(elem)
        except NonInvertibleError:
            continue
        assert_lean(inv)
        assert tower.is_zero(inv * elem - 1), elem
        inverted += 1
    assert inverted >= 15


def _two_factor_base(rng):
    x, y = (Poly.variable(v) for v in VARS[:2])
    while True:
        # each factor keeps a constant term, so RatFun cancels no monomial off B^e
        dens = [rand_poly(rng, VARS, max_terms=2, max_degree=1) * z + rng.choice([1, -2, Fraction(3, 2)]) for z in (x, y)]
        base, _ = over_one_base([], dens)
        if len(base.factors) == 2:
            return base


def _rand_image(rng, base):
    """A random value over the base, zero or None (no image)."""
    kind = rng.random()
    exps = (rng.randint(0, 2), rng.randint(0, 2))
    if kind < 0.15:
        return None
    if kind < 0.3:
        return fraction(Poly.zero(), base, exps)
    return fraction(rand_nonzero_poly(rng, VARS, max_terms=3, max_degree=2), base, exps)


def _sympy_derivative(f, images):
    """sum_v df/dv * D(v) in SymPy's field, with D(v) the value of images[v]."""
    value = to_field(f)
    total = FIELD(0)
    for v, dv in images.items():
        if dv is not None:
            total += value.diff(FIELD(GENS[v])) * to_field(dv)
    return total


def test_derive_matches_the_sum_of_partials_times_images():
    # the term-by-term Leibniz kernel of FactorBase.derive against SymPy
    rng = random.Random(1973)
    for _ in range(60):
        base = _two_factor_base(rng)
        images = {v: _rand_image(rng, base) for v in VARS}
        memo = {}  # one D per base: the memo of D(b_j)/b_j carries over
        for _ in range(2):
            # exponents up to 3 in N, Fraction coefficients from rand_fraction
            num = rand_poly(rng, VARS, max_terms=4, max_degree=3)
            f = fraction(num, base, (rng.randint(0, 2), rng.randint(0, 2)))
            df = base.derive(f, images.get, memo)
            assert_lean(f.numer, df.numer)
            assert to_field(df) == _sympy_derivative(f, images), (f, images)

    # sums that cancel: D(x*y) = x*y*g - x*y*g and D(x - y) = g - g leave
    # only the terms of the denominator, and nothing at all over B^0
    base = _two_factor_base(rng)
    x, y = VARS[:2]
    g = fraction(rand_nonzero_poly(rng, VARS, max_terms=3, max_degree=2) * Fraction(1, 3), base, (1, 2))
    xy = Poly.variable(x) * Poly.variable(y)
    cases = [
        (xy, {v: fraction(sign * Poly.variable(v) * g.numer, base, g.exps) for v, sign in ((x, 1), (y, -1))}),
        (Poly.variable(x) - Poly.variable(y), {x: g, y: g}),
    ]
    for num, images in cases:
        assert base.derive(num, images.get, {}).numer.is_zero
        f = fraction(num, base, (2, 1))
        df = base.derive(f, images.get, {})
        assert_lean(df.numer)
        assert to_field(df) == _sympy_derivative(f, images)


def _normal_reference(x: RatFun) -> tuple[Poly, Poly]:
    """The normal form in full, every denominator tried as a divisor."""
    num, den = x.numer, x.base.power(x.exps)
    shared = num.monomial_content().gcd(den.monomial_content())
    if shared:
        num, den = num.divide_monomial(shared), den.divide_monomial(shared)
    if den.is_constant:
        return num * (1 / Fraction(den.constant_value())), Poly.const(1)
    q = divide_exact(num, den)
    if q is not None:
        return q, Poly.const(1)
    scale = den.content()
    inv = 1 / (scale if den.leading_term()[1] > 0 else -scale)
    return num * inv, den * inv


def _rule_case(rng):
    """N / B^e over a base of one single-term factor and one or two others,
    N sharing a monomial with B^e, or a multiple of B^e, or neither."""
    x, y, t = (Poly.variable(v) for v in VARS[:3])
    single = rng.choice([Fraction(3), Fraction(-2, 3), Fraction(1)]) * rng.choice([t, t * t, x * y])
    others = [rand_nonzero_poly(rng, VARS, max_terms=2, max_degree=1) * x + rng.choice([1, -2]) for _ in range(2)]
    base, _ = over_one_base([], [single] + others[: rng.randint(1, 2)])
    exps = tuple(rng.randint(0, 2) for _ in base.factors)
    numer = rand_nonzero_poly(rng, VARS, max_terms=3, max_degree=2)
    kind = rng.random()
    if kind < 0.3:
        numer = numer * single ** rng.randint(1, 3)
    elif kind < 0.6:
        numer = numer * base.power(exps)
    return fraction(numer, base, exps)


def _lowest_den(x: RatFun) -> Poly:
    """B^e with the monomial content it shares with N removed."""
    den = x.base.power(x.exps)
    return den.divide_monomial(x.numer.monomial_content().gcd(den.monomial_content()))


def test_the_value_rule_matches_the_full_normal_form():
    rng = random.Random(1923)
    seen = {"single term": 0, "constant": 0, "divides": 0, "stays": 0}
    for _ in range(300):
        x = _rule_case(rng)
        if not isinstance(x, RatFun):
            continue
        twin = fraction(x.numer, x.base, x.exps)
        num, den = _normal_reference(twin)
        expected = num if den.is_constant else twin
        got = as_value(x)  # no normal form kept yet: decided without scaling
        assert type(got) is type(expected), x
        assert got.terms == expected.terms if isinstance(got, Poly) else got is x, x
        # the kept normal form is the full one and gives the same decision
        assert (x.num.terms, x.den.terms) == (num.terms, den.terms), x
        assert x._normal() is x._normal()
        again = as_value(x)
        assert type(again) is type(got) and again == got
        # and SymPy agrees: a polynomial exactly when the reduced denominator is constant
        value = FIELD(to_ring(x.numer)) / FIELD(to_ring(x.base.power(x.exps)))
        assert to_field(got) == value and isinstance(got, Poly) == value.denom.is_ground, x
        rest = _lowest_den(twin)
        if rest.is_constant:
            seen["constant"] += 1
        else:
            seen["divides" if isinstance(got, Poly) else "single term" if len(rest.terms) == 1 else "stays"] += 1
    assert min(seen.values()) >= 20, seen


def test_evaluate_computes_the_normal_form_once(monkeypatch):
    calls = []
    lowest = algebra._lowest
    monkeypatch.setattr(algebra, "_lowest", lambda x: calls.append(x) or lowest(x))
    x, y, t = (Poly.variable(v) for v in VARS[:3])
    value = RatFun(x * x + y, t + 1) * RatFun(t, x - 1)
    assert value.evaluate({VARS[0]: 2, VARS[1]: 3, VARS[2]: 1}) == Poly.const(Fraction(7, 2))
    assert len(calls) == 1 and calls[0] is value
    assert str(value) == "(t*x^2 + t*y) / (t*x + x - t - 1)" and len(calls) == 1


def test_divisions_of_coefficients_stay_exact():
    x, y = (Poly.variable(v) for v in VARS[:2])
    quotient = divide_exact(2 * x, Poly.const(4))
    assert quotient.terms == {Monomial.of(VARS[0]): Fraction(1, 2)}
    assert_lean(quotient)

    root = _rational_root(2 * x + 1, VARS[0])
    assert root == Fraction(-1, 2) and root.__class__ is Fraction

    # the factor x/3 + 1/3 splits x + 1 with a constant rest of 3
    base, (f,) = over_one_base([RatFun(y, x + 1)], [(x + 1) * Fraction(1, 3)])
    assert base.factors == [(x + 1) * Fraction(1, 3)] and f.base is base
    assert f.exps == (1,) and f.numer.terms == {Monomial.of(VARS[1]): Fraction(1, 3)}
    assert_lean(f.numer)


def test_the_constructor_normalises_coefficients():
    one = Monomial.one()
    assert Poly({one: Fraction(4, 2)}).terms[one].__class__ is int
    assert Poly({one: Fraction(1, 2)}).terms[one] == Fraction(1, 2)
    assert Poly({one: True}).terms[one].__class__ is int
    assert Poly({one: Fraction(0), Monomial.of(VARS[0]): 0}).is_zero
    with pytest.raises(TypeError, match="not an exact coefficient"):
        Poly({one: 0.5})
    # integral results of Fraction arithmetic are ints again
    half = Poly.const(Fraction(1, 2))
    assert_lean(half + half, half * 2, (half * Poly.variable(VARS[0])).partial(VARS[0]) * 2)
    assert (half + half).terms[one].__class__ is int


def _sympy_rational_roots(p: Poly) -> set[Fraction]:
    """The rational roots of a polynomial in x alone: its linear factors over QQ."""
    x = sympy.Symbol("x")
    factors = sympy.Poly(to_ring(p).as_expr(), x, domain=sympy.QQ).factor_list()[1]
    roots = (-f.nth(0) / f.nth(1) for f, _ in factors if f.degree() == 1)
    return {Fraction(int(r.p), int(r.q)) for r in roots}


def test_rational_root_matches_sympy_roots():
    x = Poly.variable(VARS[0])
    rng = random.Random(11)
    seen = {"p/q, q > 1": 0, "fraction coefficients": 0, "none": 0}
    for _ in range(120):
        degree = rng.randint(2, 4)
        # up to `degree` roots p/q with q in 1..4, the rest of the factors random
        p, left = Poly.const(1), degree
        for _ in range(rng.randint(0, degree)):
            root = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            p, left = p * (root.denominator * x - root.numerator), left - 1
            seen["p/q, q > 1"] += root.denominator > 1
        if left:
            p = p * sum((rng.randint(-5, 5) * x ** e for e in range(left)), x ** left)
        if rng.random() < 0.3:
            p = p * Fraction(rng.randint(1, 5), rng.randint(2, 7))
            seen["fraction coefficients"] += 1
        expected = _sympy_rational_roots(p)
        root = _rational_root(p, VARS[0])
        if root is None:
            assert not expected, p
            seen["none"] += 1
        else:
            assert root.__class__ is Fraction and root in expected, (p, root)
    assert all(seen.values()), seen
