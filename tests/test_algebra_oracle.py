"""The polynomial core against SymPy, an independent oracle, on seeded random inputs.

SymPy is used by the tests only; the engine never imports it.  Values go to
SymPy's sparse polynomial ring over QQ and its field of fractions, whose
elements are kept in lowest terms (as `sympy.cancel` would), so equal
values compare equal.
"""

import random

import pytest

from conftest import rand_nonzero_poly, rand_poly, rand_ratfun
from diffalg.algebra import JetVar, Poly, RatFun, divide_exact, pseudo_remainder
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


def test_field_operations_match_sympy():
    rng = random.Random(2024)
    for _ in range(40):
        a = rand_ratfun(rng, VARS, max_terms=3, max_degree=2)
        b = rand_ratfun(rng, VARS, max_terms=3, max_degree=2) if rng.random() < 0.5 else rand_poly(rng, VARS, max_terms=3)
        fa, fb = to_field(a), to_field(b)
        assert to_field(a + b) == fa + fb, (a, b)
        assert to_field(a - b) == fa - fb, (a, b)
        assert to_field(a * b) == fa * fb, (a, b)
        if not b.is_zero:
            assert to_field(a / b) == fa / fb, (a, b)


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
            sp = to_ring(p)
            assert degree == max(sp.degree(GENS[v]), 0)
            assert to_ring(lead) == sp.coeff_wrt(GENS[v], degree), (p, v)


def test_to_field_reads_a_fraction():
    x, t = (Poly.variable(v) for v in VARS[::2])
    gx, gt = GENS[VARS[0]], GENS[VARS[2]]
    assert to_field(RatFun(x * t - 1, t + 1)) == FIELD(gx * gt - 1) / FIELD(gt + 1)
    assert to_field(RatFun(x * x - 1, x - 1)) == FIELD(gx + 1)
