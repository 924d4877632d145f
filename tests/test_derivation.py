import random
from fractions import Fraction

import pytest

from conftest import rand_nonzero_poly, rand_poly, rand_ratfun
from diffalg.algebra import JetVar, Poly, RatFun, divide_exact, var
from diffalg.derivation import (
    DerSpec,
    Tower,
    apply_derivation,
    coeff_derivative,
    extend_to_algebraic,
    implicit_delta,
    partner_var,
    twisted_lift,
)
from diffalg.errors import (
    EngineError,
    NonInvertibleError,
    SeparantZeroError,
    UncoveredVariableError,
    UndeclaredParameterError,
)
from diffalg.jet import DiffModel, TDer, oracle_eval, rewrite_term
from diffalg.monoid import FREE
from diffalg.parsing import parse_derspec, parse_expression, parse_term

X, Y, T, C, U = JetVar("x"), JetVar("y"), JetVar("t"), JetVar("c"), JetVar("u")
x, y, t, c, u = (var(n) for n in "xytcu")
yx = Poly.variable(partner_var(X))


def test_twisted_lift_constant_coefficients():
    lift, coeff = twisted_lift(x * x, DerSpec())
    assert lift == 2 * x * yx
    assert coeff == Poly.zero()


def test_twisted_lift_leibniz_on_parameter():
    spec = DerSpec(eta={C: Poly.const(1)})
    lift, coeff = twisted_lift(c * x, spec)
    assert lift == x + c * yx
    assert coeff == x


def test_twisted_lift_quotient_rule():
    spec = DerSpec(eta={T: Poly.const(1)})
    q = RatFun(x * x, t)
    lift, coeff = twisted_lift(q, spec)
    assert lift == RatFun(-(x * x), t * t) + RatFun(2 * x, t) * yx
    assert coeff == RatFun(-(x * x), t * t)


def test_apply_derivation_examples():
    assert apply_derivation(x * x, DerSpec(images={X: Poly.const(1)})) == 2 * x
    spec = DerSpec(images={X: var("u"), Y: var("v")})
    assert apply_derivation(x * y, spec) == u * y + x * var("v")
    spec = DerSpec(eta={T: Poly.const(1)}, images={X: var("u")})
    assert apply_derivation(RatFun(x * x, t), spec) == RatFun(-(x * x), t * t) + RatFun(2 * x * u, t)


def test_apply_derivation_uncovered_variable():
    with pytest.raises(UncoveredVariableError):
        apply_derivation(x * y, DerSpec(images={X: Poly.const(1)}))


def test_derspec_closure_validation():
    with pytest.raises(UndeclaredParameterError):
        DerSpec(eta={T: var("u")})  # u not declared
    with pytest.raises(UndeclaredParameterError):
        DerSpec(eta={T: Poly.const(1)}, images={T: Poly.const(2)})


def test_lift_specializes_to_apply():
    rng = random.Random(41)
    spec = DerSpec(eta={T: Poly.const(1)}, images={X: var("u"), Y: x * x})
    for _ in range(60):
        p = rand_poly(rng, [X, Y, T], max_degree=3)
        lift, _ = twisted_lift(p, spec)
        binding = {v: Poly.variable(v) for v in lift.variables()}
        binding[partner_var(X)] = spec.images[X]
        binding[partner_var(Y)] = spec.images[Y]
        assert lift.substitute(binding) == apply_derivation(p, spec)


def test_apply_derivation_is_a_derivation():
    rng = random.Random(43)
    spec = DerSpec(eta={T: t}, images={X: var("u"), Y: RatFun(x, t)})
    for _ in range(50):
        p = rand_poly(rng, [X, Y, T], max_degree=3)
        q = rand_poly(rng, [X, Y, T], max_degree=3)
        assert apply_derivation(p * q, spec) == apply_derivation(p, spec) * q + p * apply_derivation(q, spec)
        assert apply_derivation(p + q, spec) == apply_derivation(p, spec) + apply_derivation(q, spec)


def test_coeff_derivative_only_touches_parameters():
    spec = DerSpec(eta={T: Poly.const(1)})
    assert coeff_derivative(t * x * x, spec.eta) == x * x
    assert coeff_derivative(x * x, spec.eta) == Poly.zero()


def _sympy_value(sympy, q):
    names = {n: sympy.Symbol(n) for n in "xytuv"}
    return sympy.sympify(f"({q.num}) / ({q.den})".replace("^", "**"), locals=names)


@pytest.mark.parametrize("fractional", [False, True], ids=["polynomial tables", "fractional tables"])
def test_apply_derivation_matches_sympy_on_random_fractions(fractional):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(71 + fractional)
    mains = [X, Y, T]

    def image(variables):
        if fractional:
            return rand_ratfun(rng, variables, max_terms=2, max_degree=2)
        return rand_poly(rng, variables, max_terms=2, max_degree=2)

    for _ in range(25):
        spec = DerSpec(eta={T: image([T])}, images={X: image([X, T, U]), Y: image([Y, JetVar("v")])})
        q = RatFun(rand_poly(rng, mains, max_degree=3), rand_nonzero_poly(rng, mains, max_terms=3, max_degree=2))
        got = apply_derivation(q, spec)
        sq = _sympy_value(sympy, q)
        want = sum(
            sympy.diff(sq, sympy.Symbol(str(v))) * _sympy_value(sympy, image)
            for v, image in {**spec.eta, **spec.images}.items()
        )
        want_num, want_den = sympy.fraction(sympy.together(want))
        got_num, got_den = sympy.fraction(_sympy_value(sympy, got))
        assert sympy.expand(got_num * want_den - want_num * got_den) == 0, (q, spec)
        bound = q.den * q.den
        if fractional:
            # each distinct image denominator enters once, over the factor base
            for den in {image.den for image in (*spec.eta.values(), *spec.images.values())}:
                bound = bound * den
        assert divide_exact(bound, got.den) is not None, (q, spec, got)


def test_coeff_derivative_of_a_fraction_takes_one_quotient_step():
    s = var("s")
    m = t * s + 1
    eta = {T: Poly.const(1), JetVar("s"): Poly.const(1)}
    got = coeff_derivative(RatFun(x, m), eta)
    assert got == RatFun(-x * (s + t), m * m)
    assert got.den.total_degree() <= 4
    assert twisted_lift(RatFun(x * y, m), DerSpec(eta=eta)).lift.den.total_degree() <= 4


def test_iterated_derivatives_over_a_linear_denominator_grow_linearly():
    # d1^n (t*x) with t' = 1/(t + 1): the exact denominator is (t + 1)^(2n - 1)
    term = parse_term("t * x")
    for n in range(1, 7):
        term = TDer(1, term)
        got = rewrite_term(term, eta={T: RatFun(1, t + 1)})
        assert got.den.total_degree() == 2 * n - 1, (n, got.den)
        assert divide_exact((t + 1) ** (2 * n - 1), got.den) is not None


def test_derive_shares_the_image_denominator_with_the_fraction():
    value = parse_expression("x^2*t + x/t")
    got = apply_derivation(value, parse_derspec("eta: t -> 1/(t + 1); d: x -> u/t"))
    assert got.den == t ** 3 + t ** 2
    assert got == 2 * x * u + x * x / (t + 1) + RatFun(u, t * t) - RatFun(x, t * t * (t + 1))


def test_oracle_denominators_grow_linearly_per_order():
    # d1^n (x^3 + 2*x*t) over Q(t)[c]/(c^2 - t - 2), t' = 1, at x = c*t + 1:
    # the denominator is a power of the separant 2c, one more square per order
    tower = Tower([T], {T: Poly.const(1)}).extend(c * c - t - 2, C)
    model = DiffModel([tower])
    term = parse_term("x*x*x + 2*x*t")
    for n in range(1, 8):
        term = TDer(1, term)
        value = oracle_eval(term, model, {"x": c * t + 1}, FREE)
        assert value.den.total_degree() <= 2 * n - 1, n
    # d1^n (x^2 + x*t) over e^2 = c + t on top of it, at x = e*t + c
    model = DiffModel([tower.extend(e * e - c - t, E)])
    term = parse_term("x*x + x*t")
    for n in range(1, 6):
        term = TDer(1, term)
        value = oracle_eval(term, model, {"x": e * t + c}, FREE)
        assert value.den.total_degree() <= 4 * n - 2, n


# ----------------------------------------------------------------------
# towers


def sqrt_t_tower():
    base = Tower([T], {T: Poly.const(1)})
    return extend_to_algebraic(base, c * c - t, C)


def test_extend_square_root():
    tower = sqrt_t_tower()
    stage = tower.stages[0]
    assert stage.dvalue == RatFun(Poly.const(1), 2 * c)
    assert tower.is_zero(c * c - t)
    assert not tower.is_zero(c * c + t)
    reduced = tower.reduce(c * c * c)
    assert isinstance(reduced, Poly) and reduced == t * c


def test_extend_linear_identity_case():
    base = Tower([T], {T: Poly.const(1)})
    tower = extend_to_algebraic(base, c - t, C)
    assert tower.stages[0].dvalue == RatFun.const(1)


def test_extend_exponential_like():
    base = Tower([U], {U: u})
    tower = extend_to_algebraic(base, c * c - u, C)
    # u/(2c) equals c/2 once c^2 = u
    assert tower.equal(tower.stages[0].dvalue, RatFun(c, 2))


def test_extend_rejects_multiple_root():
    base = Tower([T], {T: Poly.const(1)})
    with pytest.raises(SeparantZeroError):
        extend_to_algebraic(base, (c - t) * (c - t), C)


def test_tower_zero_divisor_detection():
    base = Tower([T], {T: Poly.const(1)})
    tower = extend_to_algebraic(base, c * c - t * t, C)  # reducible but squarefree
    with pytest.raises(NonInvertibleError):
        tower.invert(c - t)


def test_tower_inverse_square_root():
    tower = sqrt_t_tower()
    inv = tower.invert(RatFun(c))
    assert tower.equal(inv * c, RatFun.const(1))
    assert tower.equal(inv, RatFun(c, t))


def test_tower_inverse_two_stages():
    tower = sqrt_t_tower()
    d = JetVar("e")
    tower = extend_to_algebraic(tower, Poly.variable(d) ** 2 - c, d)
    elem = RatFun(Poly.variable(d) + c)
    inv = tower.invert(elem)
    assert tower.equal(inv * elem, RatFun.const(1))


def test_tower_derivation_leibniz():
    tower = sqrt_t_tower()
    a = RatFun(c + t)
    b = RatFun(c * t - 1)
    lhs = tower.apply(a * b)
    rhs = tower.apply(a) * b + a * tower.apply(b)
    assert tower.equal(lhs, rhs)


def test_implicit_delta_examples():
    spec = DerSpec(eta={T: Poly.const(1)})
    assert implicit_delta(x * x - t, X, spec) == RatFun(Poly.const(1), 2 * x)

    spec = DerSpec(images={Y: var("v")})
    assert implicit_delta(x - y, X, spec) == RatFun(var("v"))

    spec = DerSpec(images={Y: var("v")})
    assert implicit_delta(x * y - 1, X, spec) == RatFun(-(x * var("v")), y)


def test_implicit_delta_requires_dependence():
    with pytest.raises(SeparantZeroError):
        implicit_delta(y + 1, X, DerSpec(images={Y: Poly.const(0)}))


def test_implicit_delta_matches_tower_value():
    # the two derivative formulas agree whenever both apply
    rng = random.Random(59)
    for _ in range(20):
        h = rand_poly(rng, [T], max_degree=3)
        deg = h.deg_in(T)
        if deg % 2 == 0:
            h = h + t ** (deg + 1)
        minpoly = c * c - h
        base = Tower([T], {T: Poly.const(1)})
        tower = extend_to_algebraic(base, minpoly, C)
        spec = DerSpec(eta={T: Poly.const(1)})
        assert tower.equal(implicit_delta(minpoly, C, spec), tower.stages[0].dvalue)


def test_extension_value_is_the_reduced_implicit_delta():
    # the stored derivative of each new generator prints as implicit_delta, reduced
    rng = random.Random(59)
    unit = Tower([T], {T: Poly.const(1)})
    cases = [
        (unit, c * c - t, C),
        (unit, c - t, C),
        (Tower([U], {U: u}), c * c - u, C),
        (unit, c * c - t * t, C),
        (sqrt_t_tower(), var("e") ** 2 - c, JetVar("e")),
    ]
    for _ in range(10):
        h = rand_poly(rng, [T], max_degree=3)
        cases.append((unit, c * c - h - t ** (h.deg_in(T) + 1), C))
    for base, minpoly, gen in cases:
        tower = extend_to_algebraic(base, minpoly, gen)
        expected = tower.reduce(implicit_delta(minpoly, gen, base.derspec()))
        assert str(tower.stages[-1].dvalue) == str(expected)


def test_tower_annihilates_defining_relation():
    tower = sqrt_t_tower()
    value = apply_derivation(RatFun(c * c - t), tower.derspec())
    assert tower.is_zero(value)


# ----------------------------------------------------------------------
# inversion and squarefreeness by the pseudo-remainder sequence

E = JetVar("e")
e = var("e")


def _sympy_of(sympy, p: Poly):
    return sympy.sympify(str(p).replace("^", "**"), locals={n: sympy.Symbol(n) for n in "tce"})


def test_tower_inverse_matches_sympy_on_random_towers():
    # inv * x = 1 in Q(t)[c]/(m), checked by SymPy's own division by m
    sympy = pytest.importorskip("sympy")
    sc = sympy.Symbol("c")
    rng = random.Random(61)
    base = Tower([T], {T: Poly.const(1)})
    inverted = 0
    for _ in range(40):
        d = rng.choice([2, 3])
        lead = rand_nonzero_poly(rng, [T], max_terms=2, max_degree=1)
        minpoly = lead * c**d
        for i in range(d):
            minpoly = minpoly + rand_poly(rng, [T], max_terms=2, max_degree=2) * c**i
        if rng.random() < 0.2:  # a double root
            minpoly = (lead * c - rand_poly(rng, [T], max_terms=2, max_degree=2)) ** 2
        sm = _sympy_of(sympy, minpoly)
        squarefree = sympy.degree(sympy.gcd(sm, sympy.diff(sm, sc)), sc) == 0
        if not squarefree:
            with pytest.raises(SeparantZeroError):
                extend_to_algebraic(base, minpoly, C)
            continue
        tower = extend_to_algebraic(base, minpoly, C)
        x = RatFun(rand_nonzero_poly(rng, [T, C], max_degree=3), rand_nonzero_poly(rng, [T], max_degree=2))
        if sympy.degree(sympy.gcd(_sympy_of(sympy, x.num), sm), sc) > 0:
            with pytest.raises(NonInvertibleError):
                tower.invert(x)
            continue
        inv = tower.invert(x)
        num = _sympy_of(sympy, inv.num) * _sympy_of(sympy, x.num)
        den = _sympy_of(sympy, inv.den) * _sympy_of(sympy, x.den)
        assert sympy.rem(sympy.expand(num - den), sm, sc, field=True) == 0, (minpoly, x, inv)
        inverted += 1
    assert inverted >= 25


def test_tower_inverse_non_monic_and_two_stage():
    base = Tower([T], {T: Poly.const(1)})
    non_monic = extend_to_algebraic(base, (t + 1) * c**3 - t * c + 2, C)
    two_stage = extend_to_algebraic(sqrt_t_tower(), c * e**2 - t * e - 1, E)
    cases = [
        (non_monic, c + t),
        (non_monic, RatFun(t * c**2 - 1, t + 2)),
        (two_stage, e + c),
        (two_stage, e * c - t),
        (two_stage, RatFun(e**2 + t, c + 1)),
        (two_stage, c),  # an element of the lower stage
    ]
    for tower, x in cases:
        inv = tower.invert(x)
        assert tower.equal(inv * x, Poly.const(1)), (tower, x)


def test_tower_zero_divisor_over_two_stages():
    # e^2 = t over c^2 = t: e - c and e + c are zero divisors, e * c is a unit
    tower = extend_to_algebraic(sqrt_t_tower(), e**2 - t, E)
    for x in (e - c, e + c, 2 * e - 2 * c):
        with pytest.raises(NonInvertibleError):
            tower.invert(x)
    inv = tower.invert(e * c)
    assert tower.equal(inv * e * c, Poly.const(1))
    # t*c^2 - t^3 = t(c - t)(c + t) is squarefree, with a non-monic leader
    reducible = extend_to_algebraic(Tower([T], {T: Poly.const(1)}), t * c**2 - t**3, C)
    with pytest.raises(NonInvertibleError):
        reducible.invert(c - t)
    assert reducible.equal(reducible.invert(c + 2 * t) * (c + 2 * t), Poly.const(1))


def test_extend_rejects_multiple_root_over_a_stage():
    # (e - c)^2 over c^2 = t, written out and with c^2 already replaced by t
    for minpoly in ((e - c) ** 2, e**2 - 2 * c * e + t):
        with pytest.raises(SeparantZeroError):
            extend_to_algebraic(sqrt_t_tower(), minpoly, E)
    # e^2 - t = (e - c)(e + c) has simple roots
    extend_to_algebraic(sqrt_t_tower(), e**2 - t, E)


def test_extend_rejects_zero_divisor_over_a_reducible_stage():
    # over c^2 = t^2 = (c - t)(c + t) the element c - t is a zero divisor
    reducible = extend_to_algebraic(Tower([T], {T: Poly.const(1)}), c**2 - t**2, C)
    cases = (
        e**2 + c - t,  # separant 2e leaves 2c - 2t: e^2 = 0 on c = t
        (c - t) * e - 1,  # separant c - t itself
        (c - t) * e**2 + c + t,  # leading coefficient of the separant
    )
    for minpoly in cases:
        with pytest.raises(NonInvertibleError):
            extend_to_algebraic(reducible, minpoly, E)
    extend_to_algebraic(reducible, e**2 - t, E)


def test_extend_rejects_a_generator_already_in_the_tower():
    tower = sqrt_t_tower()
    for gen in (C, T, "c"):
        with pytest.raises(EngineError, match="already a tower variable"):
            extend_to_algebraic(tower, var(str(gen)) ** 2 - 2, gen)


def test_extend_rejects_foreign_variables():
    with pytest.raises(EngineError, match="foreign variables: u, x"):
        extend_to_algebraic(sqrt_t_tower(), e**2 - u * x, E)


def test_extend_rejects_a_defining_polynomial_free_of_its_generator():
    with pytest.raises(EngineError, match="does not involve e"):
        extend_to_algebraic(sqrt_t_tower(), c**2 - 2, E)


def test_extend_rejects_a_leading_coefficient_that_vanishes_in_the_tower():
    # c^2 - t is zero over c^2 = t, so the degree in e is not 2 there
    with pytest.raises(SeparantZeroError, match="leading coefficient c\\^2 - t vanishes"):
        extend_to_algebraic(sqrt_t_tower(), (c**2 - t) * e**2 + e - 1, E)


def test_reduce_refuses_a_denominator_that_vanishes_in_the_tower():
    tower = sqrt_t_tower()
    with pytest.raises(NonInvertibleError, match="vanishes in the tower"):
        tower.reduce(RatFun(c, c**2 - t))
    assert tower.equal(tower.reduce(RatFun(c, c**2 + t)), RatFun(c, 2 * t))
