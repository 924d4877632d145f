import random
from fractions import Fraction

import pytest

from conftest import rand_poly, rand_ratfun
from diffalg.algebra import JetVar, Poly, RatFun, var
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
    NonInvertibleError,
    SeparantZeroError,
    UncoveredVariableError,
    UndeclaredParameterError,
)

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
