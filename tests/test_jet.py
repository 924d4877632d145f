import gc
import random
from fractions import Fraction

import pytest

from diffalg.algebra import JetVar, Poly, RatFun, var
from diffalg.derivation import Tower
from diffalg.errors import KindMismatchError, UncoveredVariableError, UndeclaredParameterError
from diffalg.jet import (
    DiffModel,
    TAdd,
    TConst,
    TDer,
    TMul,
    TNeg,
    TVar,
    jet_binding,
    max_der_index,
    oracle_eval,
    rewrite_atom,
    rewrite_term,
)
from diffalg.monoid import COMMUTATIVE, FREE, MonoidElem
from diffalg.parsing import parse_derspec

T = JetVar("t")
xt = TVar("x")


def jv(base, *exps):
    return JetVar(base, MonoidElem.exponents(exps))


def jw(base, *letters, k=2):
    return JetVar(base, MonoidElem.word(k, letters))


def test_rewrite_leibniz_example():
    # d(x * dx) -> x0*x2 + x1^2 with one derivation
    term = TDer(1, TMul(xt, TDer(1, xt)))
    got = rewrite_term(term, COMMUTATIVE, k=1)
    x0 = Poly.variable(JetVar("x", MonoidElem.exponents((0,))))
    x1 = Poly.variable(JetVar("x", MonoidElem.exponents((1,))))
    x2 = Poly.variable(JetVar("x", MonoidElem.exponents((2,))))
    assert got == x0 * x2 + x1 * x1


def test_rewrite_index_bookkeeping_free_vs_commutative():
    term = TDer(2, TDer(1, xt))
    free = rewrite_term(term, FREE, k=2)
    assert free == Poly.variable(jw("x", 2, 1))
    comm = rewrite_term(term, COMMUTATIVE, k=2)
    assert comm == Poly.variable(jv("x", 1, 1))


def test_rewrite_commutative_canonicalization():
    t1 = TDer(1, TDer(2, xt))
    t2 = TDer(2, TDer(1, xt))
    assert rewrite_term(t1, COMMUTATIVE, k=2) == rewrite_term(t2, COMMUTATIVE, k=2)
    assert rewrite_term(t1, FREE, k=2) != rewrite_term(t2, FREE, k=2)


def test_rewrite_parameter_table():
    # d(c*x) with eta(c) = 1 -> x[0] + c*x[1]
    term = TDer(1, TMul(TVar("c"), xt))
    got = rewrite_term(term, COMMUTATIVE, eta={JetVar("c"): Poly.const(1)}, k=1)
    x0 = Poly.variable(jv("x", 0))
    x1 = Poly.variable(jv("x", 1))
    assert got == x0 + var("c") * x1
    from_text = rewrite_term(term, COMMUTATIVE, eta=parse_derspec("eta: c -> 1").eta, k=1)
    assert isinstance(from_text, Poly) and from_text == got


def test_rewrite_is_multiplicative():
    rng = random.Random(77)
    for _ in range(30):
        t1 = rand_term(rng, depth=3)
        t2 = rand_term(rng, depth=3)
        lhs = rewrite_term(TMul(t1, t2), COMMUTATIVE, k=2)
        rhs = rewrite_term(t1, COMMUTATIVE, k=2) * rewrite_term(t2, COMMUTATIVE, k=2)
        assert lhs == rhs


def test_rewrite_atom_examples():
    a = rewrite_atom(TDer(1, xt), "=", xt, COMMUTATIVE, k=1)
    assert a.poly == Poly.variable(jv("x", 1)) - Poly.variable(jv("x", 0))
    assert a.rel == "="

    a = rewrite_atom(TDer(1, TDer(1, xt)), "!=", TConst(Fraction(0)), COMMUTATIVE, k=1)
    assert a.poly == Poly.variable(jv("x", 2))

    a = rewrite_atom(TDer(1, TMul(xt, xt)), "=", TMul(TConst(Fraction(2)), xt), COMMUTATIVE, k=1)
    x0, x1 = Poly.variable(jv("x", 0)), Poly.variable(jv("x", 1))
    assert a.poly == 2 * x0 * x1 - 2 * x0


# ----------------------------------------------------------------------
# the concrete model


def qt_model():
    # Q(t) with d1 = d/dt and d2 = 2 d/dt
    return DiffModel.on_parameters([T], [{T: Poly.const(1)}, {T: Poly.const(2)}])


def test_oracle_eval_examples():
    model = qt_model()
    t = var("t")
    sigma = {"x": RatFun(t * t)}
    assert oracle_eval(TDer(1, xt), model, sigma) == RatFun(2 * t)

    sigma = {"x": RatFun(t)}
    got = oracle_eval(TDer(1, TMul(xt, TDer(1, xt))), model, sigma)
    assert got == RatFun.const(1)

    assert oracle_eval(TConst(Fraction(5)), model, {}) == RatFun.const(5)


def test_oracle_eval_leaves_no_reference_cycle():
    # a value must not outlive the call waiting for a cyclic collection:
    # with the collector off, nothing is left for it to find
    t, c = var("t"), var("c")
    model = DiffModel([Tower([T], {T: Poly.const(1)}).extend(c * c - t - 2, "c")])
    term = TDer(1, TAdd(TMul(xt, TDer(1, xt)), TNeg(TConst(Fraction(3)))))
    gc.collect()
    gc.disable()
    try:
        value = oracle_eval(term, model, {"x": c * t + 1})
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert value.den.total_degree() > 0


def test_oracle_requires_commuting_model_in_commutative_mode():
    bad = DiffModel.on_parameters(
        [T, JetVar("s")],
        [
            {T: Poly.const(1), JetVar("s"): Poly.const(0)},
            {T: var("t"), JetVar("s"): Poly.const(0)},
        ],
    )
    assert not bad.commutes_on_generators()
    with pytest.raises(KindMismatchError):
        oracle_eval(TDer(1, xt), bad, {"x": var("t")}, mode=COMMUTATIVE)


def test_oracle_uncovered_variable():
    with pytest.raises(UncoveredVariableError):
        oracle_eval(TVar("z"), qt_model(), {})


def rand_term(rng: random.Random, depth: int, k: int = 2, names=("x", "y")) -> object:
    if depth == 0 or rng.random() < 0.25:
        choice = rng.random()
        if choice < 0.45:
            return TVar(rng.choice(names))
        if choice < 0.6:
            return TVar("t")
        return TConst(Fraction(rng.randint(-3, 3)))
    op = rng.random()
    if op < 0.32:
        return TAdd(rand_term(rng, depth - 1, k, names), rand_term(rng, depth - 1, k, names))
    if op < 0.62:
        return TMul(rand_term(rng, depth - 1, k, names), rand_term(rng, depth - 1, k, names))
    if op < 0.75:
        return TNeg(rand_term(rng, depth - 1, k, names))
    return TDer(rng.randint(1, k), rand_term(rng, depth - 1, k, names))


def test_rewrite_agrees_with_oracle_on_random_terms():
    model = qt_model()
    t = var("t")
    sigma = {"x": RatFun(t * t), "y": RatFun(t + 1, t), "t": RatFun(t)}
    rng = random.Random(101)
    for _ in range(120):
        term = rand_term(rng, depth=4)
        jetpoly = rewrite_term(term, COMMUTATIVE, k=2)
        binding = jet_binding(model, sigma, sorted(jetpoly.variables(), key=lambda v: v.sort_key))
        via_jets = jetpoly.evaluate(binding)
        direct = oracle_eval(term, model, sigma, mode=COMMUTATIVE)
        assert model.equal(via_jets, direct)


def test_rewrite_agrees_with_oracle_free_mode():
    model = qt_model()
    t = var("t")
    sigma = {"x": RatFun(t * t + 1), "t": RatFun(t)}
    rng = random.Random(13)
    for _ in range(60):
        term = rand_term(rng, depth=4, names=("x",))
        jetpoly = rewrite_term(term, FREE, k=2)
        binding = jet_binding(model, sigma, sorted(jetpoly.variables(), key=lambda v: v.sort_key))
        assert model.equal(jetpoly.evaluate(binding), oracle_eval(term, model, sigma))


def test_jet_binding_binds_parameters_to_themselves():
    # the parameter x shares its name with the sigma key; only its jets take sigma's value
    s, x = JetVar("s"), JetVar("x")
    model = DiffModel.on_parameters([x, s], [{s: Poly.const(1)}])
    binding = jet_binding(model, {"x": var("x") * var("s")}, [x, jv("x", 0), jv("x", 1)])
    assert binding == {x: var("x"), jv("x", 0): var("x") * var("s"), jv("x", 1): var("x")}


def test_max_der_index():
    assert max_der_index(TDer(2, TDer(1, xt))) == 2
    assert max_der_index(xt) == 0
    # through a negation, as `jet` without --k infers k from "-d2(x)"
    assert max_der_index(TNeg(TDer(2, xt))) == 2
    assert rewrite_term(TNeg(TDer(2, xt))) == -var("x", MonoidElem.exponents((0, 1)))


def test_rewrite_term_rejects_undeclared_parameter_in_table():
    # as on the command line, a table value may only mention declared parameters
    term = TDer(1, TMul(TVar("t"), TVar("u")))
    with pytest.raises(UndeclaredParameterError):
        rewrite_term(term, COMMUTATIVE, eta={T: var("u")}, k=1)
    with pytest.raises(UndeclaredParameterError):
        rewrite_term(term, FREE, eta=[{T: var("u")}, {}], k=2)
