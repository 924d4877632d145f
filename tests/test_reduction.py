"""`pseudo_reduce` against the loops it replaced, and `Tower.reduce`.

The references below are the earlier per-module reductions: the
configuration loop over its leaders (here also keeping the product of the
multipliers) and the tower loop over its stages.  `Tower.reduce` reduces
only the numerator and keeps the denominator, a unit of the tower, so it
is checked by its properties: the value is kept, the numerator is below
every stage degree, and a denominator that vanishes in the tower is
refused.  A denominator whose factors are all stage separants, units of
the tower, is not tested at all.
"""

import random

import pytest

from conftest import rand_nonzero_poly, rand_poly
from diffalg.algebra import JetVar, Poly, RatFun, pseudo_reduce, pseudo_remainder
from diffalg.config import Configuration
from diffalg.derivation import Tower, apply_derivation, extend_to_algebraic, implicit_delta
from diffalg.errors import NonInvertibleError, SeparantZeroError
from diffalg.monoid import antichain_minimal, theta_ball

T, C, E = JetVar("t"), JetVar("c"), JetVar("e")


def reduce_mod_reference(cfg: Configuration, p: Poly) -> tuple[Poly, Poly]:
    mult = Poly.const(1)
    for pi in sorted(cfg.leaders, key=lambda el: el.sort_key, reverse=True):
        xpi = cfg.jet_var(pi)
        if p.deg_in(xpi) >= cfg.relations[pi].deg_in(xpi):
            p, m, _ = pseudo_remainder(p, cfg.relations[pi], xpi)
            mult = mult * m
    return p, mult


def reduce_poly_reference(tower: Tower, p: Poly) -> tuple[Poly, Poly]:
    mult = Poly.const(1)
    for stage in reversed(tower.stages):
        d = stage.minpoly.deg_in(stage.gen)
        if p.deg_in(stage.gen) >= d:
            rem, m, _ = pseudo_remainder(p, stage.minpoly, stage.gen)
            p = rem
            mult = mult * m
    return p, mult


def random_configuration(rng: random.Random) -> Configuration:
    """k=2, one to three leaders of degree <= 3, each relation of degree 1
    or 2 in its leader variable over the free variables below it."""
    pool = [a for a in theta_ball(2, 3) if not a.is_identity]
    leaders = sorted(antichain_minimal(rng.sample(pool, rng.randint(1, 3))), key=lambda el: el.sort_key)
    relations = {}
    for pi in leaders:
        lower = [
            JetVar("x", mu)
            for mu in theta_ball(2, pi.degree)
            if mu < pi and not any(q.preceq(mu) for q in leaders)
        ]
        lead = rand_nonzero_poly(rng, lower, max_terms=2, max_degree=1)
        xpi = Poly.variable(JetVar("x", pi))
        relations[pi] = lead * xpi ** rng.randint(1, 2) + rand_poly(rng, lower, max_terms=3, max_degree=2)
    return Configuration(2, leaders, relations)


def random_tower(rng: random.Random) -> Tower:
    """One or two stages over Q(t), d(t) = 1, the second one with an initial
    that may involve the first generator; a stage is retried until it is
    accepted (simple roots, unit initial and separant gcd)."""
    tower = Tower([T], {T: Poly.const(1)})
    for gen, lower in ((C, [T]), (E, [T, C]))[: rng.randint(1, 2)]:
        while True:
            x = Poly.variable(gen)
            d = rng.choice([2, 3])
            minpoly = rand_nonzero_poly(rng, lower, max_terms=2, max_degree=1) * x**d
            for i in range(d):
                minpoly = minpoly + rand_poly(rng, lower, max_terms=2, max_degree=2) * x**i
            try:
                tower = extend_to_algebraic(tower, minpoly, gen)
                break
            except (SeparantZeroError, NonInvertibleError):
                continue
    return tower


def test_pseudo_reduce_matches_the_configuration_loop():
    rng = random.Random(83)
    reduced = 0
    for _ in range(40):
        cfg = random_configuration(rng)
        chain = [(cfg.jet_var(pi), cfg.relations[pi]) for pi in reversed(cfg.leaders)]
        variables = sorted(set().union(*(p.variables() for p in cfg.relations.values())))
        for _ in range(3):
            p = rand_poly(rng, variables, max_terms=5, max_degree=5)
            rem, mult = pseudo_reduce(p, chain)
            assert (rem, mult) == reduce_mod_reference(cfg, p)
            assert cfg.reduce_mod(p) == rem
            reduced += rem != p
    assert reduced >= 40


def test_pseudo_reduce_matches_the_tower_loop():
    rng = random.Random(89)
    reduced = 0
    for _ in range(30):
        tower = random_tower(rng)
        chain = [(s.gen, s.minpoly) for s in reversed(tower.stages)]
        for _ in range(3):
            p = rand_poly(rng, list(tower.variables()), max_terms=4, max_degree=5)
            rem, mult = pseudo_reduce(p, chain)
            assert (rem, mult) == reduce_poly_reference(tower, p)
            assert tower.is_zero(p) == rem.is_zero
            reduced += rem != p
    assert reduced >= 30


def test_tower_reduce_keeps_the_value_and_reduces_the_numerator():
    rng = random.Random(97)
    reduced = refused = 0
    for _ in range(30):
        tower = random_tower(rng)
        gens = list(tower.variables())
        fractions = [
            RatFun(rand_poly(rng, gens, max_terms=4, max_degree=4), rand_nonzero_poly(rng, gens, max_degree=3))
            for _ in range(3)
        ]
        # and one denominator that vanishes in the tower
        fractions.append(RatFun(Poly.variable(gens[-1]), tower.stages[-1].minpoly * (Poly.variable(T) + 1)))
        for x in fractions:
            if tower.is_zero(x.den):
                with pytest.raises(NonInvertibleError, match="vanishes in the tower"):
                    tower.reduce(x)
                refused += 1
                continue
            got = tower.reduce(x)
            assert tower.is_zero(got - x), (tower, x)
            for stage in tower.stages:
                assert got.num.deg_in(stage.gen) < stage.minpoly.deg_in(stage.gen), (tower, x, got)
            reduced += got.num != x.num
    assert reduced >= 30 and refused == 30


def _spy_is_zero(monkeypatch) -> list:
    tested = []
    is_zero = Tower.is_zero
    monkeypatch.setattr(Tower, "is_zero", lambda self, x: tested.append(x) or is_zero(self, x))
    return tested


def test_a_denominator_of_stage_separants_is_not_tested(monkeypatch):
    t, c = Poly.variable(T), Poly.variable(C)
    tower = Tower([T], {T: Poly.const(1)}).extend(c * c - t - 2, C)
    x = apply_derivation(c ** 3 + t * c, tower.derspec())
    assert x.base.factors == [2 * c] and x.exps == (1,)
    tested = _spy_is_zero(monkeypatch)
    got = tower.reduce(x)
    assert tested == []
    assert str(got) == "(3*t + 5) / (c)"
    assert str(tower.apply(got)) == "(3/2*t + 7/2) / (c^3)" and tested == []


def test_a_separant_power_times_a_vanishing_factor_is_refused(monkeypatch):
    t, c = Poly.variable(T), Poly.variable(C)
    minpoly = c * c - t - 2
    tower = Tower([T], {T: Poly.const(1)}).extend(minpoly, C)
    x = tower.stages[0].dvalue ** 3 / minpoly
    assert x.base.factors == [2 * c, minpoly] and x.exps == (3, 1)
    tested = _spy_is_zero(monkeypatch)
    with pytest.raises(NonInvertibleError, match="vanishes in the tower"):
        tower.reduce(x)
    assert len(tested) == 1


def test_a_separant_split_by_an_eta_denominator_is_tested(monkeypatch):
    # over t' = 1/t the separant 2*t*c of t*c^2 - t - 1 splits into the
    # factor t of eta and 2*c, and 2*c is not the separant
    t, c = Poly.variable(T), Poly.variable(C)
    minpoly = t * c * c - t - 1
    tower = Tower([T], {T: RatFun(1, t)}).extend(minpoly, C)
    x = implicit_delta(minpoly, C, Tower([T], {T: RatFun(1, t)}).derspec())
    assert x.base.factors == [t, 2 * c] and x.exps == (2, 1)
    tested = _spy_is_zero(monkeypatch)
    got = tower.reduce(x)
    assert len(tested) == 1 and tested[0] == x.base.power(x.exps)
    assert str(got) == "(-1/2) / (c*t^3)" == str(tower.stages[0].dvalue)
    assert str(tower.apply(c * c + c)) == "(-c - 1/2) / (c*t^3)" and len(tested) == 2
