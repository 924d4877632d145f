"""The coherence test of `Configuration.verify_global` against enumeration.

`verify_global` decides commutation by the commutators [R_i, R_j] on the
free and leader generators, and compares every factorization of every
tuple only when that test fails.  The reports must be the ones full
enumeration (`_run_checks`) gives: the same dicts, the same `trivial`
flags, and the caller's random stream left in the same state.  The same
commutator test decides whether the eta tables commute on the
parameters; `DiffModel` is the reference there.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from math import prod

import pytest

from conftest import rand_poly
from diffalg.algebra import JetVar, Poly, RatFun
from diffalg.config import Configuration
from diffalg.errors import ConfigurationError
from diffalg.jet import DiffModel
from diffalg.monoid import COMMUTATIVE, MonoidElem, antichain_minimal, theta_ball
from diffalg.parsing import parse_config

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "corpus")
CORPUS_CONFIGS = sorted(name for name in os.listdir(CORPUS) if name.endswith(".cfg"))

T = JetVar("t")


def theta(*exps):
    return MonoidElem.exponents(exps)


def x(*exps):
    return Poly.variable(JetVar("x", theta(*exps)))


def leader_sets():
    """The leader sets of the corpus, and three more over k = 2 and 3."""
    sets = [(2, [theta(1, 0), theta(0, 1)]), (1, [theta(2)]), (2, [theta(1, 0)])]
    sets.append((2, [theta(2, 0), theta(1, 1), theta(0, 2)]))
    sets.append((2, [theta(2, 0), theta(0, 1)]))
    sets.append((3, [theta(2, 0, 0), theta(1, 1, 0), theta(0, 0, 1)]))
    return sets


def test_factorization_count_is_the_multinomial_sum():
    for k, leaders in leader_sets():
        cfg = Configuration(k, leaders, {pi: x(*pi.data) - x(*(0,) * k) for pi in leaders})
        for alpha in theta_ball(k, 6):
            assert cfg._count_factorizations(alpha) == len(cfg.factorizations(alpha)), (leaders, alpha)


def _random_configuration(rng: random.Random) -> tuple[Configuration, int]:
    """One configuration of a random family, and the degree to check it to."""
    x0, family = JetVar("x", theta(0, 0)), rng.randrange(7)
    q = rand_poly(rng, [x0], max_terms=3, max_degree=2)
    c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    pair = [theta(1, 0), theta(0, 1)]
    if family == 0:  # proportional pair: commutes
        return Configuration(2, pair, {theta(1, 0): x(1, 0) - q, theta(0, 1): x(0, 1) - c * q}), 5
    if family == 1:  # independent pair: fails at d1 d2 unless the Wronskian vanishes
        q2 = rand_poly(rng, [x0], max_terms=3, max_degree=2)
        return Configuration(2, pair, {theta(1, 0): x(1, 0) - q, theta(0, 1): x(0, 1) - q2}), 4
    if family == 2:  # one leader with a quadratic separant
        a, b = rng.randint(-3, 3), rng.choice([-4, -1, 1, 2])
        return Configuration(2, [theta(1, 0)], {theta(1, 0): x(1, 0) ** 2 + a * x(0, 0) * x(1, 0) + b}), 4
    if family == 3:  # a proportional pair under a non-constant initial
        s = x(0, 0) + rng.choice([-2, -1, 1, 3])
        rels = {theta(1, 0): s * x(1, 0) - q, theta(0, 1): s * x(0, 1) - c * q}
        return Configuration(2, pair, rels), 4
    if family == 4:  # a parameter with t' = 1 under d1 and t' = 0 under d2
        t = Poly.variable(T)
        rels = {theta(1, 0): x(1, 0) - t * x(0, 0) - c, theta(0, 1): x(0, 1) - rng.choice([0, 1]) * x(0, 0)}
        etas = [{T: Poly.const(1)}, {T: Poly.zero()}]
        return Configuration(2, pair, rels, etas=etas), 4
    if family == 5:  # second-order leader sets, each relation over a free coordinate below it
        sets = [[theta(2, 0), theta(1, 1), theta(0, 2)], [theta(2, 0), theta(0, 1)], [theta(1, 1)]]
        leaders, rels = rng.choice(sets), {}
        for pi in leaders:
            below = [mu for mu in theta_ball(2, pi.degree) if mu < pi]
            free = [mu for mu in below if not any(lead.preceq(mu) for lead in leaders)]
            rels[pi] = x(*pi.data) - rng.choice([1, c]) * x(*rng.choice(free).data)
        return Configuration(2, leaders, rels), 5
    if rng.random() < 0.5:  # k = 3, proportional first-order leaders: commutes
        q = rand_poly(rng, [JetVar("x", theta(0, 0, 0))], max_terms=3, max_degree=2)
        leaders = [theta(1, 0, 0), theta(0, 1, 0), theta(0, 0, 1)]
        return Configuration(3, leaders, {pi: x(*pi.data) - rng.randint(-2, 2) * q for pi in leaders}), 4
    leaders = [theta(2, 0, 0), theta(1, 1, 0), theta(0, 0, 1)]  # k = 3
    rels = {pi: x(*pi.data) - rng.choice([1, c]) * x(0, 0, 0) for pi in leaders}
    return Configuration(3, leaders, rels), 4


def _assert_same_reports(make, degree) -> bool:
    """verify_global on one fresh configuration, enumeration on another;
    True when verify_global took the coherence path."""
    fast, slow = make(), make()
    rng_fast, rng_slow = random.Random(17), random.Random(17)
    got = fast.verify_global(degree, rng_fast)
    want = slow._run_checks("global", theta_ball(slow.k, degree), rng_slow)
    assert got.to_dict() == want.to_dict()
    assert [c.trivial for c in got.checks] == [c.trivial for c in want.checks]
    assert rng_fast.random() == rng_slow.random()
    return fast._coherent(degree)


def _replay(state) -> random.Random:
    out = random.Random()
    out.setstate(state)
    return out


def test_coherence_matches_enumeration_on_random_families():
    rng, paths = random.Random(2026), []
    for _ in range(60):
        state = rng.getstate()
        _, degree = _random_configuration(rng)
        paths.append(_assert_same_reports(lambda: _random_configuration(_replay(state))[0], degree))
    assert 10 <= paths.count(True) <= 50, paths.count(True)  # both paths are exercised


def test_a_relation_with_a_multiple_root_is_enumerated():
    # the separant of (x[d1] - x[0])^2 (x[d1] + 1) is a zero divisor modulo the relation
    rels = {theta(1, 0): (x(1, 0) - x(0, 0)) ** 2 * (x(1, 0) + 1)}  # one leader: the generators pass
    assert not _assert_same_reports(lambda: Configuration(2, list(rels), rels), 3)


@pytest.mark.parametrize("name", CORPUS_CONFIGS)
def test_coherence_matches_enumeration_on_the_corpus(name):
    with open(os.path.join(CORPUS, name), encoding="utf-8") as handle:
        text = handle.read()
    for degree in range(7):
        _assert_same_reports(lambda: parse_config(text), degree)


def test_coherent_cost_does_not_grow_with_the_degree():
    # one comparison each at nu = 0, d1 and d2, for [R_1, R_2], and nothing else
    with open(os.path.join(CORPUS, "scaled.cfg"), encoding="utf-8") as handle:
        text = handle.read()
    for degree in (6, 10):
        cfg = parse_config(text)
        calls, reduce_mod = [], cfg.reduce_mod

        def counted(p):
            calls.append(p)
            return reduce_mod(p)

        cfg.reduce_mod = counted
        assert cfg.verify_global(degree).commutes
        assert len(calls) == 3, (degree, len(calls))


def _q_power(q: Poly, x0: JetVar, n: int) -> Poly:
    """The n-th derivative of a solution of x' = q(x), as a polynomial in x."""
    out = q
    for _ in range(n - 1):
        out = out.partial(x0) * q
    return out


def _model_configuration(rng: random.Random) -> Configuration:
    """Leaders of degree <= 3 for x along d_i = c_i q(x): x[pi] = c^pi * q_|pi|(x[0]),
    each relation broken with probability 1/4."""
    k = rng.choice([2, 3])
    x0 = JetVar("x", theta(*(0,) * k))
    q = rand_poly(rng, [x0], max_terms=2, max_degree=2)
    c = [rng.randint(-2, 2) for _ in range(k)]
    pool = [mu for mu in theta_ball(k, 3) if mu.degree]
    leaders = sorted(antichain_minimal(rng.sample(pool, rng.randint(1, 4))))
    rels = {}
    for pi in leaders:
        scale = prod(ci ** e for ci, e in zip(c, pi.data)) + (rng.random() < 0.25)
        rels[pi] = x(*pi.data) - scale * _q_power(q, x0, pi.degree)
    return Configuration(k, leaders, rels)


def test_coherence_matches_enumeration_on_the_model_family():
    rng, paths = random.Random(14), []
    for _ in range(100):
        state = rng.getstate()
        _model_configuration(rng)
        paths.append(_assert_same_reports(lambda: _model_configuration(_replay(state)), 4))
    assert 20 <= paths.count(True) <= 90, paths.count(True)  # both paths are exercised


def _random_tables(rng: random.Random) -> tuple[list[JetVar], list[dict]]:
    """Parameters and one eta table per derivation: polynomial and fractional
    entries, commuting by construction half of the time."""
    k, params = rng.choice([2, 3]), [JetVar(name) for name in "tuv"[: rng.randint(1, 3)]]

    def entry(over):
        num = rand_poly(rng, over, max_terms=2, max_degree=2, span=3)
        if rng.random() < 0.4:
            return num
        return RatFun(num, Poly.variable(rng.choice(over)) + rng.randint(1, 3))

    shape = rng.randrange(3)
    if shape == 0:  # proportional tables: d_i = c_i d
        base = {p: entry(params) for p in params}
        return params, [{p: rng.randint(-2, 2) * v for p, v in base.items()} for _ in range(k)]
    if shape == 1:  # d_i moves parameter i only, by a function of it alone
        return params, [{params[i]: entry(params[i:i + 1])} if i < len(params) else {} for i in range(k)]
    tables = [{p: entry(params) for p in rng.sample(params, rng.randint(1, len(params)))} for _ in range(k)]
    return params, tables


def test_eta_check_matches_the_model_on_random_tables():
    rng, verdicts = random.Random(15), []
    for _ in range(150):
        params, tables = _random_tables(rng)
        k = len(tables)
        want = DiffModel.on_parameters(params, tables).commutes_on_generators()
        leaders = [MonoidElem.generator(COMMUTATIVE, k, i) for i in range(1, k + 1)]
        rels = {pi: x(*pi.data) - i * x(*(0,) * k) for i, pi in enumerate(leaders, 1)}
        try:
            Configuration(k, leaders, rels, etas=tables)
            verdicts.append(True)
        except ConfigurationError as err:
            assert str(err) == "the eta tables do not commute on the parameters"
            verdicts.append(False)
        assert verdicts[-1] == want, (params, tables)
    assert 30 <= verdicts.count(True) <= 120, verdicts.count(True)
