import itertools
import math
import os
import random
from fractions import Fraction

import pytest

from conftest import rand_poly
from diffalg.algebra import JetVar, Poly, RatFun, var
from diffalg.config import Configuration, _multiset_permutations
from diffalg.derivation import coeff_derivative
from diffalg.errors import ConfigurationError
from diffalg.jet import DiffModel
from diffalg.monoid import COMMUTATIVE, FREE, MonoidElem, theta_ball
from diffalg.parsing import parse_config

U = JetVar("u")
u = var("u")


def theta(*exps):
    return MonoidElem.exponents(exps)


def word(*letters, k=2):
    return MonoidElem.word(k, letters)


def xj(*exps):
    return Poly.variable(JetVar("x", theta(*exps)))


def pair_config(q1: Poly, q2: Poly, etas=None) -> Configuration:
    """k=2, leaders d1 and d2, relations x[di] = qi(x[0])."""
    return Configuration(
        2,
        [theta(1, 0), theta(0, 1)],
        {theta(1, 0): xj(1, 0) - q1, theta(0, 1): xj(0, 1) - q2},
        etas=etas,
    )


def test_new_configuration_example():
    cfg = pair_config(xj(0, 0) ** 2, 2 * xj(0, 0))
    assert cfg.theta == theta(1, 1)
    assert cfg.is_free(theta(0, 0))
    assert not cfg.is_free(theta(1, 0))
    assert not cfg.is_free(theta(2, 1))


def test_configuration_free_set_k1():
    cfg = Configuration(
        1,
        [theta(2)],
        {theta(2): Poly.variable(JetVar("x", theta(2))) - Poly.variable(JetVar("x", theta(0)))},
    )
    assert cfg.is_free(theta(0))
    assert cfg.is_free(theta(1))
    assert not cfg.is_free(theta(2))
    assert not cfg.is_free(theta(3))


def test_configuration_rejects_bad_relation():
    with pytest.raises(ConfigurationError):
        Configuration(2, [theta(1, 0)], {theta(1, 0): xj(0, 0)})  # no leader variable
    with pytest.raises(ConfigurationError):
        # mentions the other leader's variable
        Configuration(
            2,
            [theta(1, 0), theta(0, 1)],
            {
                theta(1, 0): xj(1, 0) - xj(0, 1),
                theta(0, 1): xj(0, 1) - xj(0, 0),
            },
        )
    with pytest.raises(ConfigurationError):
        Configuration(2, [theta(1, 0), theta(2, 0)], {})  # not an anti-chain


def test_configuration_rejects_eta_tables_that_do_not_commute():
    c = var("c")
    # [d1, d2](c) = d1(c) - d2(1) = c, which is not zero
    with pytest.raises(ConfigurationError, match="do not commute"):
        pair_config(xj(0, 0), 2 * xj(0, 0), etas=[{JetVar("c"): 1}, {JetVar("c"): c}])
    # constant images commute, and so do tables where one derivation kills c
    pair_config(xj(0, 0), 2 * xj(0, 0), etas=[{JetVar("c"): 1}, {JetVar("c"): 3}])
    pair_config(xj(0, 0), 2 * xj(0, 0), etas=[{JetVar("c"): RatFun(1, c + 1)}, {JetVar("c"): 0}])


def test_f_base_case_and_eq3():
    # q1 = x0^2: the d2-derivative of the d1-leader is q1'(x0) * x[d2]
    cfg = pair_config(xj(0, 0) ** 2, 2 * xj(0, 0))
    f = cfg.compute_f(word(2), theta(1, 0))
    assert f.value == RatFun(2 * xj(0, 0) * xj(0, 1))

    base = cfg.compute_f(MonoidElem.identity(FREE, 2), theta(1, 0))
    assert base.value == RatFun(xj(1, 0))


def test_f_linear_pair_agrees_after_substitution():
    # q1 = x0, q2 = 2 x0: both routes to (1,1) give 2 x0 on the locus
    cfg = pair_config(xj(0, 0), 2 * xj(0, 0))
    f21 = cfg.compute_f(word(2), theta(1, 0)).value
    f12 = cfg.compute_f(word(1), theta(0, 1)).value
    assert f21 == RatFun(xj(0, 1))
    assert f12 == RatFun(2 * xj(1, 0))
    on_locus = {
        JetVar("x", theta(1, 0)): xj(0, 0),
        JetVar("x", theta(0, 1)): 2 * xj(0, 0),
    }
    assert f21.substitute(on_locus) == f12.substitute(on_locus)


def test_r_apply_base_and_leibniz():
    cfg = pair_config(xj(0, 0) ** 2, 2 * xj(0, 0))
    # undeclared plain variables are constants for R
    assert cfg.r_apply(1, var("s")).is_zero
    assert cfg.r_apply(1, Poly.variable(JetVar("x", theta(0, 0)))) == RatFun(xj(1, 0))

    rng = random.Random(3)
    vars_ = [JetVar("x", theta(0, 0)), JetVar("x", theta(1, 0)), JetVar("x", theta(0, 1))]
    for _ in range(25):
        h1 = rand_poly(rng, vars_, max_degree=2)
        h2 = rand_poly(rng, vars_, max_degree=2)
        for i in (1, 2):
            lhs = cfg.r_apply(i, h1 * h2)
            rhs = cfg.r_apply(i, h1) * h2 + h1 * cfg.r_apply(i, h2)
            assert lhs == rhs


def test_eq8_iteration_identity():
    cfg = pair_config(xj(0, 0) ** 2, 2 * xj(0, 0))
    # applying the derivation for a word w to f_{v,pi} equals f_{wv,pi}
    for w in [word(1), word(2), word(2, 1), word(1, 2), word(1, 1, 2)]:
        for v in [MonoidElem.identity(FREE, 2), word(1), word(2), word(2, 2)]:
            for pi in cfg.leaders:
                lhs = cfg.r_apply_word(w, cfg.compute_f(v, pi).value)
                rhs = cfg.compute_f(w.compose(v), pi).value
                assert lhs == rhs


def test_eq8_on_random_small_configurations():
    rng = random.Random(575)
    x0 = JetVar("x", theta(0, 0))
    for _ in range(8):
        q1 = rand_poly(rng, [x0], max_degree=2)
        q2 = rand_poly(rng, [x0], max_degree=2)
        cfg = pair_config(q1, q2)
        for w in [word(1), word(2), word(1, 2)]:
            for v in [MonoidElem.identity(FREE, 2), word(2)]:
                for pi in cfg.leaders:
                    lhs = cfg.r_apply_word(w, cfg.compute_f(v, pi).value)
                    rhs = cfg.compute_f(w.compose(v), pi).value
                    diff = (lhs - rhs)
                    assert cfg.reduce_mod(diff.num).is_zero


def test_commutation_at_examples():
    commuting = pair_config(xj(0, 0), 2 * xj(0, 0))
    check = commuting.check_commutation_at(theta(1, 1), random.Random(1))
    assert check.status == "commutes"

    broken = pair_config(xj(0, 0), xj(0, 0) ** 2)
    check = broken.check_commutation_at(theta(1, 1), random.Random(1))
    assert check.status == "violation"
    assert check.reduced_difference == xj(0, 0) ** 2
    assert check.point is not None

    assert commuting.check_commutation_at(theta(0, 0)).trivial


def test_check_local_and_global_on_scaled_family():
    rng = random.Random(99)
    x0 = JetVar("x", theta(0, 0))
    for _ in range(6):
        q = rand_poly(rng, [x0], max_degree=3)
        c = Fraction(rng.randint(1, 5))
        cfg = pair_config(q, Poly.const(c) * q)
        local = cfg.check_local(random.Random(5))
        assert local.commutes
        glob = cfg.verify_global(5, random.Random(6))
        assert glob.commutes


def test_local_failure_for_non_proportional_pair():
    cfg = pair_config(xj(0, 0), xj(0, 0) ** 2)
    report = cfg.check_local(random.Random(2))
    assert not report.commutes
    bad = report.first_violation()
    assert bad.alpha == theta(1, 1)


def test_single_derivation_always_commutes():
    x0 = JetVar("x", theta(0))
    cfg = Configuration(
        1,
        [theta(1)],
        {theta(1): Poly.variable(JetVar("x", theta(1))) - Poly.variable(x0) ** 2},
    )
    assert cfg.check_local().commutes
    assert cfg.check_local().first_violation() is None
    assert cfg.verify_global(6).commutes


class _ZeroDraws(random.Random):
    """Draws every free value of `sample_point` as 0."""

    def randint(self, a, b):
        return min(max(0, a), b)


def test_sample_point_gives_up_where_no_rational_root_is_sought():
    # at x[0] = 0 the relation no longer involves its leader
    vanishing = parse_config("k = 1\nP: d1\np[d1] = x[0]*x[d1] - 1\n")
    assert vanishing.sample_point(_ZeroDraws(), set()) is None
    # coefficients beyond 10^9 are not factored
    huge = parse_config("k = 1\nP: d1\np[d1] = x[d1]^2 - 10000000000\n")
    assert huge.sample_point(random.Random(0), set()) is None


def test_local_pass_implies_global_pass_on_random_family():
    rng = random.Random(31)
    x0 = JetVar("x", theta(0, 0))
    for _ in range(10):
        q = rand_poly(rng, [x0], max_degree=2)
        c = Fraction(rng.randint(-4, 4))
        cfg = pair_config(q, Poly.const(c) * q)
        if cfg.check_local(random.Random(1)).commutes:
            assert cfg.verify_global(6, random.Random(1)).commutes


def test_realize_check_exponential_model():
    # Q(u) with d1 = u d/du, d2 = 2u d/du realizes x' = x, x'' = 2x at b = u
    model = DiffModel.on_parameters([U], [{U: u}, {U: 2 * u}])
    cfg = pair_config(xj(0, 0), 2 * xj(0, 0))
    report = cfg.realize_check(model, RatFun(u), depth=4)
    assert report.ok, report.to_dict()


def test_realize_check_rejects_point_off_locus():
    model = DiffModel.on_parameters([U], [{U: u}, {U: 2 * u}])
    cfg = pair_config(xj(0, 0) + 1, 2 * xj(0, 0))
    with pytest.raises(ConfigurationError):
        cfg.realize_check(model, RatFun(u), depth=2)


def test_realize_check_parameter_named_like_the_jet_base():
    # the parameter x is a constant and s' = 1, so b = x*s satisfies x[d1] = x;
    # the parameter must stand for itself, not for b
    model = DiffModel.on_parameters([JetVar("x"), JetVar("s")], [{JetVar("s"): Poly.const(1)}])
    cfg = parse_config("k = 1\nP: d1\np[d1] = x[d1] - x\neta: x -> 0\n")
    report = cfg.realize_check(model, RatFun(var("x") * var("s")), depth=4)
    assert report.ok, report.to_dict()


def test_realize_check_reports_the_first_mismatch():
    # d1 = d/du and d2 = u d/du do not commute on u, so b = u solves
    # x[d2] = x[0] yet d1 d2 b = 1 where d2 d1 b = 0
    model = DiffModel.on_parameters([U], [{U: 1}, {U: u}])
    cfg = Configuration(2, [theta(0, 1)], {theta(0, 1): xj(0, 1) - xj(0, 0)})
    data = cfg.realize_check(model, u, depth=3).to_dict()
    assert (data["ok"], data["mismatch"], data["expected"], data["got"]) == (False, "d1 d2", "1", "0")


def test_configuration_rejects_jet_variables_in_eta_tables():
    x0 = JetVar("x", theta(0, 0))
    for etas in ([{x0: 1}, {}], [{JetVar("c"): xj(0, 0)}, {}], [{}, {JetVar("c"): RatFun(1, xj(0, 0))}]):
        with pytest.raises(ConfigurationError, match="parameters, not on jet variables"):
            pair_config(xj(0, 0), 2 * xj(0, 0), etas=etas)


def test_realize_depth_zero_always_passes():
    model = DiffModel.on_parameters([U], [{U: u}, {U: 2 * u}])
    cfg = pair_config(xj(0, 0), 2 * xj(0, 0))
    assert cfg.realize_check(model, RatFun(u), depth=0).ok


def test_reports_serialize():
    cfg = pair_config(xj(0, 0), xj(0, 0) ** 2)
    report = cfg.check_local(random.Random(4))
    data = report.to_dict()
    assert data["kind"] == "local"
    assert any(c["status"].startswith("violation") for c in data["checks"])
    assert isinstance(report.to_json(), str)


def test_verify_global_rejects_negative_degree():
    cfg = pair_config(xj(0, 0), 2 * xj(0, 0))
    with pytest.raises(ConfigurationError):
        cfg.verify_global(-3)


def test_multiset_permutations_match_brute_force():
    for n in range(8):
        for letters in itertools.product((1, 2), repeat=n):
            got = list(_multiset_permutations(letters))
            assert got == sorted(set(itertools.permutations(letters)))
            ones = letters.count(1)
            assert len(got) == math.factorial(n) // (math.factorial(ones) * math.factorial(n - ones))


def three_leader_config() -> Configuration:
    """k=3, leaders d1^2, d1 d2 and d3 over the free variable x[0]."""
    leaders = [theta(2, 0, 0), theta(1, 1, 0), theta(0, 0, 1)]
    return Configuration(3, leaders, {pi: xj(*pi.data) - xj(0, 0, 0) for pi in leaders})


def test_factorizations_match_brute_force():
    for cfg, degree in [(pair_config(xj(0, 0), 2 * xj(0, 0)), 7), (three_leader_config(), 5)]:
        for alpha in theta_ball(cfg.k, degree):
            want = []
            for pi in cfg.leaders:
                if pi.preceq(alpha):
                    perms = set(itertools.permutations(alpha.minus(pi).canonical_word().data))
                    want += [(MonoidElem.word(cfg.k, perm), pi) for perm in perms]
            want.sort(key=lambda wp: (wp[1].sort_key, wp[0].sort_key))
            assert cfg.factorizations(alpha) == want


# ----------------------------------------------------------------------
# f over the separant factor base


class QuotientRuleReference:
    """f by the quotient rule on RatFun values, with no factor base."""

    def __init__(self, cfg: Configuration):
        self.cfg = cfg
        self.cache = {}

    def theta(self, alpha):
        cfg = self.cfg
        if cfg.is_free(alpha) or alpha in cfg.relations:
            return RatFun.variable(cfg.jet_var(alpha))
        pi = min((p for p in cfg.leaders if p.preceq(alpha)), key=lambda p: p.sort_key)
        return self.word(alpha.minus(pi).canonical_word().data, pi)

    def delta(self, i, mu):
        if mu in self.cfg.relations:
            return self.word((i,), mu)
        return self.theta(MonoidElem.generator(COMMUTATIVE, self.cfg.k, i).compose(mu))

    def r(self, i, h: RatFun) -> RatFun:
        out = coeff_derivative(h, self.cfg.etas[i - 1])
        n, m = h.num, h.den
        for v in h.variables():
            if v.index is not None:
                # its own quotient rule: dh/dv = (dn/dv * m - n * dm/dv) / m^2
                dh = (n.partial(v) * m - n * m.partial(v)) / (m * m)
                out = out + dh * self.delta(i, v.index)
        return out

    def word(self, letters, pi) -> RatFun:
        key = (letters, pi)
        if key not in self.cache:
            cfg = self.cfg
            if not letters:
                value = RatFun.variable(cfg.jet_var(pi))
            elif len(letters) == 1:
                p = cfg.relations[pi]
                num = coeff_derivative(p, cfg.etas[letters[0] - 1])
                for v in p.variables():
                    if v.index is not None and v.index != pi:
                        num = num + p.partial(v) * self.delta(letters[0], v.index)
                value = -num / RatFun(cfg.separant(pi))
            else:
                value = self.r(letters[0], self.word(letters[1:], pi))
            self.cache[key] = value
        return self.cache[key]


SINGLE_SEPARANT = """
k = 2
P: d1
p[d1] = x[d1]^2 + x[0]*x[d1] - 1
eta: none
"""

RATIONAL_ETA = """
k = 2
P: d1, d2
p[d1] = x[d1]^2 - x[0] - c
p[d2] = x[d2] - x[0]
eta[d1]: c -> 1/(c+1)
eta[d2]: c -> 0
"""


def test_f_denominator_grows_linearly_with_the_word():
    cfg = parse_config(SINGLE_SEPARANT)
    pi = theta(1, 0)
    for n in range(1, 9):
        value = cfg.compute_f(word(*[1] * n), pi).value
        assert value.den.total_degree() <= 2 * n


def test_f_matches_quotient_rule_reference():
    cfg = parse_config(SINGLE_SEPARANT)
    ref = QuotientRuleReference(cfg)
    for n in range(1, 5):
        letters = (1,) * n
        assert cfg.compute_f(MonoidElem.word(2, letters), theta(1, 0)).value == ref.word(letters, theta(1, 0))

    cfg = parse_config(RATIONAL_ETA)
    ref = QuotientRuleReference(cfg)
    for n in range(1, 4):
        for letters in itertools.product((1, 2), repeat=n):
            for pi in cfg.leaders:
                got = cfg.compute_f(MonoidElem.word(2, letters), pi).value
                assert got == ref.word(letters, pi), (letters, pi)


def test_rational_eta_iteration_identity_and_violations():
    cfg = parse_config(RATIONAL_ETA)
    for w in [word(1), word(2), word(2, 1), word(1, 2)]:
        for v in [MonoidElem.identity(FREE, 2), word(1), word(2)]:
            for pi in cfg.leaders:
                lhs = cfg.r_apply_word(w, cfg.compute_f(v, pi).value)
                rhs = cfg.compute_f(w.compose(v), pi).value
                assert lhs == rhs
    report = cfg.verify_global(3, random.Random(5))
    bad = [str(c.alpha) for c in report.checks if not c.commutes]
    assert bad == ["d1 d2", "d1^2 d2", "d1 d2^2"]
    assert all(c.status == "violation" and c.point is not None for c in report.checks if not c.commutes)


@pytest.mark.parametrize(
    "k, leaders, relations, etas, message",
    [
        (2, [theta(1, 0)], {theta(1, 0): xj(1, 0)}, [{}], "need 2 coefficient tables, got 1"),
        (2, [word(1)], {word(1): xj(1, 0)}, None, "leader d1 is not an exponent tuple over k=2"),
        (2, [theta(1, 0, 0)], {theta(1, 0, 0): xj(1, 0, 0)}, None, "is not an exponent tuple over k=2"),
        (2, [theta(0, 0)], {theta(0, 0): xj(0, 0)}, None, "the identity cannot be a leader"),
        (2, [theta(1, 0), theta(1, 0)], {theta(1, 0): xj(1, 0)}, None, "duplicate leaders"),
        (2, [theta(1, 0)], {theta(0, 1): xj(0, 1)}, None, "relations must be given exactly for the leaders"),
        (
            2,
            [theta(1, 0)],
            {theta(1, 0): xj(1, 0) - Poly.variable(JetVar("y", theta(0, 0)))},
            None,
            "foreign jet variable y",
        ),
        (2, [theta(1, 0)], {theta(1, 0): xj(1, 0) - xj(0, 1)}, None, "which is not below d1"),
    ],
)
def test_configuration_rejects_malformed_input(k, leaders, relations, etas, message):
    with pytest.raises(ConfigurationError, match=message):
        Configuration(k, leaders, relations, etas=etas)


def test_compute_f_and_r_apply_reject_bad_arguments():
    cfg = pair_config(xj(0, 0), 2 * xj(0, 0))
    for bad in (theta(1, 0), word(1, k=3)):
        with pytest.raises(ConfigurationError, match="is not a word over k=2 generators"):
            cfg.compute_f(bad, theta(1, 0))
    with pytest.raises(ConfigurationError, match="is not a leader"):
        cfg.compute_f(word(1), theta(1, 1))
    for i in (0, 3):
        with pytest.raises(ConfigurationError, match=f"no derivation d{i} with k=2"):
            cfg.r_apply(i, xj(0, 0))


def test_realize_check_rejects_a_model_that_misses_the_coefficient_tables():
    C = JetVar("c")
    cfg = pair_config(xj(0, 0), 2 * xj(0, 0), etas=[{C: 0}, {C: 0}])
    with pytest.raises(ConfigurationError, match="model does not interpret parameter c"):
        cfg.realize_check(DiffModel.on_parameters([U], [{U: u}, {U: 2 * u}]), RatFun(u), depth=1)
    model = DiffModel.on_parameters([U, C], [{U: u}, {U: 2 * u, C: 1}])
    with pytest.raises(ConfigurationError, match="model derivation d2 disagrees with the coefficient table on c"):
        cfg.realize_check(model, RatFun(u), depth=1)


POLE_AT_ZERO = """
k = 2
P: d1, d2
p[d1] = x[d1] - t*x[0]
p[d2] = x[d2] - t*x[0]
eta[d1]: t -> 1/t
eta[d2]: t -> 0
"""


def test_witness_draws_skip_a_point_at_a_pole():
    # the routes to d1 d2 differ by x[0]/t, so a drawn t = 0 is a pole
    T = JetVar("t")
    for seed in range(100):
        cfg, drawn = parse_config(POLE_AT_ZERO), []
        sample = cfg.sample_point
        cfg.sample_point = lambda rng, needed: drawn.append(sample(rng, needed)) or drawn[-1]
        check = cfg.check_commutation_at(theta(1, 1), random.Random(seed))
        if drawn[0][T] == 0:
            break
    else:
        pytest.fail("no seed draws t = 0 first")
    assert check.status == "violation"
    assert str(check.reduced_difference) == "x[0]"
    assert check.point == drawn[-1] and len(drawn) > 1 and check.point[T] != 0


CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "corpus")


def corpus_config(name: str) -> Configuration:
    with open(os.path.join(CORPUS, name)) as handle:
        return parse_config(handle.read())


def jets_of(cfg: Configuration, degree: int):
    """Each tuple of degree <= degree with f_at there and compute_f on each of its factorizations."""
    for alpha in theta_ball(cfg.k, degree):
        yield cfg.f_at(alpha), [cfg.compute_f(w, pi) for w, pi in cfg.factorizations(alpha)]


@pytest.mark.parametrize("name", ["three.cfg", "separant.cfg", "quadratic.cfg"])
def test_f_reads_the_same_on_a_fresh_and_a_checked_configuration(name):
    # the images of R_i fill as they are asked for, so the order of the asks must not show
    fresh = list(jets_of(corpus_config(name), 4))
    checked = corpus_config(name)
    checked.verify_global(4)
    assert len(fresh) == 15
    for (f1, gs1), (f2, gs2) in zip(fresh, jets_of(checked, 4)):
        for g1, g2 in zip([f1, *gs1], [f2, *gs2], strict=True):
            assert g1 == g2 and repr(g1.witness) == repr(g2.witness)
            assert str(g1.value) == str(g2.value)


@pytest.mark.parametrize("name", ["three.cfg", "separant.cfg", "quadratic.cfg"])
def test_r_apply_on_a_free_variable_is_f_one_step_up(name):
    cfg = corpus_config(name)
    free = [mu for mu in theta_ball(cfg.k, 2) if cfg.is_free(mu)]
    assert free
    for i in range(1, cfg.k + 1):
        gen = MonoidElem.generator(COMMUTATIVE, cfg.k, i)
        for mu in free:
            assert cfg.r_apply(i, Poly.variable(cfg.jet_var(mu))) == cfg.f_at(gen.compose(mu)).value
