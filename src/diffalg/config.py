"""Commuting-derivation configurations over exponent-tuple jets.

A configuration prescribes, for each minimal leader pi in an anti-chain of
exponent tuples, a polynomial relation p_pi tying the jet variable x_pi to
strictly smaller free jet variables.  On the locus where every p_pi
vanishes with nonzero separant, the relations force a value for every
higher derivative: the rational functions f computed here say which.

For a single derivation symbol d and a leader pi:

    f_{d,pi} = - (p_pi with coefficients derived
                  + sum over free mu of (dp_pi/dx_mu) * f at d.mu)
               / (dp_pi / dx_pi),

and longer words w extend this through the derivation R_d that sends each
x_mu to f at d.mu.

Every f is kept as an `algebra.RatFun`, a polynomial numerator over a
product of powers of the factors of the configuration's one
`algebra.FactorBase`: the separants of the leaders, then the factors of the
coefficient tables' denominators (constant ones fold into the
coefficients, so a configuration with constant separants computes plain
polynomials).  One table holds the R-values (`_f_word`): R_w(v) for a word
w and a variable v, so f at a word on a leader, R_d on a variable, the
coherence test's f at a join and the eta check's R_i(R_j c) are each
derived once, by whichever check asks first.  It and the memos of
D(b_j) / b_j hold values over the same base, so nothing is converted
between the steps of the recursion.  R_d is that base's one derivation
rule, `FactorBase.derive`, reading R_d on a variable from the table's
one-letter words: the coefficient table on a parameter and f at d.mu on
x_mu; so the exponents grow linearly with the word length.
Values leave this module under the value rule (`algebra.as_value`): a
`Poly` over a constant denominator, else a `RatFun`.

A configuration commutes at a tuple alpha when its word/leader
factorizations agree on the locus (`_agree`).  Coherence (Rosenfeld 1959;
Kolchin 1973; Pierce 2014): with relations squarefree in their leaders and
eta tables that commute on the parameters (the eta check in `__init__`),
every tuple of every degree commutes once, for each pair of leaders, f at
their join through one agrees with f there through the other
(`_coherent`): one comparison per pair, whatever the degree.
`verify_global` compares every factorization only to find a witness, which
a rational point of the locus confirms if it can.

Each comparison is decided once per configuration: `_agree` takes two keys
of the table of R-values and keeps its verdict for the pair, and a
violation's reduced difference is kept for its ordered pair, so the local
check, the coherence test and the enumeration share them.  Witness points
are not shared: each checked tuple draws its own, from a generator seeded
by the tuple's place in the list.  A trivial tuple, with at most one
factorization, is compared with nothing and draws nothing, so no generator
is made for it; the seeds of the others do not change.
"""

from __future__ import annotations

import random
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations
from math import isqrt, lcm
from operator import add, le, ne

from .algebra import JetVar, Poly, Value, as_value, fraction, over_one_base, pseudo_reduce, to_value
from .derivation import DerSpec, Tower, _last_remainder, apply_derivation
from .errors import ConfigurationError, PoleError
from .jet import DiffModel, jet_binding
from .monoid import COMMUTATIVE, FREE, MonoidElem, Record, theta_ball

# random points tried before a violation is reported unconfirmed
_WITNESS_DRAWS = 40


class GFun(Record):
    """A computed jet function together with the factorization it came from."""

    __slots__ = ("value", "witness")
    value: Value
    witness: tuple[MonoidElem, MonoidElem] | str


class Witness(Record):
    __slots__ = ("word1", "leader1", "word2", "leader2")
    word1: MonoidElem
    leader1: MonoidElem
    word2: MonoidElem
    leader2: MonoidElem

    def to_dict(self):
        return {
            "word1": str(self.word1),
            "leader1": str(self.leader1),
            "word2": str(self.word2),
            "leader2": str(self.leader2),
        }


class CommutationCheck(Record):
    __slots__ = ("alpha", "status", "trivial", "witness", "reduced_difference", "point")
    alpha: MonoidElem
    status: str  # "commutes" | "violation" | "violation-unconfirmed"
    trivial: bool
    witness: Witness | None
    reduced_difference: Poly | None
    point: dict | None

    def __init__(self, alpha, status, trivial=False, witness=None, reduced_difference=None, point=None):
        # one record per checked tuple: the fields are set directly, not through Record's loop
        setattr = object.__setattr__
        setattr(self, "alpha", alpha)
        setattr(self, "status", status)
        setattr(self, "trivial", trivial)
        setattr(self, "witness", witness)
        setattr(self, "reduced_difference", reduced_difference)
        setattr(self, "point", point)

    @property
    def commutes(self) -> bool:
        return self.status == "commutes"

    def to_dict(self):
        out = {"alpha": str(self.alpha), "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        if self.reduced_difference is not None:
            out["reduced_difference"] = str(self.reduced_difference)
        if self.point is not None:
            out["point"] = {str(k): str(v) for k, v in sorted(self.point.items(), key=lambda kv: str(kv[0]))}
        return out


class CommutationReport(Record):
    __slots__ = ("kind", "checks")
    kind: str  # "local" | "global"
    checks: tuple[CommutationCheck, ...]

    @property
    def commutes(self) -> bool:
        return all(c.commutes for c in self.checks)

    def first_violation(self) -> CommutationCheck | None:
        for c in self.checks:
            if not c.commutes:
                return c
        return None

    def to_dict(self):
        return {
            "kind": self.kind,
            "commutes": self.commutes,
            "checks": [c.to_dict() for c in self.checks],
        }


class RealizeReport(Record):
    __slots__ = ("ok", "depth", "checked", "mismatch", "expected", "got")
    ok: bool
    depth: int
    checked: int
    mismatch: MonoidElem | None
    expected: str | None
    got: str | None

    def __init__(self, ok, depth, checked, mismatch=None, expected=None, got=None):
        super().__init__(ok, depth, checked, mismatch, expected, got)

    def to_dict(self):
        out = {"ok": self.ok, "depth": self.depth, "checked": self.checked}
        if self.mismatch is not None:
            out["mismatch"] = str(self.mismatch)
            out["expected"] = self.expected
            out["got"] = self.got
        return out


class Configuration:
    """Anti-chain of minimal leaders with one defining relation per leader."""

    def __init__(
        self,
        k: int,
        leaders: Sequence[MonoidElem],
        relations: Mapping[MonoidElem, Poly],
        etas: Sequence[Mapping[JetVar, Value]] | None = None,
        base: str = "x",
    ):
        self.k = k
        self.base = base
        self.leaders = tuple(leaders)
        self.relations = dict(relations)
        if etas is None:
            etas = [{} for _ in range(k)]
        if len(etas) != k:
            raise ConfigurationError(f"need {k} coefficient tables, got {len(etas)}")
        self.etas = tuple({c: to_value(v) for c, v in t.items()} for t in etas)
        variables = {pi: p.variables() for pi, p in self.relations.items()}
        self._validate(variables)
        self.leaders = tuple(sorted(self.leaders))  # comparable once validated
        # what `sample_point` reads on every draw: the variables of the
        # relations, each leader's variable, relation and separant in leader
        # order, and whether a variable is drawn, for each one met so far
        self._relation_vars = set().union(*variables.values())
        solve = []
        for pi in self.leaders:
            xpi, p = self.jet_var(pi), self.relations[pi]
            solve.append((xpi, p, p.partial(xpi)))
        self._solve = tuple(solve)
        self._drawn: dict[JetVar, bool] = {}
        # the relations as a triangular chain, highest leader first
        self._chain = tuple((xpi, p) for xpi, p, _ in reversed(solve))

        params = {v for v in self._relation_vars if v.index is None}
        for table in self.etas:
            params |= set(table)
            for value in table.values():
                params |= value.variables()
        self.params = tuple(sorted(params))

        # the factor base: the separants, then the eta denominators; the table
        # of R-values (`_f_word`) starts with eta_i over it on each parameter
        self._base, etas = over_one_base(
            [table.get(p, Poly.zero()) for table in self.etas for p in self.params],
            [separant for _, _, separant in self._solve],
        )
        values = iter(etas)
        self._word_cache: dict[tuple[tuple[int, ...], JetVar], Value] = {
            ((i,), p): next(values) for i in range(1, k + 1) for p in self.params
        }
        self._memos: tuple[dict[int, Value], ...] = tuple({} for _ in range(k))
        # `_agree`'s verdict on each pair of table keys, either way round, and
        # the reduced difference of each violation, by its ordered pair
        self._verdicts: dict[tuple, bool] = {}
        self._differences: dict[tuple, Poly] = {}
        # the eta check, which step 1 of the coherence proof in `verify_global`
        # rests on: R_i(R_j c) agrees with R_j(R_i c) on every parameter c,
        # where R_i is the coefficient table eta_i
        if not all(
            self._agree(((i, j), c), ((j, i), c)) for c in self.params for i, j in combinations(range(1, k + 1), 2)
        ):
            raise ConfigurationError("the eta tables do not commute on the parameters")

    # ------------------------------------------------------------------

    def _validate(self, variables: Mapping[MonoidElem, set[JetVar]]):
        """Refuse malformed data, given the variables of each relation."""
        for pi in self.leaders:
            if pi.kind != COMMUTATIVE or pi.k != self.k:
                raise ConfigurationError(f"leader {pi} is not an exponent tuple over k={self.k}")
            if pi.is_identity:
                raise ConfigurationError("the identity cannot be a leader")
        if len(set(self.leaders)) != len(self.leaders):
            raise ConfigurationError("duplicate leaders")
        # distinct exponent tuples over k: an anti-chain when none divides another
        if any(all(map(le, a.data, b.data)) for a, b in permutations(self.leaders, 2)):
            raise ConfigurationError("leaders do not form an anti-chain")
        if self.relations.keys() != set(self.leaders):
            raise ConfigurationError("relations must be given exactly for the leaders")
        for pi, p in self.relations.items():
            xpi = self.jet_var(pi)
            if not p.depends_on(xpi):
                raise ConfigurationError(f"relation for {pi} does not involve {xpi}")
            for v in variables[pi]:
                if v.index is None:
                    continue
                if v.base != self.base:
                    raise ConfigurationError(f"foreign jet variable {v} in relation for {pi}")
                mu = v.index
                if mu == pi:
                    continue
                if not self.is_free(mu):
                    raise ConfigurationError(
                        f"relation for {pi} mentions leader variable {v}"
                    )
                if not mu < pi:
                    raise ConfigurationError(
                        f"relation for {pi} mentions {v}, which is not below {pi}"
                    )
        # the f recursion reads eta on parameters only: a jet variable there is never derived
        for i, table in enumerate(self.etas, 1):
            for c, value in table.items():
                if any(v.index is not None for v in {c} | value.variables()):
                    raise ConfigurationError(
                        f"eta[d{i}] maps {c} -> {value}, but coefficient tables act on "
                        "parameters, not on jet variables"
                    )

    # ------------------------------------------------------------------

    def jet_var(self, mu: MonoidElem) -> JetVar:
        return JetVar(self.base, mu)

    def is_free(self, mu: MonoidElem) -> bool:
        return not any(pi.preceq(mu) for pi in self.leaders)

    @property
    def theta(self) -> MonoidElem:
        out = MonoidElem.identity(COMMUTATIVE, self.k)
        for pi in self.leaders:
            out = out.lub(pi)
        return out

    def separant(self, pi: MonoidElem) -> Poly:
        return self.relations[pi].partial(self.jet_var(pi))

    # ------------------------------------------------------------------
    # the recursion for f

    def f_at(self, alpha: MonoidElem) -> GFun:
        """The canonical function for an exponent tuple.

        Free tuples and leaders are plain variables; for composite leaders
        the representative uses the least leader dividing alpha and the
        word of the quotient with non-increasing generator indices.
        """
        value, witness = self._f_theta(alpha)
        return GFun(as_value(value), witness)

    def compute_f(self, word: MonoidElem, pi: MonoidElem) -> GFun:
        if word.kind != FREE or word.k != self.k:
            raise ConfigurationError(f"{word} is not a word over k={self.k} generators")
        if pi not in self.relations:
            raise ConfigurationError(f"{pi} is not a leader")
        return GFun(as_value(self._f_word(word.data, self.jet_var(pi))), (word, pi))

    def _f_theta(self, alpha: MonoidElem) -> tuple[Value, tuple | str]:
        if self.is_free(alpha):
            return Poly.variable(self.jet_var(alpha)), "free variable"
        # a leader's word is the empty one, and its f the leader's variable
        pi = next(p for p in self.leaders if p.preceq(alpha))
        word = alpha.minus(pi).canonical_word()
        return self._f_word(word.data, self.jet_var(pi)), (word, pi)

    def _f_word(self, letters: tuple[int, ...], v: JetVar) -> Value | None:
        """R_w(v) for the word w = letters, from the one table of R-values.

        The empty word gives v, and a longer word R_(l_1) of the rest.  One
        letter i gives R_i(v): eta_i over the base on a parameter (entered
        by `__init__`), None on any other plain variable (a constant of R_i,
        returned but never stored), the single-letter f on a leader x_pi, and
        f at the tuple d_i.mu on any other x_mu.  Each value enters the table
        the first time it is asked for, so the words of `f_at`, of the
        enumeration and of the coherence test share it.  A long word starts
        from its longest suffix in the table, or its last letter, and derives
        leftwards one letter at a time, so its length costs no stack.
        """
        cache = self._word_cache
        start = 0
        while (value := cache.get((letters[start:], v))) is None and start < len(letters) - 1:
            start += 1
        if value is None:
            if not letters:
                value = Poly.variable(v)
            elif v.index is None:
                return None
            elif v.index in self.relations:
                value = self._single_letter(letters[-1], v)
            else:
                value = self._f_theta(MonoidElem.generator(COMMUTATIVE, self.k, letters[-1]).compose(v.index))[0]
            cache[letters[start:], v] = value
        for j in range(start - 1, -1, -1):
            value = self._derive(letters[j], value)
            cache[letters[j:], v] = value
        return value

    def _derive(self, i: int, f: Value) -> Value:
        """R_i(f), by the base's derivation rule and its memo for R_i."""
        return self._base.derive(f, partial(self._f_word, (i,)), self._memos[i - 1])

    def _single_letter(self, i: int, xpi: JetVar) -> Value:
        """f_{d_i,pi}: solve R_i(p_pi) = 0 for the image of x_pi."""
        pi, base = xpi.index, self._base
        # x_pi maps to None here: reading the table on it would come back to this call
        rest = base.derive(self.relations[pi], lambda v: None if v is xpi else self._f_word((i,), v), {})
        scale, exps = base.split(self.separant(pi))
        exps = tuple(map(add, rest.exps or base.zero, exps))
        return fraction(rest.numer * Fraction(-1, scale.constant_value()), base, exps)

    def r_apply(self, i: int, h: Value) -> Value:
        """The derivation extending d_i that sends each x_mu to f at d_i.mu."""
        if not 1 <= i <= self.k:
            raise ConfigurationError(f"no derivation d{i} with k={self.k}")
        # `_f_word` gives None on a constant of R_i, whose image is 0
        return apply_derivation(h, DerSpec({}, {v: self._f_word((i,), v) or 0 for v in h.variables()}))

    def r_apply_word(self, word: MonoidElem, h: Value) -> Value:
        out = h
        for letter in reversed(word.data):
            out = self.r_apply(letter, out)
        return out

    # ------------------------------------------------------------------
    # equality on the locus

    def reduce_mod(self, p: Poly) -> Poly:
        """Pseudo-reduce by every relation, highest leader first."""
        return pseudo_reduce(p, self._chain)[0]

    def _agree(self, a: tuple, b: tuple) -> bool:
        """f = g on the locus, for the R-values f and g at two keys (letters,
        variable) of the table: over a common B^e, the chain reduces N_f - N_g
        to 0.  Decided once per pair: N_g - N_f reduces to the negated
        remainder, so the verdict holds either way round."""
        verdict = self._verdicts.get((a, b))
        if verdict is None:
            verdict = self.reduce_mod((self._f_word(*a) - self._f_word(*b)).numer).is_zero
            self._verdicts[a, b] = self._verdicts[b, a] = verdict
        return verdict

    def factorizations(self, alpha: MonoidElem) -> list[tuple[MonoidElem, MonoidElem]]:
        """All (word, leader) pairs whose composite is alpha, ordered by leader,
        then by word: Algorithm L yields each leader's words in order."""
        return [(MonoidElem.word(self.k, letters), pi) for letters, pi in self._factorizations(alpha)]

    def _factorizations(self, alpha: MonoidElem):
        """The pairs of `factorizations`, made one at a time, each word as its letters."""
        for pi in self.leaders:
            if pi.preceq(alpha):
                for letters in _multiset_permutations(alpha.minus(pi).canonical_word().data):
                    yield letters, pi

    def check_commutation_at(
        self,
        alpha: MonoidElem,
        rng: random.Random | None = None,
    ) -> CommutationCheck:
        """Decide whether all factorizations of alpha agree on the locus,
        comparing each with the first until one disagrees."""
        if self.leaders:  # `_trivial` reads alpha.data as an exponent tuple over k
            self.leaders[0]._check_compatible(alpha)
        if self._trivial(alpha):
            return CommutationCheck(alpha, "commutes", trivial=True)
        pairs = self._factorizations(alpha)
        base_letters, base_pi = next(pairs)
        base = (base_letters, self.jet_var(base_pi))
        for letters, pi in pairs:
            key = (letters, self.jet_var(pi))
            if self._agree(base, key):
                continue
            value, base_value = self._f_word(*key), self._f_word(*base)
            reduced = self._differences.get((key, base))
            if reduced is None:  # the numerator difference over the common B^e, in normal form
                reduced = self._differences[key, base] = self.reduce_mod((value - base_value).num)
            witness = Witness(MonoidElem.word(self.k, letters), pi, MonoidElem.word(self.k, base_letters), base_pi)
            point = self._confirm_witness(value, base_value, rng or random.Random(0))
            status = "violation" if point is not None else "violation-unconfirmed"
            return CommutationCheck(
                alpha,
                status,
                witness=witness,
                reduced_difference=reduced,
                point=point,
            )
        return CommutationCheck(alpha, "commutes")

    def _confirm_witness(self, f1: Value, f2: Value, rng: random.Random):
        needed = f1.variables() | f2.variables()
        for _ in range(_WITNESS_DRAWS):
            point = self.sample_point(rng, needed)
            if point is None:
                continue
            try:  # the point binds every variable of f1 and f2
                v1 = f1.substitute(point)
                v2 = f2.substitute(point)
            except PoleError:
                continue
            if v1 != v2:
                return point
        return None

    def sample_point(self, rng: random.Random, needed: set[JetVar]):
        """A rational point of the locus: random free values, solved leaders.

        Values are drawn for the needed variables and for every variable of
        the relations, in increasing variable order.  Returns None when some
        relation has no rational root with nonzero separant at the drawn free
        values.
        """
        point: dict[JetVar, Fraction] = {}
        for v in sorted(self._relation_vars.union(needed)):
            if (draw := self._drawn.get(v)) is None:
                draw = self._drawn[v] = v.index is None or self.is_free(v.index)
            if draw:
                point[v] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        for xpi, p, separant in self._solve:
            # every other variable of p is a parameter or free, so drawn
            root = point[xpi] = _rational_root(p.substitute(point), xpi)
            if root is None or separant.substitute(point).is_zero:
                return None
        return point

    # ------------------------------------------------------------------
    # local and global checks

    def check_local(self, rng: random.Random | None = None) -> CommutationReport:
        """Check every tuple of degree at most |theta| that precedes theta, the
        join of the leaders, in the total order of `MonoidElem` (degree, then
        the lexicographic tie-break), not only those below theta
        componentwise: for P = d1, d2 that is 0, d1, d2, d1^2 and d1 d2."""
        theta = self.theta
        alphas = [a for a in theta_ball(self.k, theta.degree) if a.sort_key <= theta.sort_key]
        return self._run_checks("local", alphas, rng)

    def verify_global(self, degree_bound: int, rng: random.Random | None = None) -> CommutationReport:
        """Check every tuple of total degree at most D = `degree_bound`.

        Coherence first (Rosenfeld, "Specializations in differential
        algebra", Trans. AMS 1959; Kolchin, "Differential Algebra and
        Algebraic Groups", 1973, ch. III §8; Pierce, "Fields with several
        commuting derivations", JSL 2014): `_coherent` asks for relations
        squarefree in their leaders and, for each pair of leaders
        pi < rho with join lambda = pi v rho, for f at lambda through pi to
        agree with f at lambda through rho.  Let A = {p_pi} and H the
        product of its initials and separants.  Then every factorization
        of every tuple agrees, at every degree:

        1. Work in the ring of differential polynomials over Q(params),
           with the eta derivations; they commute on the parameters
           (`__init__`).  Every factorization value v of alpha satisfies
           x_alpha = v modulo [A]:H^inf: implicit differentiation of p_pi
           along the word, by induction on |alpha|.
        2. A is autoreduced under the orderly ranking: each p_pi mentions
           only its leader and free coordinates below it.  The difference
           of two values of alpha involves only parameters, free
           coordinates and leader variables, so it is partially reduced.
        3. At lambda = pi v rho, theta_pi p_pi = s_pi (x_lambda -
           v_pi(lambda)) modulo derivatives of A of lower rank, for
           theta_pi = lambda - pi.  So the pair's agreement puts its
           Delta-polynomial in (A)_{<lambda}:H^inf: A is coherent.
        4. By Rosenfeld's lemma, a partially reduced element of [A]:H^inf
           lies in (A):H^inf.  With squarefree relations the separants
           are units on the locus, and there `_agree` decides membership.

        If the test fails, every factorization of degree <= D is compared;
        that enumeration is exact, so a pair whose join lies above D does
        not change the report.
        """
        if degree_bound < 0:
            raise ConfigurationError(f"negative degree bound {degree_bound}")
        alphas = theta_ball(self.k, degree_bound)
        if not self._coherent():
            return self._run_checks("global", alphas, rng)
        if rng is not None:
            rng.randrange(2 ** 31)  # the draw `_run_checks` makes
        checks = (CommutationCheck(a, "commutes", self._trivial(a)) for a in alphas)
        return CommutationReport("global", tuple(checks))

    def _coherent(self) -> bool:
        """Rosenfeld's pair test, then the squarefree test; False at the first failure.

        For each pair of leaders pi < rho with join lambda = pi v rho, f at
        lambda through pi, the canonical word of lambda - pi on x_pi, must
        agree with f at lambda through rho: C(#leaders, 2) comparisons,
        whatever the degree bound or k.
        """
        joins = (  # the keys of f at pi v rho through each leader of the pair
            ((pi.lub(rho).minus(lead).canonical_word().data, self.jet_var(lead)) for lead in (pi, rho))
            for pi, rho in combinations(self.leaders, 2)
        )
        squarefree = (  # each separant is a unit on the locus
            not _last_remainder(Tower(()), p.partial(v), p, v)[0].depends_on(v) for v, p in self._chain
        )
        return all(self._agree(*values) for values in joins) and all(squarefree)

    def _trivial(self, alpha: MonoidElem) -> bool:
        """len(self.factorizations(alpha)) <= 1: no leader below alpha, or one
        whose quotient is a power of one letter, with one word.  alpha is an
        exponent tuple over k, compared with the leaders' tuples directly."""
        data = alpha.data
        below = None  # the one leader below alpha met so far
        for pi in self.leaders:
            if all(map(le, pi.data, data)):
                if below is not None:
                    return False
                below = pi.data
        return below is None or sum(map(ne, data, below)) <= 1

    def _run_checks(self, kind, alphas, rng) -> CommutationReport:
        """A check of each tuple; the i-th draws its witness points from
        random.Random(seed + 7919 * i), made only for a tuple that is not
        trivial, since a trivial one draws none."""
        seed = rng.randrange(2 ** 31) if rng is not None else 2025
        checks = [
            CommutationCheck(alpha, "commutes", True)
            if self._trivial(alpha)
            else self.check_commutation_at(alpha, random.Random(seed + 7919 * i))
            for i, alpha in enumerate(alphas)
        ]
        return CommutationReport(kind, tuple(checks))

    # ------------------------------------------------------------------
    # realization against a concrete model

    def realize_check(self, model: DiffModel, b: Value, depth: int) -> RealizeReport:
        """Compare literal iterated derivatives of b with the functions here.

        The model must interpret the configuration's parameters and extend
        the coefficient tables; b's jets up to the leaders must satisfy
        every relation with nonzero separant.
        """
        sigma = {self.base: b}
        model_vars = set(model.variables())
        for p in self.params:
            if p not in model_vars:
                raise ConfigurationError(f"model does not interpret parameter {p}")
            for i in range(1, self.k + 1):
                expected = self.etas[i - 1].get(p, Poly.zero())
                if not model.equal(model.apply(i, Poly.variable(p)), expected):
                    raise ConfigurationError(
                        f"model derivation d{i} disagrees with the coefficient table on {p}"
                    )

        for pi in self.leaders:
            p, sep = self.relations[pi], self.separant(pi)
            if not model.is_zero(p.evaluate(jet_binding(model, sigma, p.variables()))):
                raise ConfigurationError(f"b violates the relation for {pi}")
            if model.is_zero(sep.evaluate(jet_binding(model, sigma, sep.variables()))):
                raise ConfigurationError(f"separant for {pi} vanishes at b")

        checked = 0
        for mu in theta_ball(self.k, depth):
            g = self.f_at(mu).value
            expected = g.evaluate(jet_binding(model, sigma, g.variables()))
            got = model.apply_word(mu, b)
            checked += 1
            if not model.equal(expected, got):
                return RealizeReport(
                    False,
                    depth,
                    checked,
                    mismatch=mu,
                    expected=str(model.reduce(expected)),
                    got=str(model.reduce(got)),
                )
        return RealizeReport(True, depth, checked)


def _multiset_permutations(items: Sequence[int]):
    """The distinct orderings of items, in lexicographic order.

    Knuth, TAOCP 7.2.1.2, Algorithm L: step from each arrangement to its
    lexicographic successor, so every distinct ordering appears once.
    """
    a = sorted(items)
    n = len(a)
    while True:
        yield tuple(a)
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        m = n - 1
        while a[j] >= a[m]:
            m -= 1
        a[j], a[m] = a[m], a[j]
        a[j + 1:] = a[:j:-1]


def _rational_root(p: Poly, main: JetVar) -> Fraction | None:
    """A rational root of a polynomial in `main` alone, or None.

    The root of a linear polynomial.  Else, with the coefficients cleared to
    integers a_n, ..., a_0: 0 when a_0 = 0, and None when |a_0| or |a_n|
    passes 10^9.  Otherwise the root that the divisor search
    (`_divisor_root`) meets first: of the roots p/q in lowest terms, the
    one of least |p|, then of least q, then with p > 0.  A quadratic's
    roots come from its discriminant, with one integer square root, and the
    same one is returned, so a witness point does not depend on which way
    its root was found.
    """
    # each monomial of p is e * main.unit, whose bits from main.shift up read e
    coeffs_by_deg = {m >> main.shift: c for m, c in p.terms.items()}
    degree = max(coeffs_by_deg, default=0)
    if degree == 0:
        return None
    if degree == 1:
        return Fraction(-coeffs_by_deg.get(0, 0), coeffs_by_deg[1])
    denom_lcm = lcm(*(c.denominator for c in coeffs_by_deg.values()))
    coeffs_by_deg = {e: c.numerator * (denom_lcm // c.denominator) for e, c in coeffs_by_deg.items()}
    top_down = [coeffs_by_deg.get(e, 0) for e in range(degree, -1, -1)]
    an, a0 = top_down[0], top_down[-1]
    if a0 == 0:
        return Fraction(0)
    if abs(a0) > 10 ** 9 or abs(an) > 10 ** 9:
        return None
    if degree > 2:
        return _divisor_root(top_down)
    a, b, c = top_down
    disc = b * b - 4 * a * c
    if disc < 0 or (s := isqrt(disc)) * s != disc:
        return None
    roots = (Fraction(-b + s, 2 * a), Fraction(-b - s, 2 * a))
    return min(roots, key=lambda r: (abs(r.numerator), r.denominator, r < 0))


def _divisor_root(top_down: Sequence[int]) -> Fraction | None:
    """The first x / den, over num dividing a_0 and den dividing a_n, both
    increasing, and x = num before x = -num, at which the integer polynomial
    with coefficients top_down = (a_n, ..., a_0) vanishes; None if there is
    none.  By the rational root theorem every rational root is met."""
    for num in _divisors(top_down[-1]):
        for den in _divisors(top_down[0]):
            for x in (num, -num):
                # den^n * p(x/den) = sum of a_e * x^e * den^(n - e), by Horner
                acc, scale = 0, 1
                for c in top_down:
                    acc, scale = acc * x + c * scale, scale * den
                if acc == 0:
                    return Fraction(x, den)
    return None


def _divisors(n: int) -> list[int]:
    """The positive divisors of n != 0, increasing."""
    n = abs(n)
    return sorted({e for d in range(1, isqrt(n) + 1) if n % d == 0 for e in (d, n // d)})
