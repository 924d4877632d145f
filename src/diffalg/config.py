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
polynomials).  The image tables and the memos of D(b_j) / b_j hold values
over the same base, so nothing is converted between the steps of the
recursion.  R_d is that base's one derivation rule, `FactorBase.derive`,
with R_d on a variable given by the coefficient table on a parameter and by
f at d.mu on x_mu; so the exponents grow linearly with the word length.
Values leave this module under the value rule (`algebra.as_value`): a
`Poly` over a constant denominator, else a `RatFun`.

A configuration commutes at a tuple alpha when its word/leader
factorizations agree on the locus (`_agree`).  Coherence (Rosenfeld 1959;
Pierce 2014): with relations squarefree in their leaders, every tuple of
degree <= D commutes once [R_i, R_j] vanishes on the parameters and on the
free and leader generators of degree <= D - 2; `_commutes_on` tests both.
`verify_global` compares every factorization only to find a witness,
which a rational point of the locus confirms if it can.
"""

from __future__ import annotations

import json
import random
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import factorial, gcd, isqrt, prod
from operator import add, sub

from .algebra import JetVar, Poly, Value, as_value, fraction, over_one_base, pseudo_reduce, to_value
from .derivation import DerSpec, Tower, _last_remainder, apply_derivation
from .errors import ConfigurationError, PoleError
from .jet import DiffModel, jet_binding
from .monoid import COMMUTATIVE, FREE, MonoidElem, Record, antichain_minimal, theta_ball

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
        super().__init__(alpha, status, trivial, witness, reduced_difference, point)

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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


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
        self._validate()
        self.leaders = tuple(sorted(self.leaders))  # comparable once validated
        # the relations as a triangular chain, highest leader first
        self._chain = tuple((self.jet_var(pi), self.relations[pi]) for pi in reversed(self.leaders))

        params = set()
        for p in self.relations.values():
            params |= {v for v in p.variables() if v.index is None}
        for table in self.etas:
            params |= set(table)
            for value in table.values():
                params |= value.variables()
        self.params = tuple(sorted(params))

        # the factor base: the separants, then the eta denominators; R_i on
        # each variable: eta_i on the parameters, x_mu added when first asked for
        self._base, etas = over_one_base(
            [table.get(p, Poly.zero()) for table in self.etas for p in self.params],
            [self.separant(pi) for pi in self.leaders],
        )
        values = iter(etas)
        self._images = tuple({p: next(values) for p in self.params} for _ in self.etas)
        self._memos: tuple[dict[int, Value], ...] = tuple({} for _ in range(k))
        self._word_cache: dict[tuple[tuple[int, ...], MonoidElem], Value] = {}
        if not self._commutes_on(self.params):
            raise ConfigurationError("the eta tables do not commute on the parameters")

    # ------------------------------------------------------------------

    def _validate(self):
        for pi in self.leaders:
            if pi.kind != COMMUTATIVE or pi.k != self.k:
                raise ConfigurationError(f"leader {pi} is not an exponent tuple over k={self.k}")
            if pi.is_identity:
                raise ConfigurationError("the identity cannot be a leader")
        if len(set(self.leaders)) != len(self.leaders):
            raise ConfigurationError("duplicate leaders")
        if frozenset(self.leaders) != antichain_minimal(self.leaders):
            raise ConfigurationError("leaders do not form an anti-chain")
        if set(self.relations) != set(self.leaders):
            raise ConfigurationError("relations must be given exactly for the leaders")
        for pi, p in self.relations.items():
            xpi = self.jet_var(pi)
            if not p.depends_on(xpi):
                raise ConfigurationError(f"relation for {pi} does not involve {xpi}")
            for v in p.variables():
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
        return GFun(as_value(self._f_word(word.data, pi)), (word, pi))

    def _f_theta(self, alpha: MonoidElem) -> tuple[Value, tuple | str]:
        if self.is_free(alpha):
            return Poly.variable(self.jet_var(alpha)), "free variable"
        # a leader's word is the empty one, and its f the leader's variable
        pi = next(p for p in self.leaders if p.preceq(alpha))
        word = alpha.minus(pi).canonical_word()
        return self._f_word(word.data, pi), (word, pi)

    def _f_word(self, letters: tuple[int, ...], pi: MonoidElem) -> Value:
        key = (letters, pi)
        value = self._word_cache.get(key)
        if value is None:
            if not letters:
                value = Poly.variable(self.jet_var(pi))
            elif len(letters) == 1:
                value = self._single_letter(letters[0], pi)
            else:
                value = self._derive(letters[0], self._f_word(letters[1:], pi))
            self._word_cache[key] = value
        return value

    def _derive(self, i: int, f: Value) -> Value:
        """R_i(f), by the base's derivation rule and its memo for R_i."""
        return self._base.derive(f, partial(self._image, i), self._memos[i - 1])

    def _single_letter(self, i: int, pi: MonoidElem) -> Value:
        """f_{d_i,pi}: solve R_i(p_pi) = 0 for the image of x_pi."""
        xpi = self.jet_var(pi)
        base = self._base
        rest = base.derive(self.relations[pi], lambda v: None if v == xpi else self._image(i, v), {})
        scale, exps = base.split(self.separant(pi))
        exps = tuple(map(add, rest.exps or base.zero, exps))
        return fraction(rest.numer * Fraction(-1, scale.constant_value()), base, exps)

    def _image(self, i: int, v: JetVar) -> Value | None:
        """R_i(v), from the table of R_i: eta_i on a parameter, None on any
        other plain variable (a constant of R_i), and f at d_i.mu on x_mu.
        That f is the single-letter one on a leader mu, else f at the
        tuple d_i.mu; it enters the table the first time it is asked for.
        """
        table = self._images[i - 1]
        out = table.get(v)
        if out is None and v.index is not None:
            mu = v.index
            if mu in self.relations:
                out = self._f_word((i,), mu)
            else:
                out = self._f_theta(MonoidElem.generator(COMMUTATIVE, self.k, i).compose(mu))[0]
            table[v] = out
        return out

    def r_apply(self, i: int, h: Value) -> Value:
        """The derivation extending d_i that sends each x_mu to f at d_i.mu."""
        if not 1 <= i <= self.k:
            raise ConfigurationError(f"no derivation d{i} with k={self.k}")
        eta = self.etas[i - 1]
        images = {v: eta.get(v, 0) if v.index is None else self._image(i, v) for v in h.variables()}
        return apply_derivation(h, DerSpec({}, images))

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

    def _agree(self, f: Value, g: Value) -> bool:
        """f = g on the locus: over a common B^e, the chain reduces N_f - N_g to 0."""
        return self.reduce_mod((f - g).numer).is_zero

    def factorizations(self, alpha: MonoidElem) -> list[tuple[MonoidElem, MonoidElem]]:
        """All (word, leader) pairs whose composite is alpha, ordered by leader,
        then by word: Algorithm L yields each leader's words in order."""
        out = []
        for pi in self.leaders:
            if pi.preceq(alpha):
                for perm in _multiset_permutations(alpha.minus(pi).canonical_word().data):
                    out.append((MonoidElem.word(self.k, perm), pi))
        return out

    def check_commutation_at(
        self,
        alpha: MonoidElem,
        rng: random.Random | None = None,
    ) -> CommutationCheck:
        """Decide whether all factorizations of alpha agree on the locus."""
        if self._count_factorizations(alpha) <= 1:
            return CommutationCheck(alpha, "commutes", trivial=True)
        reps = self.factorizations(alpha)
        base_word, base_pi = reps[0]
        base_value = self._f_word(base_word.data, base_pi)
        for word, pi in reps[1:]:
            value = self._f_word(word.data, pi)
            if self._agree(value, base_value):
                continue
            # the numerator difference over the common B^e, in normal form
            reduced = self.reduce_mod((value - base_value).num)
            witness = Witness(word, pi, base_word, base_pi)
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
        the relations.  Returns None when some relation has no rational root
        with nonzero separant at the drawn free values.
        """
        needed = set(needed)
        for p in self.relations.values():
            needed |= p.variables()
        point: dict[JetVar, Fraction] = {}
        for v in sorted(needed):
            if v.index is None or (self.is_free(v.index)):
                point[v] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        for pi in self.leaders:
            p = self.relations[pi]
            xpi = self.jet_var(pi)
            lower = {v: point[v] for v in p.variables() if v != xpi}
            univ = p.substitute(lower)
            root = _rational_root(univ, xpi)
            if root is None:
                return None
            sep_val = self.separant(pi).substitute({**lower, xpi: root})
            if sep_val.is_zero:
                return None
            point[xpi] = root
        return point

    # ------------------------------------------------------------------
    # local and global checks

    def check_local(self, rng: random.Random | None = None) -> CommutationReport:
        """Check every tuple of degree at most |theta| that precedes theta, the
        join of the leaders, in the total order of `MonoidElem` (degree, then
        the lexicographic tie-break), not only those below theta
        componentwise: for P = d1, d2 that is 0, d1, d2, d1^2 and d1 d2."""
        theta = self.theta
        return self._run_checks("local", [a for a in theta_ball(self.k, theta.degree) if a <= theta], rng)

    def verify_global(self, degree_bound: int, rng: random.Random | None = None) -> CommutationReport:
        """Check every tuple of total degree at most D = `degree_bound`.

        Coherence first (Rosenfeld, "Specializations in differential
        algebra", Trans. AMS 1959; Pierce, "Fields with several commuting
        derivations", JSL 2014): `_coherent` asks for relations squarefree
        in their leaders and for [R_i, R_j] x_nu = 0 on the locus for every
        free or leader nu with |nu| <= D - 2.  Squarefree relations make the
        base factors units on the locus, where `_agree` is equality.
        R_i(p_pi) = 0 (`_single_letter`), so R_i and [R_i, R_j], which is 0
        on the parameters (`__init__`), keep the ideal of the chain.  A value
        of degree m holds generators and base factors of degree <= m, so
        [R_i, R_j] kills every value of degree <= D - 2.

        Then, by induction on n = |alpha| <= D, all factorizations of alpha
        agree.  Two words for one leader differ by swaps of adjacent
        letters, each applied to a value of degree <= n - 2.  For leaders
        pi != pi' below alpha, with join lambda = pi v pi':
        - lambda < alpha: agreement at lambda (induction) lifts to alpha
          by R^(alpha - lambda).
        - lambda = alpha: take i with pi_i > pi'_i, j with pi'_j > pi_j,
          and mu = lambda - d_i - d_j.  If mu is free, the generator test
          at mu compares R_i(f at lambda - d_i) with R_j(f at lambda - d_j),
          which by induction at n - 1 are the factorizations through pi'
          and through pi.  Else mu lies above a leader pi'' outside
          {pi, pi'}, as mu_i < pi_i and mu_j < pi'_j; pi v pi'' and
          pi' v pi'' lie strictly below lambda, in coordinates j and i, so
          agreement passes through pi'' by the first case.

        If the test fails, every factorization is compared.
        """
        if degree_bound < 0:
            raise ConfigurationError(f"negative degree bound {degree_bound}")
        alphas = theta_ball(self.k, degree_bound)
        if not self._coherent(degree_bound):
            return self._run_checks("global", alphas, rng)
        if rng is not None:
            rng.randrange(2 ** 31)  # the draw `_run_checks` makes
        checks = (CommutationCheck(a, "commutes", trivial=self._count_factorizations(a) <= 1) for a in alphas)
        return CommutationReport("global", tuple(checks))

    def _coherent(self, degree_bound: int) -> bool:
        """The generator and squarefree tests in turn; False at the first failure."""
        generators = (
            self.jet_var(nu)
            for nu in theta_ball(self.k, degree_bound - 2)
            if nu in self.relations or self.is_free(nu)
        )
        squarefree = (  # each separant is a unit on the locus
            not _last_remainder(Tower(()), p.partial(v), p, v)[0].depends_on(v) for v, p in self._chain
        )
        return self._commutes_on(generators) and all(squarefree)

    def _commutes_on(self, variables: Iterable[JetVar]) -> bool:
        """R_i(R_j v) agrees with R_j(R_i v) for every parameter or jet variable v and i < j."""
        return all(
            self._agree(self._derive(i, self._image(j, v)), self._derive(j, self._image(i, v)))
            for v in variables
            for i, j in combinations(range(1, self.k + 1), 2)
        )

    def _count_factorizations(self, alpha: MonoidElem) -> int:
        """len(self.factorizations(alpha)): a multinomial per leader below alpha."""
        # preceq has checked each quotient, so it is read off the exponents
        quotients = (tuple(map(sub, alpha.data, pi.data)) for pi in self.leaders if pi.preceq(alpha))
        return sum(factorial(sum(q)) // prod(map(factorial, q)) for q in quotients)

    def _run_checks(self, kind, alphas, rng) -> CommutationReport:
        seed = rng.randrange(2 ** 31) if rng is not None else 2025
        checks = [
            self.check_commutation_at(alpha, random.Random(seed + 7919 * i))
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
    """A rational root of a polynomial in `main` alone, or None."""
    coeffs_by_deg = {m.deg_in(main): c for m, c in p.terms.items()}
    degree = max(coeffs_by_deg, default=0)
    if degree == 0:
        return None
    if degree == 1:
        return Fraction(-coeffs_by_deg.get(0, 0), coeffs_by_deg[1])
    # clear denominators, then try divisor-quotient candidates
    denom_lcm = 1
    for c in coeffs_by_deg.values():
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    top_down = [int(coeffs_by_deg.get(e, 0) * denom_lcm) for e in range(degree, -1, -1)]
    an, a0 = top_down[0], top_down[-1]
    if a0 == 0:
        return Fraction(0)
    if abs(a0) > 10 ** 9 or abs(an) > 10 ** 9:
        return None

    def divisors(n):
        n = abs(n)
        return sorted({e for d in range(1, isqrt(n) + 1) if n % d == 0 for e in (d, n // d)})

    for num in divisors(a0):
        for den in divisors(an):
            for x in (num, -num):
                # den^degree * p(x/den) = sum of a_e * x^e * den^(degree - e), by Horner
                acc, scale = 0, 1
                for c in top_down:
                    acc, scale = acc * x + c * scale, scale * den
                if acc == 0:
                    return Fraction(x, den)
    return None
