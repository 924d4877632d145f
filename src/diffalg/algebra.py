"""Exact arithmetic over Q: sparse multivariate polynomials and fractions.

Variables are `JetVar`s: a base name plus an optional monoid index, so the
same engine serves plain parameters (no index), jet variables indexed by
words, and jet variables indexed by exponent tuples.  Variables are
interned: equal ones are the same object, so they compare and hash by
identity.

The coefficient rule: a coefficient is a nonzero rational, held as an `int`
when it is integral and as a `fractions.Fraction` only when it is not, and
never as a float; nothing here is ever approximate.  So a quotient of two
coefficients is always taken as `Fraction(a, b)`, never as `a / b`.  The
`Poly` constructor checks and normalises the coefficients it is given; the
ring operations build their results unchecked, since a sum, difference or
product of such coefficients is one again once zero sums are dropped and an
integral `Fraction` is made an `int`.

One fraction type, `RatFun`: a numerator N over B^e, a product of powers of
the factors of the `FactorBase` the value carries.  Arithmetic takes no gcd
and does not normalise.  Values over one base add over the elementwise
largest exponent vector and multiply by adding exponents; values over two
bases first go over their merge (`_common`).  A product or a quotient
divides each factor out of its numerator as often as it goes, so
`a * (1 / a)` is the `Poly` 1.  Equality is a difference over one base.

The normal form removes monomial content shared by N and B^e, folds a
constant denominator into the numerator, cancels the denominator when it
divides the numerator exactly, and else makes it primitive with a positive
leading coefficient.  It is computed only where a value leaves the engine
(printing, `num`, `den`, `variables`, `substitute`, `evaluate`), and at
most once per value: a `RatFun` keeps it once computed, and its fields are
set only when it is made.  The value rule needs only the first three steps
(`_lowest`), so it scales nothing.

The value rule, decided here and nowhere else: a value whose normal form has
a constant denominator is a `Poly`.  `as_value` applies it; public functions
apply it once to the values they return (`parse_expression`,
`apply_derivation`, `Tower.reduce`/`apply`/`invert`, `f_at`/`compute_f`,
`RatFun.substitute`).  Entry points take numbers from callers through
`to_value`, which normalises nothing.  Inside the engine a sum may stay a
`RatFun` whose normal form is a `Poly`; a value with no positive exponent is
always a `Poly`.  A `Poly` answers `num` (itself), `den` (1) and the raw
parts of a fraction over the empty base, so code reading them, `variables`,
`is_zero`, `evaluate` or `substitute` takes either type (`Value`).

The monomial rule: a `Monomial` is a `frozenset` of (variable, exponent)
pairs, one per variable it involves, so the hash and equality by which every
dict of terms finds a monomial are the set's own, computed in C.  Monomials
are not interned: a table of them would keep every monomial ever built alive.

The order rule: variables and monomials order themselves, by a `sort_key`.
The keys of a variable and of its index are set when the value is made; a
monomial, made afresh by every product, computes its key on first use,
once.  A `Monomial` is an unordered set of powers, ordered by degree, then
by its powers from the highest variable down, so `x[d1]` comes before
`x[0]`; a leading term is the largest monomial.
`Poly.__str__` and `Poly.substitute` walk a monomial's powers in increasing
variable order (`sorted_powers`): a product of fractions cancels factors
step by step, so its printed form depends on the order.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, sub

from .errors import PoleError, UncoveredVariableError, listing
from .monoid import MonoidElem, Record


# (base, index) -> its one JetVar, for the life of the process
_JETVARS: dict[tuple, "JetVar"] = {}


class JetVar(Record):
    """A variable: base name plus an optional monoid index.

    Plain variables (index None) play the role of parameters and auxiliary
    unknowns; indexed variables stand for iterated derivatives.  Variables
    are interned: `JetVar(base, index)` returns the one variable made from an
    equal (base, index) pair, kept in a module table that lives for the
    process, so equality and hash are those of the object itself.
    """

    __slots__ = ("base", "index", "sort_key", "text")

    def __new__(cls, base: str, index: MonoidElem | None = None):
        v = _JETVARS.get((base, index))
        if v is None:
            v = _JETVARS[base, index] = object.__new__(cls)
            object.__setattr__(v, "base", base)
            object.__setattr__(v, "index", index)
            if index is None:
                object.__setattr__(v, "sort_key", (base, 0, ()))
                object.__setattr__(v, "text", base)
            else:
                object.__setattr__(v, "sort_key", (base, 1, index.sort_key))
                object.__setattr__(v, "text", f"{base}[{index}]")
        return v

    # __new__ sets the fields once; object's __init__ takes the arguments and does nothing
    __init__ = object.__init__
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"JetVar(base={self.base!r}, index={self.index!r})"

    def __str__(self) -> str:
        return self.text

    def __lt__(self, other: "JetVar") -> bool:
        return self.sort_key < other.sort_key


def var(name: str, index: MonoidElem | None = None) -> "Poly":
    return Poly.variable(JetVar(name, index))


def _coefficient(c) -> int | Fraction:
    """c under the coefficient rule: an `int` when integral, refusing floats."""
    if isinstance(c, Fraction):
        return _lean(c)
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"not an exact coefficient: {c!r}")


def _lean(c: Fraction) -> int | Fraction:
    """c, or its numerator when c is integral."""
    return c.numerator if c.denominator == 1 else c


class Monomial(frozenset):
    """A product of variable powers: the frozenset of its (variable, exponent)
    pairs, every exponent positive.

    A monomial is the set itself, so hash, equality and construction are the
    set's, in C: equal powers give equal monomials with equal hashes, and a
    monomial equals a plain frozenset of the same pairs.  `powers` reads the
    monomial itself.  `<` and `>` follow the term order (`sort_key`); `<=`
    and `>=` between monomials raise `TypeError`, never the subset test.
    The set operators `|`, `-`, `&` and `^` act on the pairs and return a
    plain frozenset, which need not be a monomial (`m | {(v, 2)}` may hold v
    twice); only the code of this module uses them, each result wrapped in
    `Monomial` again.  `sort_key` and `sorted_powers` are computed on first
    use, once, and no field may be assigned.
    """

    __slots__ = ("sort_key", "sorted_powers")

    def __getattr__(self, name):
        # reached only when the ordinary lookup fails, as for an unset slot
        if name == "sort_key":
            # the degree, then the powers from the highest variable down
            value = self.degree, tuple(sorted(((v.sort_key, e) for v, e in self), reverse=True))
        elif name == "sorted_powers":
            value = tuple(self) if len(self) < 2 else tuple(sorted(self, key=lambda p: p[0].sort_key))
        else:
            raise AttributeError(f"'Monomial' object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    @property
    def powers(self) -> "Monomial":
        return self

    def __repr__(self) -> str:
        return f"Monomial(powers={frozenset(self)!r})"

    @staticmethod
    def make(powers: Mapping[JetVar, int]) -> "Monomial":
        m = Monomial(p for p in powers.items() if p[1])
        if any(e < 0 for _, e in m):
            raise ValueError(f"negative exponent in monomial: {sorted(m)}")
        return m

    @staticmethod
    def one() -> "Monomial":
        return _MONOMIAL_ONE

    @staticmethod
    def of(v: JetVar, e: int = 1) -> "Monomial":
        return Monomial(((v, e),)) if e > 0 else Monomial.make({v: e})

    @property
    def degree(self) -> int:
        return sum(e for _, e in self)

    def __lt__(self, other: "Monomial") -> bool:
        return self.sort_key < other.sort_key

    def __gt__(self, other: "Monomial") -> bool:
        return self.sort_key > other.sort_key

    def __le__(self, other):
        return NotImplemented

    __ge__ = __le__

    def deg_in(self, v: JetVar) -> int:
        for w, e in self:
            if w is v:
                return e
        return 0

    def variables(self) -> set[JetVar]:
        return {v for v, _ in self}

    def __mul__(self, other: "Monomial") -> "Monomial":
        # exponents are positive, so every sum is one too
        if not other:
            return self
        if not self:
            return other
        # dict(iter(m)), not dict(m): dict() would look up m.keys, a miss
        # that runs `__getattr__`
        d = dict(iter(self))
        for v, e in other:
            d[v] = d.get(v, 0) + e
        return Monomial(d.items())

    def divides(self, other: "Monomial") -> bool:
        other_d = dict(iter(other))
        return all(other_d.get(v, 0) >= e for v, e in self)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        d = dict(iter(self))
        for v, e in other:
            d[v] = d.get(v, 0) - e
        return Monomial.make(d)

    def lower(self, v: JetVar, e: int) -> "Monomial":
        """self / v, for the power (v, e) of self."""
        return Monomial(self ^ {(v, e), (v, e - 1)} if e > 1 else self - {(v, e)})

    def without(self, v: JetVar) -> "Monomial":
        return Monomial(self - {(v, self.deg_in(v))})

    def gcd(self, other: "Monomial") -> "Monomial":
        other_d = dict(iter(other))
        return Monomial((v, min(e, other_d[v])) for v, e in self if v in other_d)


_MONOMIAL_ONE = Monomial()


class Poly:
    """Sparse multivariate polynomial over Q; `terms` maps each monomial to
    its nonzero coefficient, an `int` or a non-integral `Fraction`."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, int | Fraction] | None = None):
        clean = {}
        if terms:
            for m, c in terms.items():
                c = _coefficient(c)
                if c != 0:
                    clean[m] = c
        self.terms = clean

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero() -> "Poly":
        return _poly({})

    @staticmethod
    def const(c) -> "Poly":
        c = _coefficient(c)
        return _poly({_MONOMIAL_ONE: c} if c else {})

    @staticmethod
    def variable(v: JetVar) -> "Poly":
        return _poly({Monomial.of(v): 1})

    # ------------------------------------------------------------------
    # structure

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        terms = self.terms
        return len(terms) < 2 and not next(iter(terms), None)

    # a polynomial is a fraction over 1, and over the empty factor base
    exps = ()

    @property
    def num(self) -> "Poly":
        return self

    numer = num

    @property
    def den(self) -> "Poly":
        return _ONE

    def constant_value(self) -> int | Fraction:
        if self.is_zero:
            return 0
        if not self.is_constant:
            raise ValueError(f"not a constant: {self}")
        return next(iter(self.terms.values()))

    def variables(self) -> set[JetVar]:
        return {v for m in self.terms for v, _ in m}

    def total_degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

    def deg_in(self, v: JetVar) -> int:
        return max((m.deg_in(v) for m in self.terms), default=0)

    def depends_on(self, v: JetVar) -> bool:
        return any(m.deg_in(v) > 0 for m in self.terms)

    def leading_term(self) -> tuple[Monomial, int | Fraction]:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        m = max(self.terms, key=lambda m: m.sort_key)
        return m, self.terms[m]

    def content(self) -> Fraction:
        """Positive rational c with self/c having coprime integer coefficients."""
        cs = self.terms.values()
        return Fraction(gcd(*(c.numerator for c in cs)), lcm(*(c.denominator for c in cs))) if cs else Fraction(1)

    def monomial_content(self) -> Monomial:
        """The largest monomial dividing every term."""
        return reduce(Monomial.gcd, self.terms) if self.terms else Monomial.one()

    def divide_monomial(self, m: Monomial) -> "Poly":
        return _poly({mm / m: c for mm, c in self.terms.items()})

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other):
        if not isinstance(other := _coerce(other), Poly):
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            prev = out.get(m)
            if prev is None:
                out[m] = c
            elif s := prev + c:
                out[m] = s if s.__class__ is int else _lean(s)
            else:
                del out[m]
        return _poly(out)

    __radd__ = __add__

    def __neg__(self):
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other) if isinstance(other := _coerce(other), Poly) else NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other := _coerce(other), Poly):
            return NotImplemented
        a, b = self.terms, other.terms
        # a constant factor (no term, or one over the monomial 1) scales the
        # other operand's coefficients: the terms are read once, as in is_constant
        if len(a) < 2 and not next(iter(a), None):
            self, a, b = other, b, a
        if len(b) < 2 and not next(iter(b), None):
            c = next(iter(b.values()), 0)
            return self if c == 1 else _ring({m: c * d for m, d in a.items()})
        out: dict[Monomial, int | Fraction] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 * m2
                prev = out.get(m)
                out[m] = c1 * c2 if prev is None else prev + c1 * c2
        return _ring(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __truediv__(self, other):
        # RatFun division reads only num and den, which a Poly answers too
        return RatFun.__truediv__(self, other)

    def __eq__(self, other):
        return self.terms == other.terms if isinstance(other := _coerce(other), Poly) else NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # ------------------------------------------------------------------
    # calculus and substitution

    def partial(self, v: JetVar) -> "Poly":
        # m -> m / v is one-to-one on the terms that involve v: nothing merges
        out: dict[Monomial, int | Fraction] = {}
        for m, c in self.terms.items():
            e = m.deg_in(v)
            if e:
                out[m.lower(v, e)] = c * e
        return _ring(out)

    def substitute(self, binding: Mapping[JetVar, "Poly | RatFun | int | Fraction"]):
        """Replace the bound variables, leaving the others alone."""
        result = None
        for m, c in self.terms.items():
            term = Poly.const(c)
            for v, e in m.sorted_powers:
                if v in binding:
                    factor = _coerce(binding[v]) ** e
                else:
                    factor = _poly({Monomial.of(v, e): 1})
                term = factor * term
            result = term if result is None else result + term
        if result is None:
            return Poly.zero()
        return result

    def evaluate(self, binding: Mapping[JetVar, "Poly | RatFun | int | Fraction"]) -> "Value":
        missing = self.variables() - set(binding)
        if missing:
            raise UncoveredVariableError(f"binding misses variables: {listing(missing)}")
        return self.substitute(binding)

    def lead_in(self, v: JetVar) -> tuple[int, "Poly"]:
        """The degree in v and its coefficient, in one pass; (0, 0) for zero."""
        d, top = 0, {}
        for m, c in self.terms.items():
            e = m.deg_in(v)
            if e > d:
                d, top = e, {}
            if e == d:
                top[m.without(v) if e else m] = c
        return d, _poly(top)

    # ------------------------------------------------------------------
    # printing: terms in decreasing monomial order

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for m in sorted(self.terms, key=lambda m: m.sort_key, reverse=True):
            c = self.terms[m]
            factors = [f"{v}^{e}" if e > 1 else str(v) for v, e in m.sorted_powers]
            if not factors:
                body = str(abs(c))
            elif abs(c) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(c))] + factors)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _poly(terms: dict[Monomial, int | Fraction]) -> Poly:
    """A Poly of terms that already keep the coefficient rule, unchecked."""
    out = object.__new__(Poly)
    out.terms = terms
    return out


def _ring(terms: dict[Monomial, int | Fraction]) -> Poly:
    """A Poly of ring results on coefficients that keep the coefficient rule:
    zero sums are dropped and integral Fractions made ints."""
    return _poly({m: c if c.__class__ is int else _lean(c) for m, c in terms.items() if c})


_ONE = Poly.const(1)


def divide_exact(a: Poly, b: Poly) -> Poly | None:
    """Exact quotient a/b, or None when b does not divide a."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    lead_m, lead_c = b.leading_term()
    quotient = Poly.zero()
    rest = a
    while not rest.is_zero:
        m, c = rest.leading_term()
        if not lead_m.divides(m):
            return None
        t = Poly({m / lead_m: Fraction(c, lead_c)})
        quotient = quotient + t
        rest = rest - t * b
    return quotient


class RatFun:
    """A fraction N / B^e: a polynomial numerator N over a product of powers
    B^e = prod_j b_j ** e_j of the factors of the `FactorBase` it carries.

    The engine computes with the raw parts `numer`, `base` and `exps`; `num`,
    `den`, `variables`, printing, `substitute` and `==` read the value, so a
    variable that cancels from it is not one of its variables.  The
    constructor `RatFun(num, den)` builds num / den, a `RatFun` even over a
    constant denominator.
    """

    # `_form`, the normal form, is set on first use by `_normal`
    __slots__ = ("numer", "base", "exps", "_form")

    def __init__(self, num, den=None):
        num, den = _coerce(num), _ONE if den is None else _coerce(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        base, ((c, exps),) = _NO_BASE.extend((den,))
        value = _cancelled(num * (1 / Fraction(c)), base, exps)
        self.numer, self.base, self.exps = value.numer, base, value.exps or base.zero

    # ------------------------------------------------------------------

    @staticmethod
    def const(c) -> "RatFun":
        return RatFun(Poly.const(c))

    @staticmethod
    def variable(v: JetVar) -> "RatFun":
        return RatFun(Poly.variable(v))

    @property
    def is_zero(self) -> bool:
        return not self.numer.terms

    @property
    def num(self) -> Poly:
        return self._normal()[0]

    @property
    def den(self) -> Poly:
        return self._normal()[1]

    def _normal(self) -> tuple[Poly, Poly]:
        """(num, den), the normal form of N / B^e, computed on first use and
        kept: `_lowest`, and a denominator that remains made primitive with
        a positive leading coefficient."""
        try:
            return self._form
        except AttributeError:
            pass
        num, den = _lowest(self)
        if den is not _ONE:
            scale = den.content()
            inv = 1 / (scale if den.leading_term()[1] > 0 else -scale)
            num, den = num * inv, den * inv
        self._form = num, den
        return self._form

    def variables(self) -> set[JetVar]:
        num, den = self._normal()
        return num.variables() | den.variables()

    # ------------------------------------------------------------------
    # arithmetic over one base, taking no gcd

    def __add__(self, other):
        if (other := _coerce(other)) is None:
            return NotImplemented
        base, ((a, ea), (b, eb)) = _common((self, other))
        top = tuple(map(max, ea, eb))
        return fraction(base.lift(a, ea, top) + base.lift(b, eb, top), base, top)

    __radd__ = __add__

    def __neg__(self):
        return fraction(-self.numer, self.base, self.exps)

    def __sub__(self, other):
        return NotImplemented if (other := _coerce(other)) is None else self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if (other := _coerce(other)) is None:
            return NotImplemented
        base, ((a, ea), (b, eb)) = _common((self, other))
        return _cancelled(a * b, base, tuple(map(add, ea, eb)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (other := _coerce(other)) is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        # a / B^ea over b / B^eb is a * B^eb / (B^ea * b), with b split over the base
        base, ((a, ea), (b, eb)) = _common((self, other))
        base, ((c, v),) = base.extend((b,))
        up, down = eb + base.zero[len(eb):], tuple(map(add, ea + base.zero[len(ea):], v))
        shared = tuple(map(min, up, down))
        numer = a * base.power(tuple(map(sub, up, shared))) * (1 / Fraction(c))
        return _cancelled(numer, base, tuple(map(sub, down, shared)))

    def __pow__(self, n: int):
        return fraction(self.numer ** n, self.base, tuple(e * n for e in self.exps))

    def __eq__(self, other):
        if (other := _coerce(other)) is None:
            return NotImplemented
        return (self - other).is_zero

    def __hash__(self):
        raise TypeError("rational functions are not hashable")

    # ------------------------------------------------------------------

    def substitute(self, binding) -> "Value":
        num, den = self._normal()
        value = den.substitute(binding)
        if value.is_zero:
            raise PoleError(f"denominator {den} vanishes under substitution")
        return as_value(num.substitute(binding) / value)

    # Poly.evaluate reads only variables and substitute, which a RatFun answers too
    evaluate = Poly.evaluate

    def __str__(self) -> str:
        num, den = self._normal()
        return str(num) if den.is_constant else f"({num}) / ({den})"

    def __repr__(self) -> str:
        return f"RatFun({self})"


Value = Poly | RatFun


def _coerce(x) -> Value | None:
    if isinstance(x, (Poly, RatFun)):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    return None


def to_value(x) -> Value:
    """x as a value, normalising nothing: numbers become constant polynomials."""
    if (out := _coerce(x)) is None:
        raise TypeError(f"cannot interpret {x!r} as a rational function")
    return out


def as_value(x) -> Value:
    """x under the value rule: numbers become constant polynomials, and a
    RatFun whose normal form has a constant denominator that form's
    numerator.  The rule reads the normal form when it is kept, and else
    `_lowest`, which leaves the content of the denominator alone."""
    out = to_value(x)
    if not any(out.exps):
        return out.numer
    num, den = getattr(out, "_form", None) or _lowest(out)
    return num if den is _ONE else out


def _lowest(x: RatFun) -> tuple[Poly, Poly]:
    """(num, den) for N / B^e with the monomial content shared by N and B^e
    removed, and den the shared 1 when the value is a polynomial: a constant
    denominator is folded into the numerator, one that divides it exactly
    is cancelled.  Any other den is not constant and does not divide num.

    A den of one term c*m is not tried as a divisor: if it divided num, m
    would divide every term of num, so m would divide the monomial content
    of both num and den.  Their shared content is already removed, so m
    would be the monomial 1 and den a constant, which is folded above.
    """
    num, den = x.numer, x.base.power(x.exps)
    shared = num.monomial_content().gcd(den.monomial_content())
    if shared:
        num, den = num.divide_monomial(shared), den.divide_monomial(shared)
    if den.is_constant:
        return num * (1 / Fraction(den.constant_value())), _ONE
    if len(den.terms) > 1 and (q := divide_exact(num, den)) is not None:
        return q, _ONE
    return num, den


def fraction(numer: Poly, base: "FactorBase", exps: tuple[int, ...]) -> Value:
    """numer / B^exps over base, as it stands: a `Poly` when numer is 0 or
    no exponent is positive."""
    if not numer.terms or not any(exps):
        return numer
    out = object.__new__(RatFun)
    out.numer, out.base, out.exps = numer, base, exps
    return out


def _cancelled(numer: Poly, base: "FactorBase", exps: tuple[int, ...]) -> Value:
    """numer / B^exps, each factor divided out of numer as often as it goes."""
    if numer.terms and any(exps):
        exps = list(exps)
        for j, b in enumerate(base.factors):
            while exps[j] and (q := divide_exact(numer, b)) is not None:
                numer, exps[j] = q, exps[j] - 1
    return fraction(numer, base, tuple(exps))


def _common(values: Iterable[Value], base: "FactorBase | None" = None):
    """(base, parts): one base for the values, whose factors start with
    those of `base`, and each value as (numerator, exponents) over it.

    Where the factors of one base start those of the other, the longer one
    serves; else the second base's factors are split over the first's
    (`FactorBase.extend`), and each factor b_j = c_j * B^v_j moves a value's
    exponent e_j to e_j * v_j and its numerator to N / c_j^e_j.
    """
    base, parts = base or _NO_BASE, []
    for x in values:
        mine, theirs = base.factors, x.base.factors
        numer, exps = x.numer, x.exps
        if theirs[: len(mine)] == mine:
            base = x.base
        elif mine[: len(theirs)] != theirs:
            base, moves = base.extend(theirs)
            c, exps = 1, base.zero
            for e, (cj, v) in zip(x.exps, moves):
                if e:
                    c, exps = c * cj ** e, tuple(a + e * b for a, b in zip(exps, v))
            numer = numer * (1 / Fraction(c))
        parts.append((numer, exps))
    return base, [(numer, exps + base.zero[len(exps):]) for numer, exps in parts]


def over_one_base(values: Iterable[Value], factors: Iterable[Poly] = ()) -> tuple["FactorBase", list[Value]]:
    """One base for the values, whose factors start with those the polynomials
    `factors` split into in turn (`FactorBase.extend`), and each value over it."""
    base, parts = _common(values, _NO_BASE.extend(factors)[0])
    return base, [fraction(numer, base, exps) for numer, exps in parts]


class FactorBase:
    """Fixed factors b_j, over which a `RatFun` keeps its denominator
    B^e = prod_j b_j ** e_j; the factors are taken as given, and a base is
    not changed once a value is built over it.

    `extend` splits a polynomial over the factors: it is divided exactly by
    each in turn as often as it goes, and a non-constant rest becomes a new
    factor.  A derivation D extends to the fractions by one rule (Kolchin
    1973, ch. I), D(N / B^e) = D(N) / B^e - sum_j e_j * N * D(b_j) / (b_j * B^e),
    and a sum goes over the elementwise largest exponent vector: exponents
    grow linearly with the number of derivations, and no gcd is ever taken.
    D(N) is summed term by term, in one pass of the Leibniz rule over N's
    terms, each monomial's powers in variable order: `JetVar`s hash by
    identity, and the order of the result's terms reaches `Poly.substitute`.
    """

    __slots__ = ("factors", "zero", "_powers")

    def __init__(self, factors: Iterable[Poly] = ()):
        self.factors = list(factors)
        self.zero = (0,) * len(self.factors)
        self._powers: dict[tuple[int, ...], Poly] = {}

    def split(self, den: Poly) -> tuple[Poly, tuple[int, ...]]:
        """(rest, e) with den = rest * B^e and no factor dividing rest."""
        exps = []
        for b in self.factors:
            e = 0
            while not den.is_constant and (q := divide_exact(den, b)) is not None:
                den, e = q, e + 1
            exps.append(e)
        return den, tuple(exps)

    def extend(self, polys: Iterable[Poly]) -> tuple["FactorBase", list[tuple]]:
        """(base, moves): this base, or one with the non-constant rests of the
        polys split over it added in turn, and for each p the pair (c, v) with
        p = c * B^v over that base."""
        base, moves = self, []
        for p in polys:
            rest, v = base.split(p)
            if not rest.is_constant:
                base, rest, v = FactorBase(base.factors + [rest]), _ONE, v + (1,)
            moves.append((rest.constant_value(), v))
        return base, [(c, v + base.zero[len(v):]) for c, v in moves]

    def power(self, exps: tuple[int, ...]) -> Poly:
        """B^exps, cached per exponent vector."""
        out = self._powers.get(exps)
        if out is None:
            out = _ONE
            for b, e in zip(self.factors, exps):
                if e:
                    out = out * b ** e
            self._powers[exps] = out
        return out

    def lift(self, numer: Poly, exps: tuple[int, ...], top: tuple[int, ...]) -> Poly:
        """The numerator of numer / B^exps over B^top, for top >= exps elementwise."""
        return numer if exps == top else numer * self.power(tuple(map(sub, top, exps)))

    def derive(self, f: Value, image: Callable[[JetVar], Value | None], memo: dict[int, Value]) -> Value:
        """D(f), for f over this base and the D sending each variable v to
        image(v), a value over this base, or to 0 where that is None; memo
        keeps D(b_j) / b_j per factor for this one D.

        The sum goes over the elementwise largest exponent vector of its
        nonzero terms, to which each image is lifted once: each term c*m of
        N, and each power v^e of m, adds c*e*(m/v) times the lifted image of v.
        """
        num, zero = f.numer, self.zero
        if num.is_zero:
            return f
        exps = f.exps or zero
        pairs = ((v, image(v)) for v in sorted(num.variables()))
        images = [(v, dv) for v, dv in pairs if dv is not None and not dv.is_zero]
        for j, e in enumerate(exps):
            if e and j not in memo:
                db = self.derive(self.factors[j], image, memo)
                memo[j] = fraction(db.numer, self, tuple(d + (i == j) for i, d in enumerate(db.exps or zero)))
        bumps = [(e, memo[j]) for j, e in enumerate(exps) if e and not memo[j].is_zero]
        top = tuple(map(max, zip(zero, *(g.exps or zero for _, g in images + bumps))))
        lifted = {v: self.lift(dv.numer, dv.exps or zero, top).terms for v, dv in images}
        out: dict[Monomial, int | Fraction] = {}
        for m, c in num.terms.items():
            for v, e in m.sorted_powers:
                lv = lifted.get(v)
                if lv is None:
                    continue
                rest = m.lower(v, e)
                ce = c * e
                for w, a in lv.items():
                    k = rest * w
                    prev = out.get(k)
                    out[k] = ce * a if prev is None else prev + ce * a
        for e, g in bumps:
            for k, a in self.lift(-e * num * g.numer, g.exps, top).terms.items():
                prev = out.get(k)
                out[k] = a if prev is None else prev + a
        return fraction(_ring(out), self, tuple(map(add, top, exps)))


# a polynomial is a fraction over the empty base
_NO_BASE = Poly.base = FactorBase()


def pseudo_remainder(f: Poly, p: Poly, main: JetVar) -> tuple[Poly, Poly, Poly]:
    """Pseudo-division of f by p in the variable `main`.

    Returns (rem, multiplier, quotient) with

        multiplier * f == quotient * p + rem,

    deg_main(rem) < deg_main(p), and multiplier a power of the leading
    coefficient of p in `main`.  The identity is checked on every call
    unless Python runs with -O.
    """
    d, lead = p.lead_in(main)
    if d == 0:
        raise ValueError(f"divisor does not involve {main}")
    rem = f
    quotient = Poly.zero()
    multiplier = _ONE
    while True:
        e, top = rem.lead_in(main)  # (0, 0) once rem is zero
        if e < d:
            break
        shift = _poly({Monomial.of(main, e - d): 1}) if e > d else _ONE
        rem = lead * rem - top * shift * p
        quotient = lead * quotient + top * shift
        multiplier = multiplier * lead
    assert multiplier * f == quotient * p + rem
    return rem, multiplier, quotient


def pseudo_reduce(p: Poly, chain: Sequence[tuple[JetVar, Poly]]) -> tuple[Poly, Poly]:
    """Pseudo-reduce p by a triangular chain of (main, relation) pairs,
    listed highest main variable first (Ritt-Kolchin reduction), skipping a
    relation of higher degree in its main variable than p.

    Returns (rem, mult): mult * p is congruent to rem modulo the chain and
    mult is the product of the `pseudo_remainder` multipliers.  When no
    relation applies, rem is p itself and mult is 1.
    """
    mult = _ONE
    for main, relation in chain:
        if p.deg_in(main) >= relation.deg_in(main):
            p, m, _ = pseudo_remainder(p, relation, main)
            mult = mult * m
    return p, mult


class AffineSpace(Record):
    """Solutions of A y + b = 0: rank data, one solution, and a kernel basis."""

    __slots__ = ("n", "rank", "consistent", "particular", "kernel")
    n: int
    rank: int
    consistent: bool
    particular: tuple[Value, ...] | None
    kernel: tuple[tuple[Value, ...], ...]

    @property
    def dimension(self) -> int:
        """Dimension of the solution set (kernel dimension) when consistent."""
        return self.n - self.rank


def solve_affine(
    rows: Sequence[Sequence], rhs: Sequence, n: int | None = None, is_zero=lambda x: x.is_zero
) -> AffineSpace:
    """Exact Gauss-Jordan elimination for A y + b = 0 over the fraction field.

    `n` fixes the number of unknowns when the system has no rows.  `is_zero`
    decides for pivots, elimination and consistency which entries vanish
    (over an algebraic tower, pass the tower's).
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("matrix and right-hand side sizes differ")
    if n is None:
        n = len(rows[0]) if m else 0
    for row in rows:
        if len(row) != n:
            raise ValueError("ragged matrix")
    a = [[to_value(x) for x in row] for row in rows]
    b = [to_value(x) for x in rhs]

    pivots: list[tuple[int, int]] = []
    row_i = 0
    for col in range(n):
        pivot = None
        for r in range(row_i, m):
            if not is_zero(a[r][col]):
                pivot = r
                break
        if pivot is None:
            continue
        a[row_i], a[pivot] = a[pivot], a[row_i]
        b[row_i], b[pivot] = b[pivot], b[row_i]
        inv = _ONE / a[row_i][col]
        a[row_i] = [x * inv for x in a[row_i]]
        b[row_i] = b[row_i] * inv
        for r in range(m):
            if r != row_i and not is_zero(a[r][col]):
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[row_i])]
                b[r] = b[r] - factor * b[row_i]
        pivots.append((row_i, col))
        row_i += 1
        if row_i == m:
            break

    rank = len(pivots)
    consistent = all(is_zero(b[r]) for r in range(rank, m))
    pivot_cols = {col for _, col in pivots}
    free_cols = [c for c in range(n) if c not in pivot_cols]

    particular = None
    if consistent:
        sol = [Poly.zero()] * n
        for r, col in pivots:
            sol[col] = -b[r]
        particular = tuple(sol)

    kernel = []
    for fc in free_cols:
        vec = [Poly.zero()] * n
        vec[fc] = _ONE
        for r, col in pivots:
            vec[col] = -a[r][fc]
        kernel.append(tuple(vec))

    return AffineSpace(n, rank, consistent, particular, tuple(kernel))
