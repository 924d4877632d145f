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
leading coefficient (`RatFun._normal`).  It is computed only where a value
leaves the engine (the value rule, printing, `num`, `den`, `variables`,
`substitute`, `evaluate`), and at most once per value, by whichever of
these asks first: a `RatFun` keeps it once computed, and its fields are set
only when it is made.

The value rule, decided here and nowhere else: a value whose normal form has
a constant denominator is a `Poly`.  `as_value` applies it, reading the
kept normal form; public functions apply it once to the values they return
(`parse_expression`, `apply_derivation`, `Tower.reduce`/`apply`/`invert`,
`f_at`/`compute_f`, `RatFun.substitute`).  Entry points take numbers from
callers through `to_value`, which normalises nothing.  Inside the engine a
sum may stay a `RatFun` whose normal form is a `Poly`; a value with no
positive exponent is always a `Poly`.  A `Poly` answers `num` (itself),
`den` (1) and the raw parts of a fraction over the empty base, so code
reading them, `variables`, `is_zero`, `evaluate` or `substitute` takes
either type (`Value`).

The monomial rule: a monomial is one `int` of 16-bit fields (packed
exponents; Monagan and Pearce, CASC 2007).  Each variable gets an `id`
when it is interned, and with it the field at bit 16 * (id + 1); field 0
holds the total degree.  So a product of monomials is the sum of the ints,
`m / v` is `m - v.unit`, and reading an exponent is a shift and a mask.  A
total degree stays below 2^15 (the degree cap, 32767): a sum of two such
monomials then carries out of no field, so one test of the degree field of
a product, or of the operands' degrees, proves every field exact, and an
operation that would pass the cap raises `ValueError` instead.  The keys of
`Poly.terms` are the plain ints; `Monomial` is the `int` subclass that
decodes one.  Monomials are not interned, and no table of them is kept.

The order rule: variables order themselves by a `sort_key`, set when the
variable is made.  Monomials are ordered by degree, then by their exponents
from the highest variable down (graded lex), so `x[d1]` comes before
`x[0]`; a leading term is the largest monomial.  The ids follow the order
in which variables were interned, not this order, so no monomial carries
its order: each operation that needs it (printing, `leading_term`,
`divide_exact`, `substitute`) ranks the variables it meets once, by
`sort_key`, and reads the exponents of those variables from each monomial.
`Poly.__str__` walks a monomial's powers in increasing variable order.

Substitution: `Poly.substitute` folds a variable bound to a number into the
coefficient, from a table of that number's powers made once per call, so a
polynomial at a rational point costs one pass over its terms.  A variable
bound to a value (a non-constant `Poly` or a `RatFun`) is multiplied in as
a power, in increasing variable order with the unbound ones: a product of
fractions cancels factors step by step, so its printed form depends on the
order.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import gcd, lcm
from operator import add, attrgetter, itemgetter, or_, sub
from sys import byteorder

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
    process, so equality and hash are those of the object itself.  Each
    gets the next `id` when it is interned, and with it its monomial field:
    `shift`, the bit where the field starts, and `unit`, the packed monomial
    of the variable itself.
    """

    __slots__ = ("base", "index", "sort_key", "text", "id", "shift", "unit")

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
            shift = _FIELD * (len(_VARS) + 1)
            object.__setattr__(v, "id", len(_VARS))
            object.__setattr__(v, "shift", shift)
            object.__setattr__(v, "unit", 1 << shift | 1)
            _VARS.append(v)
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


class Monomial(int):
    """A product of variable powers, viewed through its packed `int`.

    A monomial is one `int` (the monomial rule): field 0, the low 16 bits,
    holds the total degree, and the field at bit 16 * (id + 1) the exponent
    of the variable with that id.  The keys of `Poly.terms` are these ints;
    this class only decodes one, so a `Monomial` is equal to, and hashes as,
    the plain `int` of the same fields.  `<` and `>` follow the term order;
    `<=` and `>=` between monomials raise `TypeError`, never the order of
    the ints.  `*` and `/` are the monomial product and quotient; on the
    plain ints these are `+` and `-`.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return f"Monomial(sorted_powers={self.sorted_powers!r})"

    @staticmethod
    def make(powers: Mapping[JetVar, int]) -> "Monomial":
        pairs = [p for p in powers.items() if p[1]]
        if any(e < 0 for _, e in pairs):
            raise ValueError(f"negative exponent in monomial: {sorted(pairs)}")
        _capped(sum(e for _, e in pairs))
        return Monomial(sum(e * v.unit for v, e in pairs))

    @staticmethod
    def one() -> "Monomial":
        return Monomial(0)

    @staticmethod
    def of(v: JetVar, e: int = 1) -> "Monomial":
        return Monomial(_capped(e) * v.unit) if e > 0 else Monomial.make({v: e})

    @property
    def powers(self) -> frozenset:
        """The (variable, exponent) pairs, one per variable the monomial involves."""
        return frozenset(_fields(self))

    @property
    def sorted_powers(self) -> tuple:
        """The powers in increasing variable order."""
        return tuple(sorted(_fields(self)))

    @property
    def degree(self) -> int:
        return self & _MASK

    def deg_in(self, v: JetVar) -> int:
        return self >> v.shift & _MASK

    def variables(self) -> set[JetVar]:
        return set(_variables(self))

    def __lt__(self, other: "Monomial") -> bool:
        key = _order(self | other)[1]
        return key(self) < key(other)

    def __gt__(self, other: "Monomial") -> bool:
        return Monomial.__lt__(other, self)

    def __le__(self, other):
        return NotImplemented

    __ge__ = __le__

    def __mul__(self, other: "Monomial") -> "Monomial":
        _capped((self & _MASK) + (other & _MASK))
        return Monomial(int(self) + other)

    def __truediv__(self, other: "Monomial") -> "Monomial":
        powers = dict(_fields(self))
        for v, e in _fields(other):
            powers[v] = powers.get(v, 0) - e
        return Monomial.make(powers)


# The packing: FIELD bits per field, and total degrees below CAP, so a sum
# of two monomials never carries out of a field.  _VARS[id] is the variable
# with that id, in interning order.
_FIELD = 16
_MASK = (1 << _FIELD) - 1
_CAP = 1 << (_FIELD - 1)
_VARS: list[JetVar] = []


def _capped(degree: int) -> int:
    """degree, if a monomial may have it: refuse one of 2^15 or more."""
    if degree >= _CAP:
        raise ValueError(f"total degree {degree} is over the monomial degree cap of {_CAP - 1}")
    return degree


# the total degree of a monomial, and the rank of a variable in the term order
_DEGREE = _MASK.__and__
_RANK = attrgetter("sort_key")


def _degree(monomials: Iterable[int]) -> int:
    """The largest total degree among the monomials, 0 for none."""
    return max(map(_DEGREE, monomials), default=0)


def _exponents(m: int) -> memoryview:
    """The exponent fields of monomial m, that of variable id 0 first, read
    at once as an array of 16-bit ints."""
    return memoryview(m.to_bytes(2 * (m.bit_length() // _FIELD + 1), byteorder)).cast("H")[1:]


def _fields(m: int) -> list[tuple[JetVar, int]]:
    """The (variable, exponent) pairs of monomial m with a nonzero exponent, in id order."""
    exps = _exponents(m)
    return list(compress(zip(_VARS, exps), exps))


def _variables(m: int) -> Iterator[JetVar]:
    """The variables of monomial m in id order."""
    return compress(_VARS, _exponents(m))


def _union(monomials: Iterable[int]) -> int:
    """An int whose nonzero fields are those of any of the monomials."""
    return reduce(or_, monomials, 0)


def _ranked(union: int) -> list[JetVar]:
    """The variables of `union` in increasing order."""
    return sorted(_variables(union), key=_RANK)


def _order(union: int) -> tuple[list[JetVar], Callable[[int], tuple[int, ...]]]:
    """The variables of `union`, highest first, and the term order on
    monomials in them as a key: the degree, then the exponents of those
    variables in that order.  The key reads all fields of a monomial at once,
    as an array of 16-bit ints, and picks those of the ranked variables."""
    ranked = _ranked(union)[::-1]
    size = 2 * (union.bit_length() // _FIELD + 1)
    pick = itemgetter(0, *[v.id + 1 for v in ranked]) if ranked else lambda fields: (fields[0],)

    def key(m: int) -> tuple[int, ...]:
        return pick(memoryview(m.to_bytes(size, byteorder)).cast("H"))

    return ranked, key


def _leading(monomials: Collection[int]) -> int:
    """The largest of the monomials in the term order: of those of the
    largest degree, the largest by `_order`, which ranks only their variables."""
    d = max(map(_DEGREE, monomials))
    top = [m for m in monomials if m & _MASK == d]
    return top[0] if len(top) == 1 else max(top, key=_order(_union(top))[1])


def _content(monomials: Sequence[int]) -> int:
    """The largest monomial dividing each of the monomials, of which there is one at least."""
    out = 0
    for v, _ in _fields(monomials[0]):
        s = v.shift
        e = min(m >> s & _MASK for m in monomials)
        if e:
            out += e * v.unit
    return out


class Poly:
    """Sparse multivariate polynomial over Q; `terms` maps each monomial, a
    packed `int`, to its nonzero coefficient, an `int` or a non-integral
    `Fraction`."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int | Fraction] | None = None):
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
        return _poly({0: c} if c else {})

    @staticmethod
    def variable(v: JetVar) -> "Poly":
        return _poly({v.unit: 1})

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
        return set(_variables(_union(self.terms)))

    def total_degree(self) -> int:
        return _degree(self.terms)

    def deg_in(self, v: JetVar) -> int:
        s = v.shift
        return max((m >> s & _MASK for m in self.terms), default=0)

    def depends_on(self, v: JetVar) -> bool:
        s = v.shift
        return any(m >> s & _MASK for m in self.terms)

    def leading_term(self) -> tuple[Monomial, int | Fraction]:
        terms = self.terms
        if not terms:
            raise ValueError("zero polynomial has no leading term")
        m = _leading(terms)
        return Monomial(m), terms[m]

    def content(self) -> Fraction:
        """Positive rational c with self/c having coprime integer coefficients."""
        cs = self.terms.values()
        return Fraction(gcd(*(c.numerator for c in cs)), lcm(*(c.denominator for c in cs))) if cs else Fraction(1)

    def divide_monomial(self, m: int) -> "Poly":
        """self / m, for a monomial m dividing every term."""
        return _poly({mm - m: c for mm, c in self.terms.items()})

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
            if c == 1:
                return self
            if not c:
                return _poly({})
            # a product of nonzero rationals is nonzero: only an integral Fraction needs leaning
            return _poly({m: p if (p := c * d).__class__ is int else _lean(p) for m, d in a.items()})
        # the product's degree is the sum of the operands': no field carries below the cap
        if (degree := max(map(_DEGREE, a)) + max(map(_DEGREE, b))) >= _CAP:
            _capped(degree)
        out: dict[int, int | Fraction] = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2
                prev = out.get(m)
                out[m] = c1 * c2 if prev is None else prev + c1 * c2
        return _ring(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        # Q[vars] has no zero divisors, so p^n has degree n * deg p: refuse it before any product
        _capped(n * _degree(self.terms))
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
        s, unit = v.shift, v.unit
        out: dict[int, int | Fraction] = {}
        for m, c in self.terms.items():
            e = m >> s & _MASK
            if e:
                out[m - unit] = c * e
        return _ring(out)

    def substitute(self, binding: Mapping[JetVar, "Poly | RatFun | int | Fraction"]):
        """Replace the bound variables, leaving the others alone.

        A variable bound to a number n/d (an `int`, a `Fraction` or a
        constant `Poly`) folds into each term's coefficient in integers: with
        D the total degree of the polynomial, a term of degree e in the
        variable takes the factor n^e * d^(D - e), from a table of them made
        once, and the coefficients are divided by the product of the d^D at
        the end.  When every bound variable of the polynomial is such a
        number, the terms are summed into one dict in that one pass.  Else
        each term takes its other powers, bound to values or left alone, in
        increasing variable order, and the terms are added in turn.
        """
        terms = self.terms
        numbers, others, valued, den = [], [], False, 1
        for v in _variables(_union(terms)):
            x = binding.get(v)
            if x.__class__ is Poly and x.is_constant:
                x = x.constant_value()
            if isinstance(x, (int, Fraction)):
                numbers.append((v, x.numerator, x.denominator))
                den *= x.denominator
            else:
                valued = valued or x is not None
                others.append((v.sort_key, v.shift, v.unit, x))
        top = _degree(terms) if numbers else 0
        scales = [(v.shift, v.unit, [n ** e * d ** (top - e) for e in range(top + 1)]) for v, n, d in numbers]
        den **= top
        if not valued:
            out: dict[int, int | Fraction] = {}
            for m, c in terms.items():
                scale = 1
                for s, unit, table in scales:
                    e = m >> s & _MASK
                    scale *= table[e]
                    m -= e * unit
                prev = out.get(m)
                out[m] = c * scale if prev is None else prev + c * scale
            return _ring(out) if den == 1 else _poly({m: _lean(Fraction(c, den)) for m, c in out.items() if c})
        others.sort(key=itemgetter(0))
        result = None
        for m, c in terms.items():
            for s, _, table in scales:
                c *= table[m >> s & _MASK]
            if not c:
                continue
            term = Poly.const(c if den == 1 else Fraction(c, den))
            for _, s, unit, x in others:
                e = m >> s & _MASK
                if e:
                    term = (_poly({e * unit: 1}) if x is None else _coerce(x) ** e) * term
            result = term if result is None else result + term
        return Poly.zero() if result is None else result

    def evaluate(self, binding: Mapping[JetVar, "Poly | RatFun | int | Fraction"]) -> "Value":
        missing = self.variables() - set(binding)
        if missing:
            raise UncoveredVariableError(f"binding misses variables: {listing(missing)}")
        return self.substitute(binding)

    def lead_in(self, v: JetVar) -> tuple[int, "Poly"]:
        """The degree in v and its coefficient, in one pass; (0, 0) for zero."""
        s, unit = v.shift, v.unit
        d, top = 0, {}
        for m, c in self.terms.items():
            e = m >> s & _MASK
            if e > d:
                d, top = e, {}
            if e == d:
                top[m - e * unit] = c
        return d, _poly(top)

    # ------------------------------------------------------------------
    # printing: terms in decreasing monomial order

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        ranked, key = _order(_union(terms))
        rising = [v.text for v in reversed(ranked)]
        pieces = []
        # the keys are distinct, so the sort never compares coefficients
        for exps, c in sorted(zip(map(key, terms), terms.values()), reverse=True):
            # the factors in increasing variable order: those of nonzero exponent
            exps = exps[:0:-1]
            factors = [f"{text}^{e}" if e > 1 else text for text, e in compress(zip(rising, exps), exps)]
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


def _poly(terms: dict[int, int | Fraction]) -> Poly:
    """A Poly of terms that already keep the coefficient rule, unchecked."""
    out = object.__new__(Poly)
    out.terms = terms
    return out


def _ring(terms: dict[int, int | Fraction]) -> Poly:
    """A Poly of ring results on coefficients that keep the coefficient rule:
    zero sums are dropped and integral Fractions made ints."""
    return _poly({m: c if c.__class__ is int else _lean(c) for m, c in terms.items() if c})


_ONE = Poly.const(1)


def divide_exact(a: Poly, b: Poly) -> Poly | None:
    """Exact quotient a/b, or None when b does not divide a."""
    divisor = b.terms
    if not divisor:
        raise ZeroDivisionError("division by the zero polynomial")
    lead_m = _leading(divisor)
    lead_c = divisor[lead_m]
    needs = [(v.shift, e) for v, e in _fields(lead_m)]
    quotient = Poly.zero()
    rest = a
    while rest.terms:
        m = _leading(rest.terms)
        if any(m >> s & _MASK < e for s, e in needs):
            return None
        t = _poly({m - lead_m: _lean(Fraction(rest.terms[m], lead_c))})
        quotient = quotient + t
        rest = rest - t * b
    return quotient


class RatFun:
    """A fraction N / B^e: a polynomial numerator N over a product of powers
    B^e = prod_j b_j ** e_j of the factors of the `FactorBase` it carries.

    The engine computes with the raw parts `numer`, `base` and `exps`; `num`,
    `den`, `variables`, printing, `substitute` and `==` read the value, so a
    variable that cancels from it is not one of its variables.  The
    constructor `RatFun(num, den)` builds num / den, for numbers, polynomials
    or fractions num and den, a `RatFun` even over a constant denominator.
    """

    # `_form`, the normal form, is set on first use by `_normal`
    __slots__ = ("numer", "base", "exps", "_form")

    def __init__(self, num, den=None):
        den = _ONE if den is None else _coerce(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        value = _coerce(num) / den
        self.numer, self.base, self.exps = value.numer, value.base, value.exps

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
        kept: the monomial content shared by N and B^e removed, and den the
        shared 1 when the value is a polynomial: a constant denominator is
        folded into the numerator, one that divides it exactly is cancelled.
        Any other den is made primitive with a positive leading coefficient.

        A den of one term c*m is not tried as a divisor: if it divided num, m
        would divide every term of num, so m would divide the monomial content
        of both num and den.  Their shared content is already removed, so m
        would be the monomial 1 and den a constant, which is folded above.
        """
        try:
            return self._form
        except AttributeError:
            pass
        num, den = self.numer, self.base.power(self.exps)
        shared = _content([*num.terms, *den.terms])
        if shared:
            num, den = num.divide_monomial(shared), den.divide_monomial(shared)
        if den.is_constant:
            num, den = num * (1 / Fraction(den.constant_value())), _ONE
        elif len(den.terms) > 1 and (q := divide_exact(num, den)) is not None:
            num, den = q, _ONE
        else:
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
        at_den = den.substitute(binding)
        if at_den.is_zero:
            raise PoleError(f"denominator {den} vanishes under substitution")
        at_num = num.substitute(binding)
        # at a point both are numbers: their quotient, with no division of values
        if at_num.__class__ is Poly is at_den.__class__ and at_num.is_constant and at_den.is_constant:
            return Poly.const(Fraction(at_num.constant_value(), at_den.constant_value()))
        return as_value(at_num / at_den)

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
    numerator.  The rule reads the normal form, which a RatFun keeps."""
    out = to_value(x)
    if not any(out.exps):
        return out.numer
    num, den = out._normal()
    return num if den is _ONE else out


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
    terms, each term testing the field of each variable with an image, in
    variable order: the ids of the variables follow the interning order, and
    the order of the result's terms reaches `Poly.substitute`.
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
        pairs = ((v, image(v)) for v in _ranked(_union(num.terms)))
        images = [(v, dv) for v, dv in pairs if dv is not None and not dv.is_zero]
        for j, e in enumerate(exps):
            if e and j not in memo:
                db = self.derive(self.factors[j], image, memo)
                memo[j] = fraction(db.numer, self, tuple(d + (i == j) for i, d in enumerate(db.exps or zero)))
        bumps = [(e, memo[j]) for j, e in enumerate(exps) if e and not memo[j].is_zero]
        top = tuple(map(max, zip(zero, *(g.exps or zero for _, g in images + bumps))))
        lifted = [(v.shift, v.unit, self.lift(dv.numer, dv.exps or zero, top).terms) for v, dv in images]
        out: dict[int, int | Fraction] = {}
        for m, c in num.terms.items():
            for s, unit, lv in lifted:
                e = m >> s & _MASK
                if not e:
                    continue
                rest = m - unit
                ce = c * e
                for w, a in lv.items():
                    k = rest + w
                    prev = out.get(k)
                    out[k] = ce * a if prev is None else prev + ce * a
        for e, g in bumps:
            for k, a in self.lift(-e * num * g.numer, g.exps, top).terms.items():
                prev = out.get(k)
                out[k] = a if prev is None else prev + a
        numer = _ring(out)
        # each sum rest + w is below 2^16 in degree, so none carried: one test of the degrees
        _capped(_degree(numer.terms))
        return fraction(numer, self, tuple(map(add, top, exps)))


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
        shift = _poly({(e - d) * main.unit: 1}) if e > d else _ONE
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
