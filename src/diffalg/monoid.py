"""Words and exponent tuples over k derivation generators, with their orders.

Two monoids share one element type: the free monoid (words over d1..dk,
composition = concatenation) and the free commutative monoid (exponent
tuples in N^k, composition = componentwise sum).

The canonical partial order puts b below a exactly when a = c.b for some c.
On exponent tuples this is the componentwise order.  On words we read it as
the *suffix* order: the predecessors of a word are its proper suffixes, so
d2 precedes d1 d2 while d1 (a prefix) does not.  All consumers rely on this
reading: initial sets are suffix-closed, and the minimal elements of the
complement of an initial set are words whose proper suffixes all lie in it.

The total order compares by length / total degree first and breaks ties
lexicographically: words letter by letter with d1 < d2 < ...; exponent
tuples so that a higher exponent on an earlier generator comes first
(d1^2 sorts before d1 d2).  The two tie-break conventions agree through
the abelianization word -> exponent tuple, and both are compatible with
the partial order and with translation.

`Record`, the base of the engine's value classes, lives here with the first
of them, `MonoidElem`, whose `sort_key` is set when the element is made.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from functools import total_ordering
from operator import neg

from .errors import KindMismatchError, NotInitialError

FREE = "free"
COMMUTATIVE = "commutative"


class Record:
    """A value named by the fields in a subclass's `__slots__`.

    Equality (within one class), hash and repr go by the fields in slot
    order, and a field refuses assignment once `__init__` has set it through
    `object.__setattr__`.  The default `__init__` takes every field in order.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class MonoidElem(Record):
    """A word over d1..dk (kind 'free') or a tuple in N^k (kind 'commutative')."""

    __slots__ = ("kind", "k", "data", "sort_key")

    def __init__(self, kind: str, k: int, data: tuple[int, ...]):
        if kind not in (FREE, COMMUTATIVE):
            raise ValueError(f"unknown kind {kind!r}")
        if k < 1:
            raise ValueError("k must be at least 1")
        if kind == FREE:
            if any(not 1 <= g <= k for g in data):
                raise ValueError(f"word letters must lie in 1..{k}: {data}")
            sort_key = (kind, k, len(data), data)
        else:
            if len(data) != k:
                raise ValueError(f"exponent tuple must have length {k}: {data}")
            if any(e < 0 for e in data):
                raise ValueError(f"exponents must be nonnegative: {data}")
            # a higher exponent on an earlier generator sorts first
            sort_key = (kind, k, sum(data), tuple(map(neg, data)))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "sort_key", sort_key)

    def __eq__(self, other):
        if other.__class__ is MonoidElem:
            return self.data == other.data and self.k == other.k and self.kind == other.kind
        return NotImplemented

    def __hash__(self):
        return hash(self.data)

    def __repr__(self) -> str:
        return f"MonoidElem(kind={self.kind!r}, k={self.k!r}, data={self.data!r})"

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def identity(kind: str, k: int) -> "MonoidElem":
        if kind == FREE:
            return MonoidElem(FREE, k, ())
        return MonoidElem(COMMUTATIVE, k, (0,) * k)

    @staticmethod
    def generator(kind: str, k: int, i: int) -> "MonoidElem":
        if kind == FREE:
            return MonoidElem(FREE, k, (i,))
        return MonoidElem(COMMUTATIVE, k, tuple(1 if j == i - 1 else 0 for j in range(k)))

    @staticmethod
    def word(k: int, letters: Iterable[int]) -> "MonoidElem":
        return MonoidElem(FREE, k, tuple(letters))

    @staticmethod
    def exponents(exps: Iterable[int]) -> "MonoidElem":
        exps = tuple(exps)
        return MonoidElem(COMMUTATIVE, len(exps), exps)

    # ------------------------------------------------------------------
    # basic structure

    @property
    def degree(self) -> int:
        """Word length, or total degree of the exponent tuple."""
        if self.kind == FREE:
            return len(self.data)
        return sum(self.data)

    @property
    def is_identity(self) -> bool:
        return self.degree == 0

    def _check_compatible(self, other: "MonoidElem") -> None:
        if self.kind != other.kind or self.k != other.k:
            raise KindMismatchError(
                f"incompatible elements: ({self.kind}, k={self.k}) vs ({other.kind}, k={other.k})"
            )

    def compose(self, other: "MonoidElem") -> "MonoidElem":
        """Concatenation for words, componentwise sum for exponent tuples."""
        self._check_compatible(other)
        if self.kind == FREE:
            return MonoidElem(FREE, self.k, self.data + other.data)
        return MonoidElem(COMMUTATIVE, self.k, tuple(a + b for a, b in zip(self.data, other.data)))

    def preceq(self, other: "MonoidElem") -> bool:
        """Canonical partial order: suffix order on words, componentwise on tuples."""
        self._check_compatible(other)
        if self.kind == FREE:
            n = len(self.data)
            return n <= len(other.data) and other.data[len(other.data) - n:] == self.data
        return all(a <= b for a, b in zip(self.data, other.data))

    def minus(self, other: "MonoidElem") -> "MonoidElem":
        """Componentwise difference self - other; requires other.preceq(self)."""
        self._check_compatible(other)
        if self.kind == FREE:
            raise KindMismatchError("difference is only defined for exponent tuples")
        if not other.preceq(self):
            raise ValueError(f"{other} does not divide {self}")
        return MonoidElem(COMMUTATIVE, self.k, tuple(a - b for a, b in zip(self.data, other.data)))

    def lub(self, other: "MonoidElem") -> "MonoidElem":
        """Componentwise maximum; least upper bounds need not exist on words."""
        self._check_compatible(other)
        if self.kind == FREE:
            raise KindMismatchError("least upper bounds are only defined for exponent tuples")
        return MonoidElem(COMMUTATIVE, self.k, tuple(max(a, b) for a, b in zip(self.data, other.data)))

    # ------------------------------------------------------------------
    # total order: degree first, then the fixed lexicographic tie-break

    def __lt__(self, other: "MonoidElem") -> bool:
        self._check_compatible(other)
        return self.sort_key < other.sort_key

    # ------------------------------------------------------------------
    # conversions

    def commutative_image(self) -> "MonoidElem":
        """Abelianization: letter counts of a word, identity on tuples."""
        if self.kind == COMMUTATIVE:
            return self
        exps = [0] * self.k
        for g in self.data:
            exps[g - 1] += 1
        return MonoidElem(COMMUTATIVE, self.k, tuple(exps))

    def canonical_word(self) -> "MonoidElem":
        """The word with non-increasing generator indices mapping onto this tuple."""
        if self.kind == FREE:
            return self
        letters = []
        for i in range(self.k, 0, -1):
            letters.extend([i] * self.data[i - 1])
        return MonoidElem(FREE, self.k, tuple(letters))

    def proper_suffixes(self) -> Iterator["MonoidElem"]:
        if self.kind != FREE:
            raise KindMismatchError("suffixes are only defined for words")
        for start in range(1, len(self.data) + 1):
            yield MonoidElem(FREE, self.k, self.data[start:])

    def immediate_predecessors(self) -> Iterator["MonoidElem"]:
        """Covers from below: drop the leftmost letter, or decrement one exponent."""
        if self.kind == FREE:
            if self.data:
                yield MonoidElem(FREE, self.k, self.data[1:])
        else:
            for i, e in enumerate(self.data):
                if e > 0:
                    yield MonoidElem(
                        COMMUTATIVE,
                        self.k,
                        self.data[:i] + (e - 1,) + self.data[i + 1:],
                    )

    # ------------------------------------------------------------------
    # text form: words as `d1 d2 d1`, tuples as `d1^2 d2`, identity as `0`

    def __str__(self) -> str:
        if self.is_identity:
            return "0"
        if self.kind == FREE:
            return " ".join(f"d{g}" for g in self.data)
        parts = []
        for i, e in enumerate(self.data, start=1):
            if e == 1:
                parts.append(f"d{i}")
            elif e > 1:
                parts.append(f"d{i}^{e}")
        return " ".join(parts)


def leq_total(a: MonoidElem, b: MonoidElem) -> int:
    """Three-way comparison in the total order: -1, 0 or 1."""
    return (b < a) - (a < b)


class InitialSet(Record):
    """A finite downward-closed set of monoid elements (all of one kind and k)."""

    __slots__ = ("kind", "k", "elements")

    def __init__(self, kind: str, k: int, elements: frozenset[MonoidElem]):
        for el in elements:
            if el.kind != kind or el.k != k:
                raise KindMismatchError(f"element {el} does not match ({kind}, k={k})")
        for el in elements:
            for pred in el.immediate_predecessors():
                if pred not in elements:
                    raise NotInitialError(f"{el} is present but its predecessor {pred} is not")
        super().__init__(kind, k, elements)

    @staticmethod
    def of(elements: Iterable[MonoidElem]) -> "InitialSet":
        elements = frozenset(elements)
        if not elements:
            raise ValueError("cannot infer kind and k from an empty set; use InitialSet directly")
        sample = next(iter(elements))
        return InitialSet(sample.kind, sample.k, elements)

    def maximal_elements(self) -> frozenset[MonoidElem]:
        return frozenset(
            el
            for el in self.elements
            if not any(el is not other and el.preceq(other) for other in self.elements)
        )


class MinimalLeaders(Record):
    __slots__ = ("elements", "length_bound")
    elements: frozenset[MonoidElem]
    length_bound: int | None


def antichain_minimal(elements: Iterable[MonoidElem]) -> frozenset[MonoidElem]:
    """Drop every element that strictly dominates another one in the family."""
    pool = list(elements)
    return frozenset(
        el
        for el in pool
        if not any(other != el and other.preceq(el) for other in pool)
    )


def minimal_leaders(initial: InitialSet) -> MinimalLeaders:
    """Minimal elements of the complement of a downward-closed set.

    The candidates are one-generator prolongations g . v of members v.
    Since the set is downward closed, an element outside it is minimal in
    the complement exactly when all its immediate predecessors lie in the
    set, and that is the one rule applied.  Word candidates never exceed
    (longest member) + 1 letters; the bound used is reported alongside.
    """
    kind, k = initial.kind, initial.k
    identity = MonoidElem.identity(kind, k)
    if identity not in initial.elements:
        # only the empty set lacks the identity; its complement is everything
        bound = 0 if kind == FREE else None
        return MinimalLeaders(frozenset([identity]), bound)

    gens = [MonoidElem.generator(kind, k, i) for i in range(1, k + 1)]
    leaders = frozenset(
        w
        for w in (g.compose(v) for v in initial.elements for g in gens)
        if w not in initial.elements and all(u in initial.elements for u in w.immediate_predecessors())
    )
    bound = max(el.degree for el in initial.elements) + 1 if kind == FREE else None
    return MinimalLeaders(leaders, bound)


def theta_ball(k: int, degree: int) -> list[MonoidElem]:
    """All exponent tuples of total degree <= degree, in increasing total order."""
    tuples = (t for t in itertools.product(range(degree + 1), repeat=k) if sum(t) <= degree)
    return sorted(MonoidElem(COMMUTATIVE, k, t) for t in tuples)


def gamma_ball(k: int, length: int) -> list[MonoidElem]:
    """All words of length <= length, in increasing total order."""
    words = (w for n in range(length + 1) for w in itertools.product(range(1, k + 1), repeat=n))
    return sorted(MonoidElem(FREE, k, w) for w in words)
