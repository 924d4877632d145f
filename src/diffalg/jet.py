"""Jet rewriting of differential terms, and a concrete model to check it.

A differential term is a tree over rational constants, named variables,
+, *, unary minus, and derivation symbols d1..dk.  `rewrite_term` removes
every derivation symbol: each variable x not declared as a parameter turns
into a family of jet variables x[w] indexed by monoid elements, and di
applied to a subterm expands by additivity and the product rule, bumping
jet indices and consulting the parameter table.  In commutative mode the
indices live in the exponent-tuple monoid, so d1 d2 x and d2 d1 x become
the same variable; in free mode they stay distinct words.

`DiffModel` is the reference semantics: an honest differential field
(a transcendental base, optionally an algebraic tower) with one concrete
derivation per symbol.  `oracle_eval` interprets a term there literally,
which is what the rewriting is tested against.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import partial

from .algebra import JetVar, Poly, Value, as_value, to_value
from .derivation import DerSpec, Tower, apply_derivation
from .errors import EngineError, KindMismatchError, UncoveredVariableError
from .monoid import COMMUTATIVE, FREE, MonoidElem, Record


class DiffTerm(Record):
    """Base class of term nodes."""

    __slots__ = ()


class TConst(DiffTerm):
    __slots__ = ("value",)
    value: Fraction

    def __str__(self):
        return str(self.value)


class TVar(DiffTerm):
    __slots__ = ("name",)
    name: str

    def __str__(self):
        return self.name


class TAdd(DiffTerm):
    __slots__ = ("left", "right")
    left: DiffTerm
    right: DiffTerm

    def __str__(self):
        return f"{self.left} + {self.right}"


class TMul(DiffTerm):
    __slots__ = ("left", "right")
    left: DiffTerm
    right: DiffTerm

    def __str__(self):
        return f"{_factor_str(self.left)} * {_factor_str(self.right)}"


class TNeg(DiffTerm):
    __slots__ = ("arg",)
    arg: DiffTerm

    def __str__(self):
        return f"-{_factor_str(self.arg)}"


class TDer(DiffTerm):
    __slots__ = ("index", "arg")
    index: int
    arg: DiffTerm

    def __str__(self):
        return f"d{self.index}({self.arg})"


def _factor_str(t: DiffTerm) -> str:
    if isinstance(t, (TAdd, TNeg)):
        return f"({t})"
    return str(t)


def term_str(t: DiffTerm) -> str:
    return str(t)


def max_der_index(t: DiffTerm) -> int:
    if isinstance(t, TDer):
        return max(t.index, max_der_index(t.arg))
    if isinstance(t, (TAdd, TMul)):
        return max(max_der_index(t.left), max_der_index(t.right))
    if isinstance(t, TNeg):
        return max_der_index(t.arg)
    return 0


class JetAtom(Record):
    """A rewritten polynomial (in)equation: `poly rel 0` with rel in {=, !=}."""

    __slots__ = ("poly", "rel")
    poly: Poly
    rel: str

    def __str__(self):
        return f"{self.poly} {self.rel} 0"


def _evaluate(t: DiffTerm, leaf: Callable[[str], Value], der: Callable[[int], Callable]) -> Value:
    """A term's value: `leaf` values a variable by name, `der(i)` gives the
    operator for di before its argument is evaluated.  It recurses through
    itself, not a nested closure, which would hold itself and so keep the
    callers' values alive until a cyclic collection."""
    if isinstance(t, TConst):
        return Poly.const(t.value)
    if isinstance(t, TVar):
        return leaf(t.name)
    if isinstance(t, TAdd):
        return _evaluate(t.left, leaf, der) + _evaluate(t.right, leaf, der)
    if isinstance(t, TMul):
        return _evaluate(t.left, leaf, der) * _evaluate(t.right, leaf, der)
    if isinstance(t, TNeg):
        return -_evaluate(t.arg, leaf, der)
    if isinstance(t, TDer):
        return der(t.index)(_evaluate(t.arg, leaf, der))
    raise TypeError(f"unknown term node: {t!r}")


def _eta_tables(eta, k: int) -> list[dict[JetVar, object]]:
    """Normalize the parameter-table argument to one table per derivation symbol."""
    if eta is None:
        return [{} for _ in range(k)]
    if isinstance(eta, Mapping):
        return [dict(eta) for _ in range(k)]
    tables = [dict(table) for table in eta]
    if len(tables) != k:
        raise EngineError(f"expected {k} parameter tables, got {len(tables)}")
    return tables


def _jet_shift(i: int, mode: str, k: int, tables: Sequence[Mapping[JetVar, object]]) -> Callable:
    """The i-th derivation symbol, applied formally: bump jet indices, derive parameters."""
    if not 1 <= i <= k:
        raise EngineError(f"derivation index d{i} exceeds k={k}")
    gen, eta = MonoidElem.generator(mode, k, i), tables[i - 1]

    def shift(value: Value) -> Value:
        # `rewrite_term` gives every table every parameter, so the other variables are jet variables
        images = {v: Poly.variable(JetVar(v.base, gen.compose(v.index))) for v in value.variables() - set(eta)}
        return apply_derivation(value, DerSpec(eta, images))

    return shift


def rewrite_term(
    t: DiffTerm,
    mode: str = COMMUTATIVE,
    eta: Mapping[JetVar, object] | Sequence[Mapping[JetVar, object]] | None = None,
    k: int | None = None,
):
    """Eliminate derivation symbols, returning a polynomial in jet variables.

    `eta` declares the parameters: a single table shared by all symbols, or
    one table per symbol.  The result is a Poly unless a fractional table
    leaves a non-constant denominator.  Substituting the actual iterated
    derivatives of any differential ring for the jet variables recovers the
    value of the term.
    """
    if mode not in (FREE, COMMUTATIVE):
        raise KindMismatchError(f"unknown mode {mode!r}")
    if k is None:
        k = max(max_der_index(t), 1)
    tables = _eta_tables(eta, k)
    params = set().union(*tables)
    # every table covers every parameter, so each symbol derives them all
    ordered = sorted(params)
    tables = [{p: table.get(p, Poly.zero()) for p in ordered} for table in tables]

    identity = MonoidElem.identity(mode, k)

    def leaf(name: str) -> Poly:
        plain = JetVar(name)
        return Poly.variable(plain if plain in params else JetVar(name, identity))

    return _evaluate(t, leaf, partial(_jet_shift, mode=mode, k=k, tables=tables))


def rewrite_atom(
    lhs: DiffTerm,
    rel: str,
    rhs: DiffTerm,
    mode: str = COMMUTATIVE,
    eta=None,
    k: int | None = None,
) -> JetAtom:
    """Rewrite `lhs rel rhs` to a polynomial atom `p rel 0`.

    When a fractional parameter table makes the difference a genuine
    fraction, the atom is taken on its numerator (the denominator is a
    nonzero product of parameter expressions).
    """
    if rel not in ("=", "!="):
        raise EngineError(f"unknown relation {rel!r}")
    if k is None:
        k = max(max_der_index(lhs), max_der_index(rhs), 1)
    left = rewrite_term(lhs, mode, eta, k)
    right = rewrite_term(rhs, mode, eta, k)
    return JetAtom((left - right).num, rel)


# ----------------------------------------------------------------------
# the concrete differential-field oracle


class DiffModel:
    """A differential field with one concrete derivation per symbol.

    Carries k towers sharing the same base parameters and stage structure,
    one per derivation; for a purely transcendental model, build it from
    plain derivation tables via `DiffModel.on_parameters`.
    """

    def __init__(self, towers: Sequence[Tower]):
        if not towers:
            raise EngineError("a model needs at least one derivation")
        first = towers[0]
        for tw in towers[1:]:
            if tw.params != first.params or [s.minpoly for s in tw.stages] != [
                s.minpoly for s in first.stages
            ]:
                raise KindMismatchError("model derivations must live on the same field")
        self.towers = tuple(towers)

    @staticmethod
    def on_parameters(params: Sequence[JetVar], tables: Sequence[Mapping[JetVar, object]]) -> "DiffModel":
        return DiffModel([Tower(params, table) for table in tables])

    @property
    def k(self) -> int:
        return len(self.towers)

    def variables(self):
        return self.towers[0].variables()

    def element(self, name) -> Poly:
        return self.towers[0].element(name)

    def apply(self, i: int, value: Value) -> Value:
        if not 1 <= i <= self.k:
            raise EngineError(f"no derivation d{i} in a model with k={self.k}")
        return self.towers[i - 1].apply(value)

    def apply_word(self, word: MonoidElem, value) -> Value:
        """Iterated derivative along a word (rightmost letter acts first)."""
        if word.kind != FREE:
            word = word.canonical_word()
        out = as_value(value)
        for letter in reversed(word.data):
            out = self.apply(letter, out)
        return out

    def equal(self, a, b) -> bool:
        return self.towers[0].equal(a, b)

    def is_zero(self, a) -> bool:
        return self.towers[0].is_zero(a)

    def reduce(self, a: Value) -> Value:
        return self.towers[0].reduce(a)

    def commutes_on_generators(self) -> bool:
        for v in self.variables():
            elem = Poly.variable(v)
            for i in range(1, self.k + 1):
                for j in range(i + 1, self.k + 1):
                    lhs = self.apply(i, self.apply(j, elem))
                    rhs = self.apply(j, self.apply(i, elem))
                    if not self.equal(lhs, rhs):
                        return False
        return True


def oracle_eval(
    t: DiffTerm,
    model: DiffModel,
    sigma: Mapping[str, object],
    mode: str = FREE,
) -> Value:
    """Evaluate a term by literally applying the model derivations.

    `sigma` binds the term's differential variables to model elements;
    names that are model variables evaluate to themselves.  In commutative
    mode the model derivations must commute on generators.
    """
    if mode == COMMUTATIVE and not model.commutes_on_generators():
        raise KindMismatchError("model derivations do not commute; free mode only")
    model_vars = {v.base: v for v in model.variables()}

    def leaf(name: str) -> Value:
        if name in sigma:
            return to_value(sigma[name])
        if name in model_vars:
            return Poly.variable(model_vars[name])
        raise UncoveredVariableError(f"no model value for variable {name}")

    return model.reduce(_evaluate(t, leaf, lambda i: partial(model.apply, i)))


def jet_binding(
    model: DiffModel,
    sigma: Mapping[str, object],
    jet_vars: Iterable[JetVar],
) -> dict[JetVar, Value]:
    """Bind jet variables to the literal iterated derivatives they stand for.

    Unindexed variables are parameters and stand for the model element of
    the same name, even where a sigma key shares that name.
    """
    out: dict[JetVar, Value] = {}
    for v in jet_vars:
        if v.index is None:
            out[v] = model.element(v.base)
        else:
            if v.base not in sigma:
                raise UncoveredVariableError(f"no model value for {v.base}")
            out[v] = model.apply_word(v.index, sigma[v.base])
    return out
