"""Derivation calculus: the one derivation rule, twisted lifts, towers.

A `DerSpec` packages a derivation acting on expressions: a coefficient
table `eta` (how the derivation acts on parameters) and an image table
`images` (values assigned to the remaining variables).  Variables in
`eta`'s domain are the parameters; every other variable of an expression
is treated as a main variable.

`apply_derivation` is the one place where the calculus layers write out
how a derivation extends from the coefficients to polynomials,

    d(q) = q^eta + sum_v (dq/dv) * images[v],

where q^eta = sum_c (dq/dc) * eta[c] over the parameters c
(`coeff_derivative`).  Each value already carries its denominator over an
`algebra.FactorBase`.  `apply_derivation` merges the bases of the images of
q's variables, in variable order, and then q's, once per call: where one
base's factors start the other's nothing is split, and a polynomial has
the empty base.  It then takes the merged base's derivation rule (Kolchin
1973, ch. I), under which the denominator gains one power of each factor
it holds and no more.  The rule sums d(N) term by term over the
numerator's monomials, each monomial's powers in variable order, so its
output does not depend on set or dict iteration order.  The other
constructions are this rule with a particular image table:

* the twisted lift sends each main variable x to a fresh partner y_x,

      lift(p) = p^eta + sum_x (dp/dx) * y_x,

  so that substituting y_x -> D(x) recovers the action of any derivation
  D extending eta; setting all partners to zero gives p^eta;
* `implicit_delta` maps the solved-for variable to zero and divides by
  minus its separant;
* the jet shift in `jet.py` maps each jet variable to its bumped index;
* `Configuration.r_apply` maps each x_mu to its function at d_i.mu.

`Tower` models iterated algebraic extensions of a transcendental base
field Q(params): each stage adjoins a generator with a defining polynomial
and carries the forced derivative value

    d(gen) = - (defining polynomial with coefficients derived, at gen)
             / (its derivative in gen, at gen).

Tower arithmetic reduces the numerator of an element by pseudo-division
against each stage's defining polynomial, highest stage first, through
`algebra.pseudo_reduce` (each step is Knuth, TAOCP vol. 2, 4.6.1,
Algorithm R), and keeps the denominator over its factor base, a unit of
the tower whose factors include the stage separants: iterated derivatives
have denominators linear in the order.  Each stage separant carries a unit
certificate: `extend_to_algebraic` ends the pseudo-remainder sequence of
the defining polynomial p and its separant p' in a remainder g = s * p'
modulo p, free of the generator, and inverts g in the tower below, so p'
divides a unit (Kolchin 1973: the derivation extends because p' is
invertible).  `Tower.reduce` tests a denominator for zero only when one of
its factors is not such a separant; a product of units is a unit, while a
product of nonzero elements may vanish.  Inverting an element and checking
that a new defining polynomial is squarefree are both one
pseudo-remainder sequence in the stage generator (Brown and Traub, JACM
1971), whose remainders are reduced over the tower and whose cofactor
follows them; its coefficients are never multiplied by inverses.  Only two
kinds of value are inverted in the tower below: a leading coefficient that
involves a lower generator (to test that it is a unit), and the last
remainder once it is free of the stage generator.  Degenerate elements
(zero divisors arising from a reducible defining polynomial) raise
`NonInvertibleError` instead of splitting the tower.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .algebra import JetVar, Poly, Value, as_value, fraction, over_one_base, pseudo_reduce, pseudo_remainder, to_value
from .errors import (
    EngineError,
    NonInvertibleError,
    SeparantZeroError,
    UncoveredVariableError,
    UndeclaredParameterError,
    listing,
)
from .monoid import Record


class DerSpec(Record):
    """A derivation: coefficient action on parameters plus variable images.

    Its fields may be reassigned, so it is not hashable.
    """

    __slots__ = ("eta", "images")
    eta: dict[JetVar, Value]
    images: dict[JetVar, Value]
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, eta: Mapping[JetVar, Value] | None = None, images: Mapping[JetVar, Value] | None = None):
        self.eta = {p: to_value(value) for p, value in (eta or {}).items()}
        self.images = {v: to_value(value) for v, value in (images or {}).items()}
        declared = set(self.eta)
        for p, value in self.eta.items():
            extra = value.variables() - declared
            if extra:
                raise UndeclaredParameterError(f"eta image of {p} mentions undeclared parameters: {listing(extra)}")
        overlap = declared & set(self.images)
        if overlap:
            raise UndeclaredParameterError(f"variables both parameter and main: {listing(overlap)}")

    @property
    def parameters(self) -> set[JetVar]:
        return set(self.eta)

    def __str__(self) -> str:
        def table(mapping):
            return ", ".join(f"{v} -> {mapping[v]}" for v in sorted(mapping))

        eta_part = table(self.eta) if self.eta else "none"
        if self.images:
            return f"eta: {eta_part}; d: {table(self.images)}"
        return f"eta: {eta_part}"


def coeff_derivative(q: Value, eta: Mapping[JetVar, Value]) -> Value:
    """Apply the coefficient derivation: sum over parameters of dq/dc * eta(c)."""
    return apply_derivation(q, DerSpec(eta=eta, images=dict.fromkeys(q.variables() - set(eta), 0)))


def partner_var(v: JetVar) -> JetVar:
    """The fresh tangent partner of a main variable (reserved y_ prefix)."""
    return JetVar("y_" + v.base, v.index)


class LiftResult(Record):
    __slots__ = ("lift", "coeff_only")
    lift: Value
    coeff_only: Value

    def __iter__(self):
        return iter(self._fields())


def twisted_lift(p: Value, spec: DerSpec) -> LiftResult:
    """Lift p to p_eta + sum (dp/dx) y_x over fresh partner variables."""
    variables = p.variables()
    mains = sorted(variables - spec.parameters)
    for v in mains:
        if partner_var(v) in variables:
            raise EngineError(f"reserved partner name {partner_var(v)} already occurs in {p}")
    partners = DerSpec(spec.eta, {v: Poly.variable(partner_var(v)) for v in mains})
    return LiftResult(apply_derivation(p, partners), coeff_derivative(p, spec.eta))


def apply_derivation(q: Value, spec: DerSpec) -> Value:
    """Evaluate the derivation on q: q_eta + sum (dq/dx) * images[x] on a
    polynomial, extended to a fraction by `FactorBase.derive` over one base
    for the images of q's variables and then q."""
    variables = sorted(q.variables())
    for v in variables:
        if v not in spec.eta and v not in spec.images:
            raise UncoveredVariableError(f"derivation d has no image for {v}")
    images = [spec.eta.get(v, spec.images.get(v)) for v in variables]
    base, (*images, q) = over_one_base(images + [q])
    return as_value(base.derive(q, dict(zip(variables, images)).get, {}))


def implicit_delta(p: Poly, main: JetVar, spec: DerSpec) -> Value:
    """Derivative value forced on `main` by differentiating the constraint p = 0.

    Returns -(p_eta + sum_{v != main} (dp/dv) * images[v]) / (dp/dmain); the
    sign is fixed so the result annihilates the constraint.
    """
    separant = p.partial(main)
    if separant.is_zero:
        raise SeparantZeroError(f"constraint does not depend on {main}")
    total = apply_derivation(p, DerSpec(spec.eta, {**spec.images, main: Poly.zero()}))
    return -total / separant


# ----------------------------------------------------------------------
# towers of algebraic extensions


class TowerStage(Record):
    __slots__ = ("gen", "minpoly", "dvalue")
    gen: JetVar
    minpoly: Poly
    dvalue: Value


class Tower:
    """Q(params) extended by a chain of algebraic generators, with a derivation."""

    def __init__(self, params: Iterable[JetVar], eta: Mapping[JetVar, Value] | None = None):
        self.params = tuple(params)
        given = dict(eta) if eta else {}
        for p in given:
            if p not in self.params:
                raise UndeclaredParameterError(f"eta assigns {p}, which is not a base parameter")
        # unlisted parameters are constants for the derivation
        self.eta = {p: to_value(given.get(p, 0)) for p in self.params}
        self.stages: tuple[TowerStage, ...] = ()
        self._chain: tuple[tuple[JetVar, Poly], ...] = ()
        self._units: tuple[Poly, ...] = ()

    # -- construction --------------------------------------------------

    def _with_stages(self, stages: tuple[TowerStage, ...]) -> "Tower":
        out = Tower(self.params, self.eta)
        out.stages = stages
        # the stage relations as a triangular chain, highest stage first; its
        # multipliers are products of stage initials, never zero in the tower
        out._chain = tuple((s.gen, s.minpoly) for s in reversed(stages))
        # the stage separants, each a unit of the tower: `extend_to_algebraic`
        # proves it before it adds the stage
        out._units = tuple(s.minpoly.partial(s.gen) for s in stages)
        return out

    def extend(self, minpoly: Poly, gen: JetVar | str) -> "Tower":
        return extend_to_algebraic(self, minpoly, gen)

    # -- structure -----------------------------------------------------

    def variables(self) -> tuple[JetVar, ...]:
        return self.params + tuple(s.gen for s in self.stages)

    def gens(self) -> tuple[JetVar, ...]:
        return tuple(s.gen for s in self.stages)

    def element(self, name: JetVar | str) -> Poly:
        v = JetVar(name) if isinstance(name, str) else name
        if v not in self.variables():
            raise UncoveredVariableError(f"{v} is not a tower variable")
        return Poly.variable(v)

    def derspec(self) -> DerSpec:
        return DerSpec(eta=dict(self.eta), images={s.gen: s.dvalue for s in self.stages})

    # -- reduction and zero testing ------------------------------------

    def reduce(self, x: Value) -> Value:
        """x with only its numerator pseudo-reduced by the chain.  The
        denominator, which must not vanish in the tower, is kept over its
        factor base for the next derivation.

        The denominator is tested only when one of its factors is not a
        stage separant: the separants are units (`extend_to_algebraic`), and
        a product of units is a unit, so it cannot vanish.  A record of
        factors once found nonzero would not do: over a reducible defining
        polynomial the tower has zero divisors, and c - t and c + t, each
        nonzero over c^2 = t^2, have the product 0."""
        x = to_value(x)
        units = self._units
        if any(e and b not in units for b, e in zip(x.base.factors, x.exps)) and self.is_zero(x.base.power(x.exps)):
            raise NonInvertibleError(f"denominator {x.den} vanishes in the tower")
        rem, mult = pseudo_reduce(x.numer, self._chain)
        return as_value(x if rem is x.numer else fraction(rem, x.base, x.exps) / mult)

    def is_zero(self, x: Value) -> bool:
        rem, _ = pseudo_reduce(to_value(x).numer, self._chain)
        return rem.is_zero

    def equal(self, a: Value, b: Value) -> bool:
        return self.is_zero(a - b)

    # -- derivation ----------------------------------------------------

    def apply(self, x: Value) -> Value:
        return self.reduce(apply_derivation(to_value(x), self.derspec()))

    # -- inversion by the pseudo-remainder sequence ----------------------

    def invert(self, x: Value) -> Value:
        rf = self.reduce(x)
        if rf.is_zero:
            raise NonInvertibleError("cannot invert zero")
        num, den = rf.numer, rf.base.power(rf.exps)
        stage = next((s for s in reversed(self.stages) if num.depends_on(s.gen)), None)
        if stage is None:
            # transcendental content only: a plain fraction inverts it
            return self.reduce(den / num)
        g, u = _last_remainder(self, num, stage.minpoly, stage.gen)
        if g.depends_on(stage.gen):
            raise NonInvertibleError(
                f"{num} is a zero divisor modulo {stage.minpoly} (gcd has degree {g.deg_in(stage.gen)})"
            )
        return self.reduce(u * den * self.invert(g))

    def __str__(self) -> str:
        parts = [f"Q({', '.join(str(p) for p in self.params)})"]
        for s in self.stages:
            parts.append(f"[{s.gen}: {s.minpoly} = 0]")
        return "".join(parts)


def _last_remainder(tower: Tower, a: Poly, modulus: Poly, gen: JetVar) -> tuple[Poly, Poly]:
    """Last nonzero remainder g of the pseudo-remainder sequence of `modulus`
    and a in `gen`, and a cofactor s with g = s * a modulo `modulus` in the
    tower.

    Each remainder is put in normal form over the tower, so a coefficient
    that vanishes there does not count toward its degree; the cofactor is
    scaled by the same multipliers.  The leading coefficient of every
    divisor must be a unit of the tower below `gen`: one that involves a
    lower generator is inverted there, which raises `NonInvertibleError`
    on a zero divisor, as a Euclidean division by it would.  With all of
    them units, g has degree 0 in `gen` exactly when a and `modulus` are
    coprime.
    """
    lower = set(tower.gens()) - {gen}
    r0, r1, s0, s1 = modulus, a, Poly.zero(), Poly.const(1)
    while True:
        degree, lead = r1.lead_in(gen)  # (0, 0) once r1 is zero
        if degree == 0:
            break
        if lead.variables() & lower:
            tower.invert(lead)
        rem, mult, quo = pseudo_remainder(r0, r1, gen)
        rem, scale = pseudo_reduce(rem, tower._chain)
        r0, r1, s0, s1 = r1, rem, s1, scale * (mult * s0 - quo * s1)
    return (r0, s0) if r1.is_zero else (r1, s1)


def extend_to_algebraic(tower: Tower, minpoly: Poly, gen: JetVar | str) -> Tower:
    """Adjoin an algebraic generator and the derivative value it forces.

    The defining polynomial must be univariate in `gen` over the current
    tower, with a simple root there: the pseudo-remainder sequence of
    minpoly and its separant must end in a remainder free of `gen` that is
    a unit of the tower.
    """
    gen = JetVar(gen) if isinstance(gen, str) else gen
    if gen in tower.variables():
        raise EngineError(f"{gen} is already a tower variable")
    extra = minpoly.variables() - set(tower.variables()) - {gen}
    if extra:
        raise EngineError(f"defining polynomial mentions foreign variables: {listing(extra)}")
    degree, lead = minpoly.lead_in(gen)
    if degree == 0:
        raise EngineError(f"defining polynomial does not involve {gen}")
    if tower.is_zero(lead):
        raise SeparantZeroError(f"leading coefficient {lead} vanishes in the tower")

    gcd, _ = _last_remainder(tower, minpoly.partial(gen), minpoly, gen)
    if gcd.depends_on(gen):
        raise SeparantZeroError(
            f"defining polynomial has a multiple root: gcd with separant has degree {gcd.deg_in(gen)}"
        )
    # a zero divisor raises NonInvertibleError; else gcd, which is s * separant
    # modulo minpoly, is a unit, and so is the separant (`_with_stages`)
    tower.invert(gcd)

    dvalue = implicit_delta(minpoly, gen, tower.derspec())
    out = tower._with_stages(tower.stages + (TowerStage(gen, minpoly, dvalue),))
    out = tower._with_stages(tower.stages + (TowerStage(gen, minpoly, out.reduce(dvalue)),))
    assert out.is_zero(apply_derivation(minpoly, out.derspec()))
    return out
