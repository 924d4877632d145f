"""Twisted tangent bundles and derivation extension at generic points.

Given generators p_1..p_l of the ideal of a variety W in n ambient
variables and a coefficient derivation on the parameters, the twisted
bundle is cut out by the lifts

    p_i with coefficients derived  +  Jacobian row of p_i . y  =  0,

one affine-linear equation in the tangent coordinates y per generator.
With the zero derivation this is the ordinary tangent bundle.  Points are
tuples of exact rational functions; at a point the bundle fiber becomes an
affine system solved exactly, giving tangent dimensions and membership in
the equal-dimension strata.

`extend_at_point` realizes a fiber point as an honest derivation: the
point's coordinates live in a tower whose base transcendentals are the
generic coordinates, the prescribed tangent values become the derivation
of those transcendentals, and algebraic stages receive the derivative
value their defining polynomial forces.  The result annihilates every
generator.
"""

from __future__ import annotations

from collections.abc import Sequence

from .algebra import AffineSpace, JetVar, Poly, Value, solve_affine, to_value
from .derivation import DerSpec, Tower, apply_derivation, coeff_derivative, implicit_delta, partner_var, twisted_lift
from .errors import FiberError, UndeclaredParameterError, listing
from .monoid import Record


class VarietyPresentation(Record):
    """Ambient variables plus generators assumed to generate the full ideal."""

    __slots__ = ("variables", "gens")
    variables: tuple[JetVar, ...]
    gens: tuple[Poly, ...]

    def __init__(self, variables, gens):
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate ambient variables")
        super().__init__(variables, gens)

    @property
    def n(self) -> int:
        return len(self.variables)

    def parameters(self) -> set[JetVar]:
        return set().union(*(p.variables() for p in self.gens)) - set(self.variables)

    def point_binding(self, point: Sequence[Value]) -> dict[JetVar, Value]:
        if len(point) != self.n:
            raise ValueError(f"point has {len(point)} coordinates, ambient dimension is {self.n}")
        binding = {v: to_value(a) for v, a in zip(self.variables, point)}
        for p in self.parameters():
            binding[p] = Poly.variable(p)
        return binding

    def contains(self, point: Sequence[Value], is_zero=lambda x: x.is_zero) -> bool:
        binding = self.point_binding(point)
        return all(is_zero(p.evaluate(binding)) for p in self.gens)


class Prolongation(Record):
    __slots__ = ("source", "spec", "equations")
    source: VarietyPresentation
    spec: DerSpec
    equations: tuple[Value, ...]

    def tangent_vars(self) -> tuple[JetVar, ...]:
        return tuple(partner_var(v) for v in self.source.variables)


def _check_parameters(variety: VarietyPresentation, spec: DerSpec) -> None:
    undeclared = variety.parameters() - spec.parameters
    if undeclared:
        raise UndeclaredParameterError(f"parameters not covered by the derivation: {listing(undeclared)}")
    clash = spec.parameters & set(variety.variables)
    if clash:
        raise UndeclaredParameterError(f"ambient variables declared as parameters: {listing(clash)}")


def twisted_bundle(variety: VarietyPresentation, spec: DerSpec) -> Prolongation:
    """The system of lifted generators, affine-linear in the tangent variables."""
    _check_parameters(variety, spec)
    equations = tuple(twisted_lift(p, spec).lift for p in variety.gens)
    return Prolongation(variety, spec, equations)


def tangent_system_at(
    variety: VarietyPresentation, spec: DerSpec, point: Sequence[Value]
) -> tuple[list[list[Value]], list[Value]]:
    """Matrix and constant column of the fiber equations at a point of W."""
    binding = variety.point_binding(point)
    rows = [[p.partial(v).substitute(binding) for v in variety.variables] for p in variety.gens]
    rhs = [coeff_derivative(p, spec.eta).substitute(binding) for p in variety.gens]
    return rows, rhs


def tangent_space_at(
    variety: VarietyPresentation,
    spec: DerSpec,
    point: Sequence[Value],
    tower: Tower | None = None,
) -> AffineSpace:
    """Solve the twisted fiber at a point of the variety.

    Membership of the point is checked by evaluation; when the coordinates
    live in an algebraic tower, pass it so vanishing, for membership and
    for the pivots of the elimination, is decided there.
    """
    _check_parameters(variety, spec)
    is_zero = tower.is_zero if tower is not None else (lambda x: x.is_zero)
    if not variety.contains(point, is_zero=is_zero):
        raise FiberError("point does not satisfy the generators")
    rows, rhs = tangent_system_at(variety, spec, point)
    return solve_affine(rows, rhs, n=variety.n, is_zero=is_zero)


class RegRank(Record):
    __slots__ = ("dimension", "in_reg")
    dimension: int
    in_reg: bool | None


def reg_rank_at(
    variety: VarietyPresentation, point: Sequence[Value], d: int | None = None
) -> RegRank:
    """Ordinary tangent dimension at a point, and membership in the d-stratum."""
    space = tangent_space_at(variety, DerSpec(eta={p: Poly.zero() for p in variety.parameters()}), point)
    dim = space.dimension
    return RegRank(dim, None if d is None else dim == d)


def extend_at_point(
    variety: VarietyPresentation,
    spec: DerSpec,
    tower: Tower,
    point: Sequence[JetVar | str],
    tangent: Sequence[Value],
) -> DerSpec:
    """Extend the coefficient derivation so the point moves along the fiber.

    The point's coordinates must be distinct tower variables; transcendental
    coordinates receive the prescribed tangent values directly, algebraic
    stages the derivative their defining polynomial forces (which must agree
    with the prescribed value, or the pair was not on the bundle).  The
    forced values are computed in the given tower, stage by stage: it has
    proved its defining polynomials squarefree with unit separants, and they
    do not depend on the derivation, so the tower is not rebuilt.
    """
    _check_parameters(variety, spec)
    coords = tuple(JetVar(c) if isinstance(c, str) else c for c in point)
    if len(coords) != variety.n or len(tangent) != variety.n:
        raise ValueError("point and tangent must match the ambient dimension")
    tower_vars = set(tower.variables())
    if len(set(coords)) != len(coords) or any(c not in tower_vars for c in coords):
        raise FiberError("coordinates must be distinct tower variables")
    if any(c in spec.parameters for c in coords):
        raise FiberError("a coefficient parameter cannot serve as a generic coordinate")

    generic = [Poly.variable(c) for c in coords]
    binding = variety.point_binding(generic)
    for p in variety.gens:
        if not tower.is_zero(p.substitute(binding)):
            raise FiberError(f"point does not satisfy {p} in the tower")

    # fiber membership: lifted equation evaluated at (point, tangent)
    rows, rhs = tangent_system_at(variety, spec, generic)
    for row, total in zip(rows, rhs):
        for a, y in zip(row, tangent):
            total = total + a * y
        if not tower.is_zero(total):
            raise FiberError("tangent values do not satisfy the lifted equations")

    gen_names = set(tower.gens())
    eta = dict(spec.eta)
    eta.update((c, y) for c, y in zip(coords, tangent) if c not in gen_names)
    missing = set(tower.params) - set(eta)
    if missing:
        raise UndeclaredParameterError(f"tower transcendentals without derivative values: {listing(missing)}")

    # the derivation of the base field, which refuses a key that is not a base parameter
    base = Tower(tower.params, eta)
    images = {}
    for stage in tower.stages:
        images[stage.gen] = tower.reduce(implicit_delta(stage.minpoly, stage.gen, DerSpec(base.eta, images)))
        assert tower.is_zero(apply_derivation(stage.minpoly, DerSpec(base.eta, images)))
    for c, y in zip(coords, tangent):
        if c in gen_names and not tower.equal(images[c], y):
            raise FiberError(f"prescribed value for {c} is not the forced derivative")
    return DerSpec(eta, images)
