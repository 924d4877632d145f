"""Syntactic axiom-instance transforms over definable-set descriptions.

A definable-set description is a list of coordinate variables, polynomial
(in)equation atoms over them, and a projection target.  The transforms
here only rearrange such data; they never attempt to decide dimension of
a general definable set.  The one dimension statement produced is the
certificate for triangular systems, where the count of free coordinates
is forced by the shape of the equations.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .algebra import JetVar, Poly
from .config import Configuration
from .errors import EngineError, NotTriangularError, listing
from .jet import JetAtom
from .monoid import InitialSet, MonoidElem, Record, minimal_leaders


class DefinableSetDesc(Record):
    """Coordinates, polynomial atoms, and a projection target."""

    __slots__ = ("indices", "atoms", "projection")
    indices: tuple[JetVar, ...]
    atoms: tuple[JetAtom, ...]
    projection: tuple[JetVar, ...]

    def __init__(self, indices, atoms, projection):
        index_set = set(indices)
        if len(index_set) != len(indices):
            raise EngineError("duplicate coordinates")
        for atom in atoms:
            extra = atom.poly.variables() - index_set
            if extra:
                raise EngineError(f"atom mentions undeclared coordinates: {listing(extra)}")
        if not set(projection) <= index_set:
            raise EngineError("projection target must be a subset of the coordinates")
        super().__init__(indices, atoms, projection)

    def contains(self, point: Mapping[JetVar, int | Fraction]) -> bool:
        binding = {v: Fraction(point[v]) for v in self.indices}
        for atom in self.atoms:
            value = atom.poly.evaluate(binding)
            if atom.rel == "=" and not value.is_zero:
                return False
            if atom.rel == "!=" and value.is_zero:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "indices": [str(v) for v in self.indices],
            "atoms": [{"poly": str(a.poly), "rel": a.rel} for a in self.atoms],
            "projection": [str(v) for v in self.projection],
        }


class WideFromDeepResult(Record):
    __slots__ = ("wide", "x_vars", "y_vars", "projection_note", "jet_recovery")
    wide: DefinableSetDesc
    x_vars: tuple[JetVar, ...]
    y_vars: tuple[JetVar, ...]
    projection_note: str
    jet_recovery: tuple[tuple[JetVar, JetVar], ...]  # (y_i, x_{i+1}) couplings


def _fresh_base(taken: set[str]) -> str:
    base = "y"
    while any(name == base or name.startswith(base + "_") for name in taken):
        base += "y"
    return base


def wide_from_deep(deep: DefinableSetDesc, n: int) -> WideFromDeepResult:
    """Turn a jet-style description in n+1 coordinates into a one-step one.

    The first n coordinates survive as positions, the last becomes the n-th
    velocity, and coupling equations y_i = x_{i+1} make the velocities
    reproduce the shifted positions, so a point of the new set encodes the
    depth-n jet of its first coordinate.
    """
    if n < 1:
        raise EngineError(f"the depth n must be at least 1, got {n}")
    if len(deep.indices) != n + 1:
        raise EngineError(f"expected {n + 1} coordinates, got {len(deep.indices)}")
    x_vars = deep.indices[:n]
    taken = {v.base for v in deep.indices}
    y_base = _fresh_base(taken)
    y_vars = tuple(JetVar(f"{y_base}{i + 1}") for i in range(n))

    rename = {deep.indices[n]: Poly.variable(y_vars[n - 1])}
    atoms = [JetAtom(a.poly.substitute(rename), a.rel) for a in deep.atoms]
    couplings = []
    for i in range(n - 1):
        atoms.append(JetAtom(Poly.variable(y_vars[i]) - Poly.variable(x_vars[i + 1]), "="))
        couplings.append((y_vars[i], x_vars[i + 1]))

    wide = DefinableSetDesc(tuple(x_vars) + y_vars, tuple(atoms), tuple(x_vars))
    note = (
        "projection to ("
        + ", ".join(str(v) for v in x_vars)
        + ") equals the projection of the input to its first n coordinates"
    )
    return WideFromDeepResult(wide, tuple(x_vars), y_vars, note, tuple(couplings))


class NcNormalizeResult(Record):
    __slots__ = ("v_prime", "z_prime", "added", "projection_note")
    v_prime: InitialSet
    z_prime: DefinableSetDesc
    added: frozenset[MonoidElem]
    projection_note: str


def nc_normalize(initial: InitialSet, desc: DefinableSetDesc) -> NcNormalizeResult:
    """Extend word coordinates so the maximal ones are exactly the minimal leaders.

    The index set grows by the minimal elements of the complement of its
    free part; constraints are pulled back unchanged, so projections to the
    free part are preserved.
    """
    bases = {v.base for v in desc.indices}
    if len(bases) != 1:
        raise EngineError("word coordinates must share one base name")
    base = bases.pop()
    have = {v.index for v in desc.indices}
    if have != set(initial.elements):
        raise EngineError("coordinates do not match the initial set")

    maximal = initial.maximal_elements()
    free = InitialSet(initial.kind, initial.k, initial.elements - maximal)
    leaders = minimal_leaders(free).elements
    added = leaders - initial.elements
    v_prime = InitialSet(initial.kind, initial.k, initial.elements | leaders)

    new_indices = tuple(sorted(JetVar(base, el) for el in v_prime.elements))
    projection = tuple(sorted(JetVar(base, el) for el in free.elements))
    z_prime = DefinableSetDesc(new_indices, desc.atoms, projection)
    note = "projection to the free coordinates is unchanged"
    return NcNormalizeResult(v_prime, z_prime, frozenset(added), note)


# ----------------------------------------------------------------------
# triangular dimension certificates


class TriangularSystem(Record):
    """Equations with designated main variables over strictly smaller ones."""

    __slots__ = ("ambient", "equations")
    ambient: tuple[JetVar, ...]
    equations: tuple[tuple[JetVar, Poly], ...]


class DimensionCertificate(Record):
    __slots__ = ("free_count", "solve_order", "free_vars")
    free_count: int
    solve_order: tuple[JetVar, ...]
    free_vars: tuple[JetVar, ...]

    def to_dict(self) -> dict:
        return {
            "dimension": self.free_count,
            "solve_order": [str(v) for v in self.solve_order],
            "free": [str(v) for v in self.free_vars],
        }


def triangular_dimension_certificate(
    system: Configuration | TriangularSystem,
) -> DimensionCertificate:
    """Count free coordinates of a triangular system, with the solve order.

    Each equation must involve its main variable with positive degree (over
    Q its separant is then not identically zero), and otherwise only
    variables strictly below the main in the coordinate order.  Anything else is rejected:
    dimensions of general systems are out of scope.
    """
    if isinstance(system, Configuration):
        mains = [system.jet_var(pi) for pi in system.leaders]
        ambient = set(mains)
        for p in system.relations.values():
            ambient |= {v for v in p.variables() if v.index is not None}
        ambient_order = sorted(ambient)
        equations = [(system.jet_var(pi), system.relations[pi]) for pi in system.leaders]
        system = TriangularSystem(tuple(ambient_order), tuple(equations))

    ambient = list(system.ambient)
    position = {v: i for i, v in enumerate(ambient)}
    mains = [m for m, _ in system.equations]
    if len(set(mains)) != len(mains):
        raise NotTriangularError("two equations share a main variable")
    for m, p in system.equations:
        if m not in position:
            raise NotTriangularError(f"main variable {m} is not an ambient coordinate")
        if not p.depends_on(m):
            raise NotTriangularError(f"equation for {m} does not involve it")
        for v in p.variables():
            if v == m or v not in position:
                continue
            if position[v] >= position[m]:
                raise NotTriangularError(
                    f"equation for {m} mentions {v}, which is not below it"
                )
    free = [v for v in ambient if v not in set(mains)]
    order = sorted(mains, key=lambda v: position[v])
    return DimensionCertificate(len(free), tuple(order), tuple(free))
