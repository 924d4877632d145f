import itertools
import random
from fractions import Fraction

import pytest

from conftest import rand_poly
from diffalg.algebra import JetVar, Poly, var
from diffalg.axioms import (
    DefinableSetDesc,
    TriangularSystem,
    nc_normalize,
    triangular_dimension_certificate,
    wide_from_deep,
)
from diffalg.config import Configuration
from diffalg.errors import EngineError, NotTriangularError
from diffalg.jet import JetAtom
from diffalg.monoid import FREE, InitialSet, MonoidElem

Z1, Z2, Z3 = JetVar("z1"), JetVar("z2"), JetVar("z3")
z1, z2, z3 = var("z1"), var("z2"), var("z3")


def theta(*exps):
    return MonoidElem.exponents(exps)


def test_wide_from_deep_product_example():
    deep = DefinableSetDesc((Z1, Z2, Z3), (JetAtom(z3 - z1 * z2, "="),), (Z1, Z2))
    result = wide_from_deep(deep, 2)
    y1, y2 = result.y_vars
    wide = result.wide
    assert wide.indices == (Z1, Z2, y1, y2)
    assert wide.atoms[0] == JetAtom(Poly.variable(y2) - z1 * z2, "=")
    assert wide.atoms[1] == JetAtom(Poly.variable(y1) - z2, "=")
    assert result.jet_recovery == ((y1, Z2),)


def test_wide_from_deep_degenerate_n1():
    deep = DefinableSetDesc((Z1, Z2), (JetAtom(z2 - z1 * z1, "="),), (Z1,))
    result = wide_from_deep(deep, 1)
    assert len(result.wide.indices) == 2
    assert len(result.wide.atoms) == 1  # no couplings for n = 1


def test_wide_from_deep_velocities_avoid_taken_names():
    deep = DefinableSetDesc((JetVar("y"), JetVar("yy_1"), Z1), (), ())
    assert [str(v) for v in wide_from_deep(deep, 2).y_vars] == ["yyy1", "yyy2"]


def test_wide_from_deep_arity_mismatch():
    deep = DefinableSetDesc((Z1, Z2), (), (Z1,))
    with pytest.raises(EngineError):
        wide_from_deep(deep, 2)
    with pytest.raises(EngineError, match="at least 1"):
        wide_from_deep(DefinableSetDesc((Z1,), (), (Z1,)), 0)


def grid_transfer_holds(deep: DefinableSetDesc, n: int, values) -> bool:
    result = wide_from_deep(deep, n)
    wide = result.wide
    for point in itertools.product(values, repeat=n + 1):
        deep_point = dict(zip(deep.indices, point))
        xs = point[:n]
        wide_point = dict(zip(result.x_vars, xs))
        # couple the velocities: y_i = x_{i+1}, y_n = the jet top
        for y, xnext in result.jet_recovery:
            wide_point[y] = wide_point[xnext]
        wide_point[result.y_vars[-1]] = point[n]
        if wide.contains(wide_point) != deep.contains(deep_point):
            return False
    return True


def test_wide_from_deep_grid_transfer_example():
    deep = DefinableSetDesc((Z1, Z2, Z3), (JetAtom(z3 - z1 * z2, "="),), (Z1, Z2))
    assert grid_transfer_holds(deep, 2, [Fraction(v) for v in (-2, -1, 0, 1, 2)])


def test_wide_from_deep_grid_transfer_random():
    rng = random.Random(88)
    values = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    for _ in range(10):
        atoms = []
        for _ in range(rng.randint(1, 2)):
            p = rand_poly(rng, [Z1, Z2, Z3], max_terms=3, max_degree=2)
            atoms.append(JetAtom(p, rng.choice(["=", "!="])))
        deep = DefinableSetDesc((Z1, Z2, Z3), tuple(atoms), (Z1, Z2))
        assert grid_transfer_holds(deep, 2, values)


# ----------------------------------------------------------------------


def gamma(*letters):
    return MonoidElem.word(2, letters)


def test_nc_normalize_adds_minimal_leaders():
    initial = InitialSet.of([MonoidElem.identity(FREE, 2), gamma(1)])
    x_id = JetVar("x", MonoidElem.identity(FREE, 2))
    x_d1 = JetVar("x", gamma(1))
    desc = DefinableSetDesc((x_id, x_d1), (JetAtom(Poly.variable(x_d1) - Poly.variable(x_id), "="),), (x_id,))
    result = nc_normalize(initial, desc)
    assert result.added == {gamma(2)}
    assert set(result.v_prime.elements) == {MonoidElem.identity(FREE, 2), gamma(1), gamma(2)}
    assert len(result.z_prime.indices) == 3
    assert result.z_prime.atoms == desc.atoms
    assert result.z_prime.projection == (x_id,)


def test_nc_normalize_saturated_is_identity():
    initial = InitialSet.of([MonoidElem.identity(FREE, 2), gamma(1), gamma(2)])
    x_vars = tuple(
        JetVar("x", el) for el in sorted(initial.elements, key=lambda e: e.sort_key)
    )
    desc = DefinableSetDesc(x_vars, (), (x_vars[0],))
    result = nc_normalize(initial, desc)
    assert result.added == frozenset()
    assert result.v_prime.elements == initial.elements


def test_nc_normalize_membership_transfer_on_grid():
    initial = InitialSet.of([MonoidElem.identity(FREE, 2), gamma(1)])
    x_id = JetVar("x", MonoidElem.identity(FREE, 2))
    x_d1 = JetVar("x", gamma(1))
    desc = DefinableSetDesc(
        (x_id, x_d1),
        (JetAtom(Poly.variable(x_d1) - Poly.variable(x_id) ** 2, "="),),
        (x_id,),
    )
    result = nc_normalize(initial, desc)
    values = [Fraction(v) for v in (-1, 0, 1, 2)]
    new_only = [v for v in result.z_prime.indices if v not in desc.indices]
    for old_point in itertools.product(values, repeat=2):
        base = dict(zip(desc.indices, old_point))
        for extra in itertools.product(values, repeat=len(new_only)):
            point = {**base, **dict(zip(new_only, extra))}
            assert result.z_prime.contains(point) == desc.contains(base)


# ----------------------------------------------------------------------


def xj(*exps):
    return Poly.variable(JetVar("x", theta(*exps)))


def test_dimension_certificate_for_configuration():
    cfg = Configuration(
        2,
        [theta(1, 0), theta(0, 1)],
        {theta(1, 0): xj(1, 0) - xj(0, 0) ** 2, theta(0, 1): xj(0, 1) - 2 * xj(0, 0)},
    )
    cert = triangular_dimension_certificate(cfg)
    assert cert.free_count == 1
    assert cert.free_vars == (JetVar("x", theta(0, 0)),)
    assert len(cert.solve_order) == 2


def test_dimension_certificate_empty_system():
    system = TriangularSystem((JetVar("a"), JetVar("b"), JetVar("c")), ())
    cert = triangular_dimension_certificate(system)
    assert cert.free_count == 3
    assert cert.solve_order == ()


def test_dimension_certificate_rejects_upward_reference():
    x0, x1 = JetVar("x0"), JetVar("x1")
    p = Poly.variable(x0) ** 2 + Poly.variable(x1) ** 2
    system = TriangularSystem((x0, x1), ((x0, p),))
    with pytest.raises(NotTriangularError):
        triangular_dimension_certificate(system)


def test_dimension_certificate_rejects_shared_main():
    x0, x1 = JetVar("x0"), JetVar("x1")
    p = Poly.variable(x1) - Poly.variable(x0)
    system = TriangularSystem((x0, x1), ((x1, p), (x1, p + 1)))
    with pytest.raises(NotTriangularError):
        triangular_dimension_certificate(system)


def test_dimension_certificate_chain():
    x0, x1, x2 = JetVar("x0"), JetVar("x1"), JetVar("x2")
    system = TriangularSystem(
        (x0, x1, x2),
        (
            (x1, Poly.variable(x1) - Poly.variable(x0) ** 2),
            (x2, Poly.variable(x2) ** 2 - Poly.variable(x1)),
        ),
    )
    cert = triangular_dimension_certificate(system)
    assert cert.free_count == 1
    assert cert.solve_order == (x1, x2)
