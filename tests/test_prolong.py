import random
from fractions import Fraction

import pytest

from conftest import rand_poly
from diffalg.algebra import JetVar, Poly, RatFun, var
from diffalg.derivation import DerSpec, Tower, apply_derivation, partner_var
from diffalg.errors import FiberError, UndeclaredParameterError
from diffalg.prolong import (
    Prolongation,
    VarietyPresentation,
    extend_at_point,
    reg_rank_at,
    tangent_space_at,
    twisted_bundle,
)

X, Y, C, T, A = JetVar("x"), JetVar("y"), JetVar("c"), JetVar("t"), JetVar("a")
x, y, c, t, a = (var(n) for n in "xycta")

circle = VarietyPresentation((X, Y), (x * x + y * y - 1,))
cusp = VarietyPresentation((X, Y), (y * y - x ** 3,))


def test_twisted_bundle_gradient():
    prol = twisted_bundle(circle, DerSpec())
    (eq,) = prol.equations
    yx, yy = Poly.variable(partner_var(X)), Poly.variable(partner_var(Y))
    assert eq == 2 * x * yx + 2 * y * yy


def test_twisted_bundle_with_parameter():
    variety = VarietyPresentation((X,), (x * x - c,))
    prol = twisted_bundle(variety, DerSpec(eta={C: Poly.const(1)}))
    (eq,) = prol.equations
    assert eq == 2 * x * Poly.variable(partner_var(X)) - 1


def test_twisted_bundle_empty_generators():
    prol = twisted_bundle(VarietyPresentation((X, Y), ()), DerSpec())
    assert prol.equations == ()


def test_twisted_bundle_requires_declared_parameters():
    variety = VarietyPresentation((X,), (x * x - c,))
    with pytest.raises(UndeclaredParameterError):
        twisted_bundle(variety, DerSpec())


def test_tangent_space_circle():
    space = tangent_space_at(circle, DerSpec(), (RatFun.const(1), RatFun.const(0)))
    assert space.rank == 1 and space.dimension == 1
    ((k0, k1),) = space.kernel
    assert k0 == RatFun.const(0) and k1 == RatFun.const(1)


def test_tangent_space_twisted_matches_forced_derivative():
    # the point a is the square root of the parameter c
    variety = VarietyPresentation((X,), (x * x - c,))
    spec = DerSpec(eta={C: Poly.const(1)})
    tower = Tower([C], {C: Poly.const(1)}).extend(a * a - c, A)
    space = tangent_space_at(variety, spec, (RatFun.variable(A),), tower=tower)
    assert space.rank == 1 and space.dimension == 0
    (sol,) = space.particular
    assert sol == RatFun(Poly.const(1), 2 * a)
    # the fiber value is the derivative the tower extension forces on a
    assert tower.equal(sol, tower.stages[0].dvalue)


def test_tangent_space_over_a_tower_takes_its_pivots_there():
    # V = {(x^2 - 2) y = 0} at (c, 0) over c^2 = 2: the Jacobian row is
    # [0, c^2 - 2], zero in the tower, so two components meet in a plane
    variety = VarietyPresentation((X, Y), ((x * x - 2) * y,))
    tower = Tower([], {}).extend(c * c - 2, C)
    space = tangent_space_at(variety, DerSpec(), (c, Poly.zero()), tower=tower)
    assert space.rank == 0 and space.dimension == 2 and space.consistent


def test_tangent_space_rejects_points_off_variety():
    with pytest.raises(FiberError):
        tangent_space_at(circle, DerSpec(), (RatFun.const(1), RatFun.const(1)))


def test_reg_rank_cusp():
    smooth = reg_rank_at(cusp, (RatFun.const(1), RatFun.const(1)), d=1)
    assert smooth.dimension == 1 and smooth.in_reg
    singular = reg_rank_at(cusp, (RatFun.const(0), RatFun.const(0)), d=1)
    assert singular.dimension == 2 and not singular.in_reg


def test_reg_rank_full_space():
    full = VarietyPresentation((X, Y, JetVar("z")), ())
    got = reg_rank_at(full, (RatFun.const(2), RatFun.const(3), RatFun.const(5)))
    assert got.dimension == 3


def test_tangent_fibers_agree_for_two_generating_sets():
    # {p} and {p, (x+1) p} present the same ideal near smooth points
    bigger = VarietyPresentation((X, Y), (x * x + y * y - 1, (x + 1) * (x * x + y * y - 1)))
    for point in [(RatFun.const(0), RatFun.const(1)), (RatFun.const(1), RatFun.const(0))]:
        s1 = tangent_space_at(circle, DerSpec(), point)
        s2 = tangent_space_at(bigger, DerSpec(), point)
        assert s1.dimension == s2.dimension
        assert s1.kernel == s2.kernel


def test_extend_at_point_circle_tower():
    base = Tower([T], {T: Poly.const(0)})
    tower = base.extend(c * c + t * t - 1, C)
    y1 = RatFun.const(1)
    y2 = RatFun(-t, c)
    spec = extend_at_point(circle, DerSpec(), tower, (T, C), (y1, y2))
    assert spec.eta[T] == y1
    assert tower.equal(spec.images[C], y2)
    # the derivation annihilates the generator at the point
    value = apply_derivation(RatFun(t * t + c * c - 1), spec)
    assert tower.is_zero(value)


def test_extend_at_point_rejects_off_fiber_values():
    base = Tower([T], {T: Poly.const(0)})
    tower = base.extend(c * c + t * t - 1, C)
    with pytest.raises(FiberError):
        extend_at_point(circle, DerSpec(), tower, (T, C), (RatFun.const(1), RatFun.const(5)))


def test_extend_at_point_full_space():
    base = Tower([T, A], {})
    full = VarietyPresentation((X, Y), ())
    spec = extend_at_point(full, DerSpec(), base, (T, A), (RatFun.const(3), RatFun(t)))
    assert spec.eta[T] == RatFun.const(3)
    assert spec.eta[A] == RatFun(t)


def test_untwisted_bundle_is_homogeneous_in_tangents():
    for variety in (circle, cusp):
        prol = twisted_bundle(variety, DerSpec())
        zeroed = {partner_var(v): Poly.zero() for v in variety.variables}
        for eq in prol.equations:
            assert eq.substitute(zeroed) == Poly.zero()


def test_generic_point_of_hypersurface_has_tangent_dimension_n_minus_1():
    rng = random.Random(404)
    for _ in range(10):
        n = rng.randint(2, 4)
        trans = [JetVar(f"t{i}") for i in range(1, n)]
        ambient = [JetVar(f"x{i}") for i in range(1, n + 1)]
        h = rand_poly(rng, trans, max_degree=2)
        tdeg = h.deg_in(trans[0])
        if tdeg % 2 == 0:
            h = h + Poly.variable(trans[0]) ** (tdeg + 1)
        minpoly = c * c - h
        tower = Tower(trans, {}).extend(minpoly, C)
        gen_poly = minpoly.substitute({C: Poly.variable(ambient[-1])}).substitute(
            {trans[i - 1]: Poly.variable(ambient[i - 1]) for i in range(1, n)}
        )
        variety = VarietyPresentation(tuple(ambient), (gen_poly,))
        point = tuple(RatFun.variable(v) for v in trans) + (RatFun.variable(C),)
        space = tangent_space_at(variety, DerSpec(), point, tower=tower)
        assert space.dimension == n - 1


def test_extend_at_point_random_hypersurfaces():
    rng = random.Random(2024)
    for _ in range(12):
        n = rng.randint(2, 3)
        coords = [JetVar(f"t{i}") for i in range(1, n)] + [C]
        ambient = [JetVar(f"x{i}") for i in range(1, n + 1)]
        # odd degree in t1 keeps the defining polynomial irreducible
        h = rand_poly(rng, [JetVar(f"t{i}") for i in range(1, n)], max_degree=2)
        tdeg = h.deg_in(JetVar("t1"))
        if tdeg % 2 == 0:
            h = h + Poly.variable(JetVar("t1")) ** (tdeg + 1)
        minpoly = c * c - h
        tower = Tower([JetVar(f"t{i}") for i in range(1, n)], {}).extend(minpoly, C)

        subst = {JetVar(f"x{i}"): Poly.variable(coords[i - 1]) for i in range(1, n + 1)}
        gen_poly = minpoly.substitute({C: Poly.variable(ambient[-1])})
        gen_poly = gen_poly.substitute(
            {JetVar(f"t{i}"): Poly.variable(ambient[i - 1]) for i in range(1, n)}
        )
        variety = VarietyPresentation(tuple(ambient), (gen_poly,))

        tangent = [RatFun.const(rng.randint(-3, 3)) for _ in range(n - 1)]
        sep = 2 * c
        total = Poly.zero()
        for i in range(1, n):
            total = total + gen_poly.partial(ambient[i - 1]).substitute(subst) * tangent[i - 1].num
        last = RatFun(-total, sep)
        spec = extend_at_point(variety, DerSpec(), tower, tuple(coords), tuple(tangent) + (last,))
        for g in variety.gens:
            value = apply_derivation(RatFun(g.substitute(subst)), spec)
            assert tower.is_zero(value)
