"""Exact symbolic differential algebra: jets, derivations, configurations.

The package works over Q throughout (int coefficients, fractions.Fraction
where not integral); no floating point anywhere.  Modules:

- monoid: words / exponent tuples over derivation generators, their orders
- algebra: sparse polynomials, rational functions, pseudo-division, exact
  affine solving
- derivation: twisted lifts, derivation application, algebraic towers
- jet: differential-term rewriting and the concrete model oracle
- config: commuting-derivation configurations and their commutation checks
- prolong: twisted tangent bundles, tangent ranks, derivation extension
- axioms: definable-set transforms and triangular dimension certificates
- parsing, cli: text formats and the `diffalg` command
"""

from .algebra import AffineSpace, JetVar, Monomial, Poly, RatFun, pseudo_remainder, solve_affine, var
from .config import Configuration
from .derivation import (
    DerSpec,
    Tower,
    apply_derivation,
    coeff_derivative,
    extend_to_algebraic,
    implicit_delta,
    twisted_lift,
)
from .jet import DiffModel, DiffTerm, JetAtom, oracle_eval, rewrite_atom, rewrite_term
from .monoid import InitialSet, MonoidElem, gamma_ball, leq_total, minimal_leaders, theta_ball
from .prolong import VarietyPresentation, extend_at_point, reg_rank_at, tangent_space_at, twisted_bundle
from .axioms import (
    DefinableSetDesc,
    TriangularSystem,
    nc_normalize,
    triangular_dimension_certificate,
    wide_from_deep,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSpace",
    "Configuration",
    "DefinableSetDesc",
    "DerSpec",
    "DiffModel",
    "DiffTerm",
    "InitialSet",
    "JetAtom",
    "JetVar",
    "MonoidElem",
    "Monomial",
    "Poly",
    "RatFun",
    "Tower",
    "TriangularSystem",
    "VarietyPresentation",
    "apply_derivation",
    "coeff_derivative",
    "extend_at_point",
    "extend_to_algebraic",
    "gamma_ball",
    "implicit_delta",
    "leq_total",
    "minimal_leaders",
    "nc_normalize",
    "oracle_eval",
    "pseudo_remainder",
    "reg_rank_at",
    "rewrite_atom",
    "rewrite_term",
    "solve_affine",
    "tangent_space_at",
    "theta_ball",
    "triangular_dimension_certificate",
    "twisted_bundle",
    "twisted_lift",
    "var",
    "__version__",
]
