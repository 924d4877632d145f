"""Jobs that enter through the library, where the CLI has no entry point.

Each function takes the JSON arguments a job carries and returns the text
that is its output; the text is what the checks and the byte-identity
comparison between rounds look at.  Functions are looked up on their
modules at call time (``parsing.parse_poly``, ``diffalg.oracle_eval``), so
that the traced pass, which rebinds module attributes, sees these calls.
"""

from __future__ import annotations

import diffalg
from diffalg import DiffModel, DerSpec, JetVar, Tower, VarietyPresentation, parsing
from diffalg.monoid import FREE


def _tower(param: str, eta: str, gen: str, minpoly: str) -> Tower:
    t = JetVar(param)
    return Tower([t], {t: parsing.parse_poly(eta)}).extend(parsing.parse_poly(minpoly), gen)


def oracle(param, eta, gen, minpoly, term, sigma) -> str:
    """Literal evaluation of a term in the one-derivation model of a tower."""
    model = DiffModel([_tower(param, eta, gen, minpoly)])
    binding = {name: parsing.parse_expression(text) for name, text in sigma.items()}
    return str(diffalg.oracle_eval(parsing.parse_term(term), model, binding, FREE))


def tower_ops(param, eta, gen, minpoly, element) -> str:
    """Extend, then derive, invert and reduce one element of the tower."""
    tower = _tower(param, eta, gen, minpoly)
    x = parsing.parse_expression(element)
    lines = [
        f"dvalue: {tower.derspec().images[JetVar(gen)]}",
        f"apply: {tower.apply(x)}",
        f"invert: {tower.invert(x)}",
        f"cube: {tower.reduce(x * x * x)}",
    ]
    return "\n".join(lines)


def circle_extension(slope) -> str:
    """Move the generic point (s, c) of the unit circle with speed `slope` in s."""
    circle = VarietyPresentation((JetVar("x"), JetVar("y")), (parsing.parse_poly("x^2 + y^2 - 1"),))
    tower = Tower([JetVar("s")]).extend(parsing.parse_poly("c^2 + s^2 - 1"), "c")
    tangent = (parsing.parse_expression(slope), parsing.parse_expression(f"-({slope})*s/c"))
    return str(diffalg.extend_at_point(circle, DerSpec(), tower, ("s", "c"), tangent))
