"""Correctness checks of job outputs, made apart from the program with SymPy.

Nothing here imports ``diffalg``.  Every check re-derives what the output
must be from the job's own inputs (relation texts, terms, generators) and
raises ``CheckError`` when the program's output disagrees.  The checks run
once per benchmark run, outside the timed rounds, on the first round's
outputs; every later round must reproduce those outputs byte for byte.
"""

from __future__ import annotations

import itertools
import json
import re

import sympy

_JET = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)\[([^\]]*)\]")


class CheckError(AssertionError):
    """An output that contradicts what its inputs imply."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ----------------------------------------------------------------------
# text -> sympy


def exponents(index_text: str, k: int) -> tuple[int, ...]:
    """`0`, `d1`, `d1^2 d2` -> exponent tuples of length k."""
    out = [0] * k
    text = index_text.strip()
    if text == "0":
        return tuple(out)
    for part in text.split():
        m = re.fullmatch(r"d(\d+)(?:\^(\d+))?", part)
        if not m:
            raise CheckError(f"bad index {index_text!r}")
        out[int(m.group(1)) - 1] += int(m.group(2) or 1)
    return tuple(out)


def jet_symbol(base: str, exps: tuple[int, ...]) -> sympy.Symbol:
    return sympy.Symbol(f"{base}__" + "_".join(map(str, exps)))


def jet_index(symbol: sympy.Symbol):
    """(base, exponents) of a jet symbol, or None for a plain variable."""
    if "__" not in symbol.name:
        return None
    base, rest = symbol.name.split("__", 1)
    return base, tuple(int(e) for e in rest.split("_"))


def parse_text(text: str, functions=None) -> sympy.Expr:
    """Parse `^`-power text; every identifier is a plain symbol (so `E`, `I`
    or `S` never turn into SymPy constants) unless `functions` names it."""
    names = {name: sympy.Symbol(name) for name in re.findall(r"[A-Za-z_][A-Za-z_0-9]*", text)}
    names.update(functions or {})
    try:
        return sympy.sympify(text.replace("^", "**"), locals=names)
    except (sympy.SympifyError, SyntaxError, TypeError) as exc:
        raise CheckError(f"unparsable text {text!r}: {exc}") from None


def to_sympy(text: str, k: int = 2) -> sympy.Expr:
    """Parse the engine's printed polynomials and fractions."""
    return parse_text(_JET.sub(lambda m: jet_symbol(m.group(1), exponents(m.group(2), k)).name, text))


def _is_zero(expr) -> bool:
    return sympy.cancel(sympy.together(expr)) == 0


def _zero_mod(expr, modulus, gen) -> bool:
    """expr vanishes where modulus does (numerator pseudo-reduced by it)."""
    num = sympy.numer(sympy.together(sympy.expand(expr)))
    num = sympy.expand(num)
    if num == 0:
        return True
    if sympy.degree(num, gen) >= sympy.degree(modulus, gen):
        num = sympy.prem(num, modulus, gen)
    return sympy.expand(num) == 0


# ----------------------------------------------------------------------
# configurations: verdicts, witness points, f values


class Locus:
    """The derivations a configuration forces, by implicit differentiation."""

    def __init__(self, k: int, leaders, relations):
        self.k = k
        self.leaders = [exponents(pi, k) for pi in leaders]
        self.relations = {exponents(pi, k): to_sympy(text, k) for pi, text in relations.items()}
        self._values: dict[tuple[int, ...], sympy.Expr] = {}

    def is_free(self, e) -> bool:
        return not any(all(a <= b for a, b in zip(pi, e)) for pi in self.leaders)

    def _shift(self, e, i):
        return tuple(v + (j == i) for j, v in enumerate(e))

    def value(self, e) -> sympy.Expr:
        """The jet coordinate x_e as a function on the locus."""
        if self.is_free(e) or e in self.relations:
            return jet_symbol("x", e)
        if e not in self._values:
            for i in range(self.k):
                if e[i] == 0:
                    continue
                lower = tuple(v - (j == i) for j, v in enumerate(e))
                if lower in self.relations:
                    self._values[e] = self._implicit(lower, i)
                    break
                if not self.is_free(lower):
                    self._values[e] = self.derive(i, self.value(lower))
                    break
        return self._values[e]

    def _implicit(self, pi, i) -> sympy.Expr:
        p = self.relations[pi]
        lead = jet_symbol("x", pi)
        rest = sum(
            sympy.diff(p, s) * self.value(self._shift(jet_index(s)[1], i))
            for s in p.free_symbols
            if s != lead
        )
        return sympy.cancel(-rest / sympy.diff(p, lead))

    def derive(self, i, expr) -> sympy.Expr:
        out = sum(
            sympy.diff(expr, s) * self.value(self._shift(jet_index(s)[1], i)) for s in expr.free_symbols
        )
        return sympy.cancel(out)

    def zero_on_locus(self, expr) -> bool:
        num = sympy.expand(sympy.numer(sympy.together(expr)))
        for pi in sorted(self.relations, key=lambda e: (sum(e), [-v for v in e]), reverse=True):
            lead = jet_symbol("x", pi)
            if num != 0 and sympy.degree(num, lead) >= sympy.degree(self.relations[pi], lead):
                num = sympy.expand(sympy.prem(num, self.relations[pi], lead))
        return num == 0


def check_verdict(job: dict, out: str) -> None:
    spec = job["check"]
    try:
        reports = json.loads(out)["reports"]
    except (ValueError, KeyError) as exc:
        raise CheckError(f"config-check output is not its JSON report: {exc}") from None
    _require([r["kind"] for r in reports] == ["local", "global"], "expected a local and a global report")
    locus = Locus(spec["k"], spec["leaders"], spec["relations"])
    for report in reports:
        statuses = [c["status"] for c in report["checks"]]
        _require(report["commutes"] == all(s == "commutes" for s in statuses), "verdict contradicts its checks")
        if spec["expect"] == "commutes":
            _require(report["commutes"], f"{report['kind']}: a commuting construction reported a violation")
            continue
        _require(not report["commutes"], f"{report['kind']}: the failing pair reported commutation")
        first = next(c for c in report["checks"] if c["status"] != "commutes")
        _require(first["alpha"] == "d1 d2", f"{report['kind']}: first failure at {first['alpha']}, not d1 d2")
        for check in report["checks"]:
            if "point" in check:
                _check_point(locus, check["point"])
            elif check["status"] == "violation":
                raise CheckError(f"violation at {check['alpha']} without a point")


def _check_point(locus: Locus, point: dict) -> None:
    values = {to_sympy(name, locus.k): sympy.Rational(value) for name, value in point.items()}
    for pi, p in locus.relations.items():
        lead = jet_symbol("x", pi)
        _require(p.subs(values) == 0, f"witness point misses the relation for {pi}")
        _require(sympy.diff(p, lead).subs(values) != 0, f"separant for {pi} vanishes at the witness point")


def check_f(job: dict, out: str) -> None:
    spec = job["check"]
    locus = Locus(spec["k"], spec["leaders"], spec["relations"])
    got = to_sympy(out.split("\n", 1)[0], spec["k"])
    want = locus.value(exponents(spec["alpha"], spec["k"]))
    _require(locus.zero_on_locus(got - want), f"f at {spec['alpha']} differs from implicit differentiation")


# ----------------------------------------------------------------------
# calculus: jets, derive, prolong, dim-cert, axiom-wide


def _apply_term(text: str, derive, leaf) -> sympy.Expr:
    """Evaluate a differential term: `leaf(symbol)` for its variables and
    `derive(i, value)` for each di."""
    tree = parse_text(text, {f"d{i}": sympy.Function(f"d{i}") for i in range(1, 10)})

    def walk(node):
        if isinstance(node, sympy.core.function.AppliedUndef):
            return derive(int(node.func.__name__[1:]), walk(node.args[0]))
        if isinstance(node, sympy.Symbol):
            return leaf(node)
        if not node.args:
            return node
        return node.func(*[walk(a) for a in node.args])

    return sympy.expand(walk(tree))


def check_jet(job: dict, out: str) -> None:
    spec = job["check"]
    k = spec["k"]
    eta = {sympy.Symbol(v): parse_text(e) for v, e in spec["eta"].items()}

    def derive(i, expr):
        total = 0
        for s in expr.free_symbols:
            if s in eta:
                total += sympy.diff(expr, s) * eta[s]
            else:
                base, e = jet_index(s)
                total += sympy.diff(expr, s) * jet_symbol(base, tuple(v + (j == i - 1) for j, v in enumerate(e)))
        return sympy.expand(total)

    want = _apply_term(spec["term"], derive, lambda s: s if s in eta else jet_symbol(s.name, (0,) * k))
    got = to_sympy(out.strip(), k)
    _require(sympy.expand(got - want) == 0, "jet rewriting differs from total differentiation")


def check_derive(job: dict, out: str) -> None:
    spec = job["check"]
    expr = parse_text(spec["expr"])
    table = {**spec["eta"], **spec["images"]}
    want = sum(sympy.diff(expr, sympy.Symbol(v)) * parse_text(img) for v, img in table.items())
    _require(_is_zero(to_sympy(out.strip()) - want), "derivative differs from the chain rule")


def check_prolong(job: dict, out: str) -> None:
    spec = job["check"]
    data = json.loads(out)
    xs = [sympy.Symbol(v) for v in spec["vars"]]
    ys = [sympy.Symbol(f"y_{v}") for v in spec["vars"]]
    gens = [parse_text(g) for g in spec["gens"]]
    eta = {sympy.Symbol(v): parse_text(e) for v, e in spec["eta"].items()}
    _require(data["tangent_variables"] == [str(y) for y in ys], "wrong tangent variables")
    for text, g in zip(data["equations"], gens):
        lift = sum(sympy.diff(g, x) * y for x, y in zip(xs, ys)) + sum(sympy.diff(g, c) * e for c, e in eta.items())
        _require(_is_zero(to_sympy(text) - lift), f"twisted lift of {g} is wrong")
    point = dict(zip(xs, (parse_text(p) for p in spec["point"])))
    for g in gens:
        _require(_is_zero(g.subs(point)), "the job's point is not on the variety")
    jac = sympy.Matrix([[sympy.diff(g, x).subs(point) for x in xs] for g in gens])
    space = data["tangent_space"]
    rank = jac.rank(simplify=True)
    _require(space["rank"] == rank, f"tangent rank {space['rank']}, SymPy Jacobian rank {rank}")
    _require(space["dimension"] == len(xs) - rank, "tangent dimension is not n - rank")
    const = [sum(sympy.diff(g, c) * e for c, e in eta.items()).subs(point) for g in gens]
    if space["particular"] is not None:
        sol = sympy.Matrix([to_sympy(v) for v in space["particular"]])
        for row, c in zip((jac * sol), const):
            _require(_is_zero(row + c), "particular solution misses a fiber equation")
    for vec in space["kernel"]:
        for row in jac * sympy.Matrix([to_sympy(v) for v in vec]):
            _require(_is_zero(row), "kernel vector is not in the kernel")


def check_dimcert(job: dict, out: str) -> None:
    spec = job["check"]
    data = json.loads(out)
    ambient = spec["ambient"]
    mains = [m for m, _ in spec["equations"]]
    polys = [parse_text(p) for _, p in spec["equations"]]
    jac = sympy.Matrix([[sympy.diff(p, sympy.Symbol(m)) for m in mains] for p in polys])
    rank = jac.rank()
    _require(data["dimension"] == len(ambient) - rank, f"dimension {data['dimension']}, Jacobian gives {len(ambient) - rank}")
    _require(data["free"] == [v for v in ambient if v not in mains], "wrong free coordinates")
    _require(data["solve_order"] == sorted(mains, key=ambient.index), "wrong solve order")


def check_axiom(job: dict, out: str) -> None:
    spec = job["check"]
    n = spec["n"]
    data = json.loads(out)
    wide = data["wide"]
    _require(wide["projection"] == data["x"], "projection target is not the positions")
    deep_vars = [sympy.Symbol(v) for v in spec["desc"]["indices"]]
    deep = [(parse_text(a["poly"]), a["rel"]) for a in spec["desc"]["atoms"]]
    wide_vars = [sympy.Symbol(v) for v in wide["indices"]]
    _require([str(v) for v in wide_vars] == data["x"] + data["y"], "wide coordinates are not positions then velocities")
    shallow = [(to_sympy(a["poly"]), a["rel"]) for a in wide["atoms"]]

    def member(atoms, binding):
        for poly, rel in atoms:
            zero = poly.subs(binding) == 0
            if zero != (rel == "="):
                return False
        return True

    for z in itertools.product(range(-1, 3), repeat=n + 1):
        inside = member(deep, dict(zip(deep_vars, z)))
        encoded = list(z[:n]) + list(z[1:])
        _require(inside == member(shallow, dict(zip(wide_vars, encoded))), f"grid point {z} disagrees")


# ----------------------------------------------------------------------
# towers: oracle evaluation, tower operations, extension at a point


def _tower_parts(spec):
    t, c = sympy.Symbol(spec["param"]), sympy.Symbol(spec["gen"])
    m = parse_text(spec["minpoly"])
    eta = parse_text(spec["eta"])
    dc = sympy.cancel(-sympy.diff(m, t) * eta / sympy.diff(m, c))
    return t, c, m, lambda e: sympy.cancel(sympy.diff(e, t) * eta + sympy.diff(e, c) * dc), dc


def check_oracle(job: dict, out: str) -> None:
    spec = job["check"]
    t, c, m, derive, _ = _tower_parts(spec)
    sigma = {sympy.Symbol(v): parse_text(e) for v, e in spec["sigma"].items()}
    want = _apply_term(spec["term"], lambda i, e: derive(e), lambda s: sigma.get(s, s))
    _require(_zero_mod(to_sympy(out.strip()) - want, m, c), "oracle value differs from implicit differentiation")


def check_tower(job: dict, out: str) -> None:
    spec = job["check"]
    t, c, m, derive, dc = _tower_parts(spec)
    x = parse_text(spec["element"])
    lines = dict(line.split(": ", 1) for line in out.strip().split("\n"))
    _require(set(lines) == {"dvalue", "apply", "invert", "cube"}, "missing tower results")
    _require(_zero_mod(to_sympy(lines["dvalue"]) - dc, m, c), "forced derivative of the generator is wrong")
    _require(_zero_mod(to_sympy(lines["apply"]) - derive(x), m, c), "derivative of the element is wrong")
    _require(_zero_mod(to_sympy(lines["invert"]) * x - 1, m, c), "inverse times element is not 1")
    _require(_zero_mod(to_sympy(lines["cube"]) - x ** 3, m, c), "reduced cube is wrong")


def check_extension(job: dict, out: str) -> None:
    spec = job["check"]
    s, c = sympy.Symbol("s"), sympy.Symbol("c")
    circle = c ** 2 + s ** 2 - 1
    m = re.fullmatch(r"eta: s -> (.+); d: c -> (.+)", out.strip())
    _require(m is not None, f"unexpected extension output {out!r}")
    ds, dc = to_sympy(m.group(1)), to_sympy(m.group(2))
    _require(ds == parse_text(spec["slope"]), "s does not move at the prescribed speed")
    _require(_zero_mod(2 * s * ds + 2 * c * dc, circle, c), "the extension does not annihilate the circle")


CHECKS = {
    "verdict": check_verdict,
    "f": check_f,
    "jet": check_jet,
    "derive": check_derive,
    "prolong": check_prolong,
    "dimcert": check_dimcert,
    "axiom": check_axiom,
    "oracle": check_oracle,
    "tower": check_tower,
    "extension": check_extension,
}


def check_job(job: dict, out: str) -> None:
    """Raise CheckError unless `out` is a correct output of `job`."""
    CHECKS[job["check"]["kind"]](job, out)
