"""Seeded inputs for the three workloads.

A workload is a fixed list of jobs; one round runs every job once, in this
order, in a fresh process.  Every input is drawn from ``random.Random`` seeded
with the workload name and the benchmark seed, so the same seed gives the
same files and the same argument lists.  The coefficient ranges are kept
small and the shapes fixed, so that two seeds cost about the same: a seed
changes the numbers in the relations, never the structure of the work.

Each job is a plain dict:

``name``     unique within the workload
``family``   set on the jobs that come in a top/prev pair (growth per degree)
``level``    ``"top"`` (degree D or order n) or ``"prev"`` (D-1 or n-1)
``kind``     ``"cli"`` (``argv`` for ``diffalg.cli.main``) or ``"lib"``
             (``fn`` and ``args`` for a function in ``libjobs``)
``check``    what ``checks.check_job`` verifies about the output
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

WORKLOADS = ("cfg-linear", "cfg-separant", "calculus-mix")

# top degrees of the configuration families and top orders of the calculus
# families; every family also runs one step lower in the same round
SCALED_DEGREE = 5
COMMUTING_DEGREE = 7
SINGLE_DEGREE = 4
PAIR_DEGREE = 3
JET_ORDER = 6
ORACLE_ORDER = 4

# x[d1]^2 + a*x[0]*x[d1] + b in the failing pair has |a| = 3, b = -4: the
# discriminant 9*x[0]^2 + 16 is a square at 11 of the 39 sample points
# x[0] = p/q with |p| <= 6, q <= 3, so a witness turns up within a few draws.
# With |a| and b fixed, every seed makes the witness search equally long.
PAIR_A, PAIR_B = 3, -4


def _num(c) -> str:
    c = Fraction(c)
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def poly_text(terms) -> str:
    """Text of a sum of ``(coefficient, monomial text)`` pairs; '' marks 1."""
    out = []
    for coeff, mono in terms:
        coeff = Fraction(coeff)
        if coeff == 0:
            continue
        mag = abs(coeff)
        if not mono:
            body = _num(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_num(mag)}*{mono}"
        if not out:
            out.append(body if coeff > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(out) if out else "0"


def _nonzero(rng, lo, hi):
    return rng.choice([v for v in range(lo, hi + 1) if v != 0])


def _nest(letters, inner: str) -> str:
    """Apply d<letter> for each letter, the last letter outermost."""
    text = inner
    for letter in letters:
        text = f"d{letter}({text})"
    return text


def _config_text(k, leaders, relations) -> str:
    lines = [f"k = {k}", "P: " + ", ".join(leaders)]
    lines += [f"p[{pi}] = {rel}" for pi, rel in relations.items()]
    lines.append("eta: none")
    return "\n".join(lines) + "\n"


class _Inputs:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.rng = random.Random(f"{workload}/{seed}")
        self.workdir = workdir
        self.jobs: list[dict] = []

    def file(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def cli(self, name, argv, check, family=None, level=None):
        self.jobs.append(
            {"name": name, "family": family, "level": level, "kind": "cli", "argv": argv, "check": check}
        )

    def lib(self, name, fn, args, check, family=None, level=None):
        self.jobs.append(
            {"name": name, "family": family, "level": level, "kind": "lib", "fn": fn, "args": args, "check": check}
        )

    def config_family(self, family, relations, leaders, top, verdict, f_alphas=()):
        path = self.file(f"{family}.cfg", _config_text(2, leaders, relations))
        check = {"kind": "verdict", "expect": verdict, "k": 2, "leaders": leaders, "relations": relations}
        for level, degree in (("prev", top - 1), ("top", top)):
            argv = ["config-check", path, "--global-degree", str(degree), "--json"]
            self.cli(f"{family}-D{degree}", argv, check, family, level)
        for alpha in f_alphas:
            check_f = {"kind": "f", "k": 2, "leaders": leaders, "relations": relations, "alpha": alpha}
            self.cli(f"{family}-f-{alpha.replace(' ', '')}", ["config-g", path, alpha], check_f)


def _cfg_linear(b: _Inputs) -> None:
    rng = b.rng
    # the shape of scaled.cfg: x[d1] = q(x[0]) quadratic, x[d2] = c*q(x[0])
    a, s, c = rng.choice([1, 2, 3]), _nonzero(rng, -3, 3), rng.choice([-3, -2, 2, 3])
    q = [(a, "x[0]^2"), (s, "")]
    b.config_family(
        "scaled",
        {
            "d1": poly_text([(1, "x[d1]")] + [(-co, m) for co, m in q]),
            "d2": poly_text([(1, "x[d2]")] + [(-c * co, m) for co, m in q]),
        },
        ["d1", "d2"],
        SCALED_DEGREE,
        "commutes",
        f_alphas=("d1 d2", "d1^2 d2"),
    )
    # the shape of commuting.cfg: q linear, checked to a higher degree
    a, s, c = rng.choice([1, 2, 3]), _nonzero(rng, -2, 2), rng.choice([-3, -2, 2, 3])
    q = [(a, "x[0]"), (s, "")]
    b.config_family(
        "commuting",
        {
            "d1": poly_text([(1, "x[d1]")] + [(-co, m) for co, m in q]),
            "d2": poly_text([(1, "x[d2]")] + [(-c * co, m) for co, m in q]),
        },
        ["d1", "d2"],
        COMMUTING_DEGREE,
        "commutes",
        f_alphas=("d1 d2", "d1^2 d2"),
    )


def _cfg_separant(b: _Inputs) -> None:
    rng = b.rng
    # one leader: a singleton autoreduced set is coherent, so it commutes
    a, s = rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([-3, -2, -1, 1, 2, 3])
    b.config_family(
        "single",
        {"d1": poly_text([(1, "x[d1]^2"), (a, "x[0]*x[d1]"), (s, "")])},
        ["d1"],
        SINGLE_DEGREE,
        "commutes",
        f_alphas=("d1^2", "d1 d2", "d1^2 d2"),
    )
    # two leaders, x[d2] = q(x[0]) not proportional to x[d1]: fails at d1 d2
    a, s = PAIR_A * rng.choice([-1, 1]), PAIR_B
    e, g = rng.choice([1, 2, 3]), _nonzero(rng, -2, 2)
    b.config_family(
        "pair",
        {
            "d1": poly_text([(1, "x[d1]^2"), (a, "x[0]*x[d1]"), (s, "")]),
            "d2": poly_text([(1, "x[d2]"), (-e, "x[0]^2"), (-g, "")]),
        },
        ["d1", "d2"],
        PAIR_DEGREE,
        "fails at d1 d2",
    )


def _calculus_mix(b: _Inputs) -> None:
    rng = b.rng
    # jet rewriting of a term of derivative order n and of its inner n-1
    inner = poly_text(
        [(_nonzero(rng, -3, 3), "x*x*y"), (_nonzero(rng, -3, 3), "t*x*y"), (_nonzero(rng, -3, 3), "y*y")]
    )
    # the letters alternate, starting with d1 or d2: mirror images cost the same
    first = rng.choice([1, 2])
    letters = [first if i % 2 == 0 else 3 - first for i in range(JET_ORDER)]
    for level, n in (("prev", JET_ORDER - 1), ("top", JET_ORDER)):
        term = _nest(letters[:n], inner)
        check = {"kind": "jet", "term": term, "k": 2, "eta": {"t": "1"}}
        b.cli(f"jet-n{n}", ["jet", term, "--eta", "t -> 1", "--k", "2"], check, "jet", level)

    # a literal evaluation in the model Q(t)[c]/(c^2 - t - m), t' = 1
    m = rng.choice([2, 3])
    tower = {"param": "t", "eta": "1", "gen": "c", "minpoly": poly_text([(1, "c^2"), (-1, "t"), (-m, "")])}
    body = poly_text([(1, "x*x*x"), (_nonzero(rng, -3, 3), "x*t")])
    sigma = poly_text([(1, "c*t"), (_nonzero(rng, -2, 2), "")])
    for level, n in (("prev", ORACLE_ORDER - 1), ("top", ORACLE_ORDER)):
        term = _nest([1] * n, body)
        args = dict(tower, term=term, sigma={"x": sigma})
        b.lib(f"oracle-n{n}", "oracle", args, dict(args, kind="oracle"), "oracle", level)

    # many short calls, each once per round
    for i in range(3):
        expr = (
            f"({poly_text([(_nonzero(rng, -3, 3), 'x^2*y'), (_nonzero(rng, -3, 3), 't')])})"
            f" / ({poly_text([(1, 'x'), (_nonzero(rng, -3, 3), 't^2')])})"
        )
        check = {"kind": "derive", "expr": expr, "eta": {"t": "1"}, "images": {"x": "u", "y": "v"}}
        b.cli(f"derive-{i}", ["derive", expr, "--spec", "eta: t -> 1; d: x -> u, y -> v"], check)

    for i in range(2):
        a, s = _nonzero(rng, -3, 3), _nonzero(rng, -3, 3)
        gens = ["x*y - c", poly_text([(1, "z"), (-a, "x^2"), (-s, "y")])]
        point = ["c", "1", poly_text([(a, "c^2"), (s, "")])]
        text = "vars: x, y, z\nderivation: eta: c -> 1\n" + "\n".join(gens) + "\npoint: " + ", ".join(point) + "\n"
        path = b.file(f"variety-{i}.variety", text)
        check = {"kind": "prolong", "vars": ["x", "y", "z"], "gens": gens, "eta": {"c": "1"}, "point": point}
        b.cli(f"prolong-{i}", ["prolong", path], check)

    a, s = _nonzero(rng, -3, 3), _nonzero(rng, -3, 3)
    equations = [
        ("x1", poly_text([(1, "x1"), (-a, "x0^2")])),
        ("x2", poly_text([(1, "x2^2"), (-1, "x1"), (s, "x0")])),
        ("x3", poly_text([(1, "x3*x0"), (-1, "x2*x1"), (1, "")])),
    ]
    ambient = ["x0", "x1", "x2", "x3"]
    text = "ambient: " + ", ".join(ambient) + "\n" + "".join(f"{mv} : {p}\n" for mv, p in equations)
    path = b.file("system.tri", text)
    b.cli("dim-cert", ["dim-cert", path, "--json"], {"kind": "dimcert", "ambient": ambient, "equations": equations})

    n = 3
    atoms = [
        {"poly": poly_text([(1, "z4"), (_nonzero(rng, -2, 2), "z1*z2"), (-1, "z3")]), "rel": "="},
        {"poly": poly_text([(1, "z2"), (_nonzero(rng, -2, 2), "")]), "rel": "!="},
    ]
    desc = {"indices": ["z1", "z2", "z3", "z4"], "atoms": atoms, "projection": ["z1", "z2", "z3"]}
    path = b.file("deep.zjson", json.dumps(desc, indent=2) + "\n")
    b.cli("axiom-wide", ["axiom-wide", path, "--n", str(n)], {"kind": "axiom", "desc": desc, "n": n})

    element = poly_text([(1, "c*t"), (_nonzero(rng, -3, 3), "c"), (_nonzero(rng, -3, 3), "")])
    args = dict(tower, element=element)
    b.lib("tower-ops", "tower_ops", args, dict(args, kind="tower"))

    slope = _nonzero(rng, -3, 3)
    args = {"slope": str(slope)}
    b.lib("extend-at-point", "circle_extension", args, dict(args, kind="extension"))


_WORKLOAD_INPUTS = {"cfg-linear": _cfg_linear, "cfg-separant": _cfg_separant, "calculus-mix": _calculus_mix}


def make_jobs(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the workload's input files under ``workdir`` and return its jobs."""
    if workload not in _WORKLOAD_INPUTS:
        raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
    os.makedirs(workdir, exist_ok=True)
    inputs = _Inputs(workload, seed, workdir)
    _WORKLOAD_INPUTS[workload](inputs)
    return inputs.jobs
