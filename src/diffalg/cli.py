"""Command-line front end.

Subcommands: derive, jet, config-check, config-g, prolong, axiom-wide,
dim-cert.  Exit codes: 0 on success, 1 on a domain error, 2 on a parse
error.  Output is deterministic for fixed inputs; `--json` switches the
text reports to schema-stable JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .axioms import triangular_dimension_certificate, wide_from_deep
from .derivation import apply_derivation
from .errors import EngineError, ParseError
from .jet import rewrite_atom, rewrite_term
from .monoid import COMMUTATIVE, FREE
from .parsing import (
    parse_config,
    parse_definable_json,
    parse_derspec,
    parse_expression,
    parse_index_text,
    parse_term,
    parse_term_atom,
    parse_triangular,
    parse_variety,
)
from .prolong import VarietyPresentation, tangent_space_at, twisted_bundle

_MODES = {"comm": COMMUTATIVE, "free": FREE}


def _emit(payload: dict, text: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(text)


def _cmd_derive(args) -> int:
    value = parse_expression(args.expr, _MODES[args.mode], args.k)
    spec = parse_derspec(args.spec, _MODES[args.mode], args.k)
    result = apply_derivation(value, spec)
    _emit({"input": str(value), "derivative": str(result)}, str(result), args.json)
    return 0


def _cmd_jet(args) -> int:
    mode = _MODES[args.mode]
    eta = parse_derspec("eta: " + args.eta, mode, args.k).eta if args.eta else None
    if "=" in args.term:
        lhs, rel, rhs = parse_term_atom(args.term)
        atom = rewrite_atom(lhs, rel, rhs, mode, eta, args.k)
        _emit({"poly": str(atom.poly), "rel": atom.rel}, str(atom), args.json)
        return 0
    term = parse_term(args.term)
    value = rewrite_term(term, mode, eta, args.k)
    _emit({"poly": str(value)}, str(value), args.json)
    return 0


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _cmd_config_check(args) -> int:
    cfg = parse_config(_read(args.file))
    rng = random.Random(args.seed)
    local = cfg.check_local(rng)
    reports = [local]
    if args.global_degree is not None:
        reports.append(cfg.verify_global(args.global_degree, rng))
    payload = {"reports": [r.to_dict() for r in reports]}
    lines = []
    for report in reports:
        lines.append(f"{report.kind}: {'commutes' if report.commutes else 'violation'}")
        for check in report.checks:
            if check.trivial:
                continue
            line = f"  alpha={check.alpha}: {check.status}"
            if check.reduced_difference is not None:
                line += f"  difference={check.reduced_difference}"
            lines.append(line)
    _emit(payload, "\n".join(lines), args.json)
    return 0


def _cmd_config_g(args) -> int:
    cfg = parse_config(_read(args.file))
    if args.word is not None or args.leader is not None:
        if args.word is None or args.leader is None:
            raise EngineError("--word and --leader must be given together")
        if args.alpha is not None:
            raise EngineError("give an exponent monomial or --word with --leader, not both")
        word = parse_index_text(args.word, FREE, cfg.k)
        leader = parse_index_text(args.leader, COMMUTATIVE, cfg.k)
        g = cfg.compute_f(word, leader)
    elif args.alpha is None:
        raise EngineError("give an exponent monomial, or --word together with --leader")
    else:
        alpha = parse_index_text(args.alpha, COMMUTATIVE, cfg.k)
        g = cfg.f_at(alpha)
    witness = g.witness if isinstance(g.witness, str) else f"word {g.witness[0]}, leader {g.witness[1]}"
    _emit({"value": str(g.value), "witness": witness}, f"{g.value}\n  ({witness})", args.json)
    return 0


def _cmd_prolong(args) -> int:
    data = parse_variety(_read(args.file))
    variety = VarietyPresentation(data.variables, data.gens)
    bundle = twisted_bundle(variety, data.spec)
    payload = {
        "variables": [str(v) for v in variety.variables],
        "tangent_variables": [str(v) for v in bundle.tangent_vars()],
        "equations": [str(eq) for eq in bundle.equations],
    }
    point = data.point
    if args.point is not None:
        point = tuple(parse_expression(part.strip()) for part in args.point.split(","))
    if point is not None:
        space = tangent_space_at(variety, data.spec, point)
        payload["tangent_space"] = {
            "rank": space.rank,
            "dimension": space.dimension,
            "consistent": space.consistent,
            "particular": [str(x) for x in space.particular] if space.particular else None,
            "kernel": [[str(x) for x in vec] for vec in space.kernel],
        }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _cmd_axiom_wide(args) -> int:
    deep = parse_definable_json(_read(args.file))
    result = wide_from_deep(deep, args.n)
    payload = {
        "wide": result.wide.to_dict(),
        "x": [str(v) for v in result.x_vars],
        "y": [str(v) for v in result.y_vars],
        "projection_note": result.projection_note,
        "jet_recovery": [[str(a), str(b)] for a, b in result.jet_recovery],
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _cmd_dim_cert(args) -> int:
    system = parse_triangular(_read(args.file))
    cert = triangular_dimension_certificate(system)
    text = f"dimension {cert.free_count}; solve order: " + ", ".join(str(v) for v in cert.solve_order)
    _emit(cert.to_dict(), text, args.json)
    return 0


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diffalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mode=True):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if mode:
            p.add_argument("--mode", choices=["comm", "free"], default="comm")
            p.add_argument("--k", type=int, default=None, help="number of derivations (inferred if omitted)")

    p = sub.add_parser("derive", help="apply a derivation to an expression")
    p.add_argument("expr")
    p.add_argument("--spec", required=True, help="derivation spec, e.g. 'eta: t -> 1; d: x -> u'")
    common(p)
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("jet", help="rewrite a differential term or atom into jet variables")
    p.add_argument("term")
    p.add_argument("--eta", default=None, help="parameter table, e.g. 't -> 1, c -> 0'")
    common(p)
    p.set_defaults(handler=_cmd_jet)

    p = sub.add_parser("config-check", help="check commutation of a configuration file")
    p.add_argument("file")
    p.add_argument("--global-degree", type=int, default=None, help="also verify up to this total degree")
    p.add_argument(
        "--jobs", type=int, default=1, help="accepted for compatibility; the checks run one after another"
    )
    p.add_argument("--seed", type=int, default=2025)
    common(p, mode=False)
    p.set_defaults(handler=_cmd_config_check)

    p = sub.add_parser("config-g", help="print the canonical jet function of a configuration")
    p.add_argument("file")
    p.add_argument("alpha", nargs="?", default=None, help="an exponent monomial, e.g. 'd1 d2'")
    p.add_argument("--word", default=None, help="a derivation word, e.g. 'd2 d1'")
    p.add_argument("--leader", default=None, help="the leader the word acts on")
    common(p, mode=False)
    p.set_defaults(handler=_cmd_config_g)

    p = sub.add_parser("prolong", help="twisted tangent bundle of a variety file")
    p.add_argument("file")
    p.add_argument("--point", default=None, help="comma-separated coordinates")
    p.set_defaults(handler=_cmd_prolong)

    p = sub.add_parser("axiom-wide", help="one-step encoding of a jet-style definable set")
    p.add_argument("file", help="definable-set description (JSON)")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_axiom_wide)

    p = sub.add_parser("dim-cert", help="dimension certificate of a triangular system")
    p.add_argument("file")
    common(p, mode=False)
    p.set_defaults(handler=_cmd_dim_cert)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "k", None) is not None and args.k < 1:
            raise EngineError("k must be at least 1")
        return args.handler(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (EngineError, ZeroDivisionError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # the contract is exit codes, not tracebacks
        print(f"internal error: {err!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
