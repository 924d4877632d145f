#!/usr/bin/env python3
"""Stress the jet rewriting against the concrete differential field.

Draws random differential terms, rewrites them into jet polynomials, binds
the jet variables to literal iterated derivatives in Q(t) with d1 = d/dt and
d2 = 2 d/dt, and compares with direct evaluation.  Any mismatch is printed.

    python3 scripts/jet_oracle_experiment.py --count 200 --depth 5 --seed 3
"""

import argparse
import random
import time
from fractions import Fraction

from diffalg.algebra import JetVar, Poly, RatFun, var
from diffalg.jet import (
    DiffModel,
    TAdd,
    TConst,
    TDer,
    TMul,
    TNeg,
    TVar,
    jet_binding,
    oracle_eval,
    rewrite_term,
    term_str,
)
from diffalg.monoid import COMMUTATIVE


def rand_term(rng, depth, k=2):
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.45:
            return TVar(rng.choice(("x", "y")))
        if roll < 0.6:
            return TVar("t")
        return TConst(Fraction(rng.randint(-3, 3)))
    roll = rng.random()
    if roll < 0.32:
        return TAdd(rand_term(rng, depth - 1, k), rand_term(rng, depth - 1, k))
    if roll < 0.62:
        return TMul(rand_term(rng, depth - 1, k), rand_term(rng, depth - 1, k))
    if roll < 0.75:
        return TNeg(rand_term(rng, depth - 1, k))
    return TDer(rng.randint(1, k), rand_term(rng, depth - 1, k))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--depth", type=int, default=5)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()

    t = var("t")
    model = DiffModel.on_parameters(
        [JetVar("t")], [{JetVar("t"): Poly.const(1)}, {JetVar("t"): Poly.const(2)}]
    )
    sigma = {"x": RatFun(t * t), "y": RatFun(t + 1, t), "t": RatFun(t)}

    rng = random.Random(args.seed)
    mismatches = 0
    largest = 0
    started = time.monotonic()
    for _ in range(args.count):
        term = rand_term(rng, args.depth)
        jetpoly = rewrite_term(term, COMMUTATIVE, k=2)
        largest = max(largest, len(getattr(jetpoly, "terms", {})))
        binding = jet_binding(model, sigma, sorted(jetpoly.variables()))
        via_jets = jetpoly.evaluate(binding)
        direct = oracle_eval(term, model, sigma, mode=COMMUTATIVE)
        if not model.equal(via_jets, direct):
            mismatches += 1
            print(f"MISMATCH: {term_str(term)}")
    elapsed = time.monotonic() - started

    print(f"terms checked : {args.count}")
    print(f"mismatches    : {mismatches}")
    print(f"largest jet   : {largest} monomials")
    print(f"elapsed       : {elapsed:.2f}s")


if __name__ == "__main__":
    main()
