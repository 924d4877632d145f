#!/usr/bin/env python3
"""Time four polynomial kernels on the operands of one benchmark round.

Runs every job of one workload and seed once, in this process, through
perfbench/workloads.py (as scripts/job_outputs.py does), and records the
operands of four kernels as the jobs call them:

- `Poly.__mul__`: both operands of every product;
- `FactorBase.derive`: the base, the value, the images the call asks for
  and the memo as the call found it (a derive made inside another is part
  of that call, not a call of its own);
- `Poly.__str__`: every polynomial printed;
- `Poly.substitute`: the polynomial and a copy of the binding as the call
  found it (witness sampling fills in its point after the calls it makes).

Then it replays each kernel's calls --repeats times and prints, per kernel,
the number of calls and the median time of one replay of all of them, in
reference milliseconds: as in the benchmark and scripts/profile_jobs.py, a
time is scaled by R0/R, where R is the duration of the fixed loop of
perfbench/refloop.py timed in the same process twice before and twice
after that kernel's replays.  The engine is imported from PYTHONPATH, so two
checkouts are compared on the same jobs by running the script twice:

    PYTHONPATH=src python3 scripts/kernel_bench.py --workload calculus-mix --seed 1
    PYTHONPATH=../parent/src python3 scripts/kernel_bench.py --workload calculus-mix --seed 1

--json prints {"kernel": {"calls": n, "median_ms": t}} instead of the table.
"""

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time

from job_outputs import run_job, workloads
from refloop import R0, time_reference


def record(jobs: list[dict]) -> dict[str, list]:
    """Run the jobs once with the four kernels wrapped; their calls, in order."""
    from diffalg.algebra import FactorBase, Poly

    calls: dict[str, list] = {"Poly.__mul__": [], "FactorBase.derive": [], "Poly.__str__": [], "Poly.substitute": []}
    mul, derive, text, substitute = Poly.__mul__, FactorBase.derive, Poly.__str__, Poly.substitute
    inside = []

    def recorded_mul(self, other):
        calls["Poly.__mul__"].append((self, other))
        return mul(self, other)

    def recorded_derive(self, f, image, memo):
        if inside:
            return derive(self, f, image, memo)
        asked, found = {}, dict(memo)

        def seen(v):
            asked[v] = out = image(v)
            return out

        inside.append(True)
        try:
            return derive(self, f, seen, memo)
        finally:
            inside.pop()
            calls["FactorBase.derive"].append((self, f, asked, found))

    def recorded_str(self):
        calls["Poly.__str__"].append(self)
        return text(self)

    def recorded_substitute(self, binding):
        calls["Poly.substitute"].append((self, dict(binding)))
        return substitute(self, binding)

    Poly.__mul__, FactorBase.derive = recorded_mul, recorded_derive
    Poly.__str__, Poly.substitute = recorded_str, recorded_substitute
    try:
        for job in jobs:
            run_job(job)
    finally:
        Poly.__mul__, FactorBase.derive, Poly.__str__, Poly.substitute = mul, derive, text, substitute
    return calls


def fresh(p):
    """A copy of the polynomial p whose monomials are new objects, so that
    nothing one of them computed on an earlier call is read again; other
    operands as they are.  `type(m)(m)` builds a new monomial of m's type."""
    from diffalg.algebra import Poly

    return Poly({type(m)(m): c for m, c in p.terms.items()}) if isinstance(p, Poly) else p


def fresh_derive(base, f, asked, found):
    """The operands of one derive call over a fresh copy of its base."""
    from diffalg.algebra import FactorBase, fraction

    copy = FactorBase([fresh(b) for b in base.factors])

    def over(x):
        return None if x is None else fraction(fresh(x.numer), copy, x.exps)

    return copy, over(f), {v: over(x) for v, x in asked.items()}, {j: over(x) for j, x in found.items()}


def replays(calls: dict[str, list]) -> dict:
    """Per kernel, (prepare, run): prepare() copies the recorded operands
    afresh, and run(operands) makes every call once on them."""
    from diffalg.algebra import FactorBase, Poly

    mul, derive, text, substitute = Poly.__mul__, FactorBase.derive, Poly.__str__, Poly.substitute

    def products(operands):
        for a, b in operands:
            mul(a, b)

    def derivations(operands):
        for base, f, asked, found in operands:
            derive(base, f, asked.get, found)

    def printing(operands):
        for p in operands:
            text(p)

    def substitutions(operands):
        for p, binding in operands:
            substitute(p, binding)

    return {
        "Poly.__mul__": (lambda: [(fresh(a), fresh(b)) for a, b in calls["Poly.__mul__"]], products),
        "FactorBase.derive": (lambda: [fresh_derive(*call) for call in calls["FactorBase.derive"]], derivations),
        "Poly.__str__": (lambda: [fresh(p) for p in calls["Poly.__str__"]], printing),
        "Poly.substitute": (
            lambda: [(fresh(p), {v: fresh(x) for v, x in b.items()}) for p, b in calls["Poly.substitute"]],
            substitutions,
        ),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=41)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    workdir = tempfile.mkdtemp(prefix="kernel-bench-")
    try:
        calls = record(workloads.make_jobs(args.workload, args.seed, workdir))
    finally:
        shutil.rmtree(workdir)
    table = {}
    for name, (prepare, run) in replays(calls).items():
        run(prepare())  # once untimed
        refs, runs = [time_reference(), time_reference()], []
        for _ in range(args.repeats):
            operands = prepare()
            start = time.perf_counter()
            run(operands)
            runs.append(time.perf_counter() - start)
        refs += [time_reference(), time_reference()]
        scaled = statistics.median(runs) * R0 / statistics.fmean(refs)
        table[name] = {"calls": len(calls[name]), "median_ms": round(1000 * scaled, 4)}
    if args.json:
        print(json.dumps(table, indent=1))
        return 0
    print(f"{args.workload}, seed {args.seed}: median reference ms of {args.repeats} replays")
    print(f"  {'kernel':<18} {'calls':>6} {'ms':>9}")
    for name, row in table.items():
        print(f"  {name:<18} {row['calls']:>6} {row['median_ms']:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
