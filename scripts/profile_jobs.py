#!/usr/bin/env python3
"""Time each job of a benchmark workload in forked rounds, and profile them.

Builds the jobs of one workload and seed through perfbench/workloads.py,
imports the engine once, and then forks one child per round, as the
benchmark's round server does, so no state carries over from one round to
the next.  Each of the R timed rounds runs every job once, in order; the
script prints each job's median time and the median round in reference
milliseconds: as in the benchmark, a time is scaled by R0/R, where R is the
duration of the fixed loop of perfbench/refloop.py timed in the same
process twice before and twice after the round.  Then R more forked rounds
run under cProfile, and the script prints the functions with the largest
self time over all of them, with their call counts.  Run it from the root of a checkout, with the engine on
PYTHONPATH:

    PYTHONPATH=src python3 scripts/profile_jobs.py --workload calculus-mix --seed 1 --rounds 5

Work done in C (hashing a frozenset, say) is not a call cProfile sees.
"""

import argparse
import cProfile
import json
import os
import pstats
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from job_outputs import run_job, workloads
from refloop import R0, time_reference


def in_child(work) -> None:
    """Run work() in a forked child and wait for it; it exits without cleanup."""
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            work()
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit("a forked round failed")


def timed_round(jobs: list[dict], path: str) -> None:
    refs = [time_reference(), time_reference()]
    times = {}
    for job in jobs:
        start = time.perf_counter()
        run_job(job)
        times[job["name"]] = time.perf_counter() - start
    refs += [time_reference(), time_reference()]
    scale = R0 / statistics.fmean(refs)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({name: t * scale for name, t in times.items()}, handle)


def profiled_round(jobs: list[dict], path: str) -> None:
    profiler = cProfile.Profile()
    profiler.enable()
    for job in jobs:
        run_job(job)
    profiler.disable()
    profiler.dump_stats(path)


def report(jobs: list[dict], rounds: list[dict], stats: pstats.Stats, top: int) -> None:
    print(f"median reference ms per job over {len(rounds)} forked rounds")
    width = max(len(job["name"]) for job in jobs)
    for job in jobs:
        print(f"  {job['name']:<{width}}  {1000 * statistics.median(r[job['name']] for r in rounds):9.3f}")
    print(f"  {'round':<{width}}  {1000 * statistics.median(sum(r.values()) for r in rounds):9.3f}")
    entries = sorted(stats.stats.items(), key=lambda item: item[1][2], reverse=True)
    total = sum(entry[2] for _, entry in entries)
    print(f"\ncProfile over {len(rounds)} forked rounds: top {top} by self time ({1000 * total:.1f} ms in all)")
    print(f"  {'calls':>8}  {'self_ms':>9}  {'share':>6}  function")
    for (filename, line, name), (_, calls, self_s, _, _) in entries[:top]:
        where = name if filename == "~" else f"{name} ({os.path.basename(filename)}:{line})"
        print(f"  {calls:>8}  {1000 * self_s:9.3f}  {100 * self_s / total:5.1f}%  {where}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--top", type=int, default=20)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    import diffalg.cli  # noqa: F401  loaded before the forks, as the round server does
    import libjobs  # noqa: F401

    workdir = tempfile.mkdtemp(prefix="profile-jobs-")
    try:
        jobs = workloads.make_jobs(args.workload, args.seed, workdir)
        paths = [os.path.join(workdir, f"round-{i}") for i in range(2 * args.rounds)]
        for path in paths[: args.rounds]:
            in_child(lambda: timed_round(jobs, path))
        for path in paths[args.rounds :]:
            in_child(lambda: profiled_round(jobs, path))
        rounds = []
        for path in paths[: args.rounds]:
            with open(path, encoding="utf-8") as handle:
                rounds.append(json.load(handle))
        stats = pstats.Stats(*paths[args.rounds :])
        print(f"{args.workload}, seed {args.seed}")
        report(jobs, rounds, stats, args.top)
    finally:
        shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
