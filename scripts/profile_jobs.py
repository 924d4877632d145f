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

--against SRC compares two engines instead of profiling one.  Two forked
servers import one engine each, the one on PYTHONPATH and the one in the
directory SRC (the `src` of another checkout), and fork the rounds as
above; R rounds of one alternate with R of the other, the first of each
pair taking turns.  The script prints each job's median for both engines
and the change:

    PYTHONPATH=src python3 scripts/profile_jobs.py --workload cfg-linear --rounds 20 --against ../parent/src

--steady N times the steady job instead of the first one: each round, timed
or profiled, first runs the job list N times untimed in its own process, so
the pass that is measured pays no first-touch cost and no copy-on-write
fault of the fork, only what every job pays each time it runs.  It goes
with or without --against:

    PYTHONPATH=src python3 scripts/profile_jobs.py --workload cfg-linear --rounds 20 --steady 50
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


def warm_up(jobs: list[dict], passes: int) -> None:
    for _ in range(passes):
        for job in jobs:
            run_job(job)


def timed_round(jobs: list[dict], path: str, steady: int) -> None:
    warm_up(jobs, steady)
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


class Server:
    """A forked process that imports the engine in src, or the one on
    PYTHONPATH when src is None, and then forks one timed round per call."""

    def __init__(self, src: str | None, jobs: list[dict], steady: int):
        requests, self.requests = os.pipe()
        self.replies, replies = os.pipe()
        sys.stdout.flush()
        self.pid = os.fork()
        if self.pid == 0:
            code = 1
            try:
                os.close(self.requests)
                os.close(self.replies)
                if src is not None:
                    sys.path.insert(0, src)
                import diffalg.cli
                import libjobs  # noqa: F401

                if src is not None and not diffalg.cli.__file__.startswith(os.path.join(src, "")):
                    raise RuntimeError(f"imported diffalg from {diffalg.cli.__file__}, not from {src}")
                with os.fdopen(requests) as paths, os.fdopen(replies, "w") as done:
                    for path in paths:
                        in_child(lambda: timed_round(jobs, path.rstrip("\n"), steady))
                        done.write(path)
                        done.flush()
                code = 0
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(code)
        os.close(requests)
        os.close(replies)
        self.requests, self.replies = os.fdopen(self.requests, "w"), os.fdopen(self.replies)

    def round(self, path: str) -> dict:
        self.requests.write(path + "\n")
        self.requests.flush()
        if self.replies.readline() != path + "\n":
            raise SystemExit("a forked round failed")
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def close(self) -> None:
        self.requests.close()
        self.replies.close()
        os.waitpid(self.pid, 0)


def profiled_round(jobs: list[dict], path: str, steady: int) -> None:
    warm_up(jobs, steady)
    profiler = cProfile.Profile()
    profiler.enable()
    for job in jobs:
        run_job(job)
    profiler.disable()
    profiler.dump_stats(path)


def warmed(steady: int) -> str:
    return f", each after {steady} untimed passes" if steady else ""


def report(jobs: list[dict], rounds: list[dict], stats: pstats.Stats, top: int, steady: int) -> None:
    print(f"median reference ms per job over {len(rounds)} forked rounds{warmed(steady)}")
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


def compare(jobs: list[dict], src: str, against: list[dict], this: list[dict], steady: int) -> None:
    def median(rounds: list[dict], name: str | None) -> float:
        return 1000 * statistics.median(sum(r.values()) if name is None else r[name] for r in rounds)

    print(f"median reference ms per job over {len(this)} alternating forked rounds of each engine{warmed(steady)}")
    print(f"against: {src}")
    width = max(len(job["name"]) for job in jobs)
    print(f"  {'job':<{width}}  {'against':>9}  {'this':>9}  {'change':>7}")
    for name in [job["name"] for job in jobs] + [None]:
        before, after = median(against, name), median(this, name)
        print(f"  {name or 'round':<{width}}  {before:9.3f}  {after:9.3f}  {100 * (after / before - 1):+6.1f}%")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--against", metavar="SRC", help="compare with the engine in this directory")
    parser.add_argument("--steady", type=int, default=0, metavar="N", help="untimed passes of the jobs per round")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.steady < 0:
        parser.error("--steady must be at least 0")
    if args.against is not None and not os.path.isdir(os.path.join(args.against, "diffalg")):
        parser.error(f"--against: no diffalg package in {args.against}")

    workdir = tempfile.mkdtemp(prefix="profile-jobs-")
    try:
        jobs = workloads.make_jobs(args.workload, args.seed, workdir)
        if args.against is not None:
            src = os.path.abspath(args.against)
            servers = [Server(src, jobs, args.steady), Server(None, jobs, args.steady)]
            sides = [[], []]
            try:
                for i in range(args.rounds):
                    for side in (0, 1) if i % 2 == 0 else (1, 0):
                        sides[side].append(servers[side].round(os.path.join(workdir, "round")))
            finally:  # the later server holds a copy of the earlier one's request pipe
                for server in reversed(servers):
                    server.close()
            print(f"{args.workload}, seed {args.seed}")
            compare(jobs, src, *sides, args.steady)
            return 0

        import diffalg.cli  # noqa: F401  loaded before the forks, as the round server does
        import libjobs  # noqa: F401

        paths = [os.path.join(workdir, f"round-{i}") for i in range(2 * args.rounds)]
        for path in paths[: args.rounds]:
            in_child(lambda: timed_round(jobs, path, args.steady))
        for path in paths[args.rounds :]:
            in_child(lambda: profiled_round(jobs, path, args.steady))
        rounds = []
        for path in paths[: args.rounds]:
            with open(path, encoding="utf-8") as handle:
                rounds.append(json.load(handle))
        stats = pstats.Stats(*paths[args.rounds :])
        print(f"{args.workload}, seed {args.seed}")
        report(jobs, rounds, stats, args.top, args.steady)
    finally:
        shutil.rmtree(workdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
