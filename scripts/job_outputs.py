#!/usr/bin/env python3
"""Record the output of every benchmark job, or compare two recordings.

Runs each job of the cfg-linear, cfg-separant and calculus-mix workloads
for the given seeds in this process, through perfbench/workloads.py and
perfbench/libjobs.py, and writes {"workload/seed/job": [exit code, stdout,
stderr]} as JSON to stdout.  The input files go to a temporary directory
whose path reads <workdir> in the recorded outputs, so recordings made
from two checkouts compare byte for byte.  The engine is imported from
PYTHONPATH:

    PYTHONPATH=../parent/src python3 scripts/job_outputs.py --seeds 1 7 13 > before.json
    PYTHONPATH=src python3 scripts/job_outputs.py --seeds 1 7 13 > after.json
    python3 scripts/job_outputs.py --compare before.json after.json

--compare lists the jobs whose output differs and exits 1 if any do.
Under each one it prints the first line of stdout that differs, as it
reads before and after; "<no line>" stands for a line past the end.
"""

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402


def run_job(job: dict) -> tuple[int, str, str]:
    import diffalg.cli
    import libjobs

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if job["kind"] == "cli":
            rc = diffalg.cli.main(job["argv"])
        else:
            try:
                print(getattr(libjobs, job["fn"])(**job["args"]))
                rc = 0
            except Exception as exc:  # a failed job is recorded, not fatal
                print(f"error: {exc!r}", file=sys.stderr)
                rc = 1
    return rc, out.getvalue(), err.getvalue()


def record(seeds: list[int]) -> dict:
    outputs = {}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            workdir = tempfile.mkdtemp(prefix="job-outputs-")
            try:
                for job in workloads.make_jobs(workload, seed, workdir):
                    rc, out, err = run_job(job)
                    outputs[f"{workload}/{seed}/{job['name']}"] = [
                        rc,
                        out.replace(workdir, "<workdir>"),
                        err.replace(workdir, "<workdir>"),
                    ]
            finally:
                shutil.rmtree(workdir)
    return outputs


def first_difference(before: str, after: str) -> tuple[str, str]:
    """The first line of two texts that differs, from each text."""
    old, new = before.splitlines(), after.splitlines()
    i = next((i for i, pair in enumerate(zip(old, new)) if pair[0] != pair[1]), min(len(old), len(new)))
    return tuple(lines[i] if i < len(lines) else "<no line>" for lines in (old, new))


def compare(before_path: str, after_path: str) -> int:
    with open(before_path, encoding="utf-8") as handle:
        before = json.load(handle)
    with open(after_path, encoding="utf-8") as handle:
        after = json.load(handle)
    jobs = sorted(set(before) | set(after))
    differ = [job for job in jobs if before.get(job) != after.get(job)]
    for job in differ:
        missing = " (missing in one file)" if job not in before or job not in after else ""
        print(f"differs: {job}{missing}")
        if not missing and before[job][1] != after[job][1]:
            old, new = first_difference(before[job][1], after[job][1])
            print(f"  before: {old}\n  after:  {new}")
    print(f"{len(jobs) - len(differ)} of {len(jobs)} jobs identical")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 13])
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    sys.stdout.write(json.dumps(record(args.seeds), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
