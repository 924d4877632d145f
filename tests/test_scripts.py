"""Smoke runs of the experiment scripts, so they keep working as the core moves.

Each script runs in a fresh interpreter on tiny counts with the engine on
PYTHONPATH, as their docstrings tell a user to run them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def run_script(name: str, *args: str, **env_vars: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **env_vars)
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_commutation_experiment_runs():
    proc = run_script("commutation_experiment.py", "--count", "2", "--degree", "3")
    assert proc.returncode == 0, proc.stderr
    assert "proportional" in proc.stdout and "independent" in proc.stdout


def test_jet_oracle_experiment_finds_no_mismatch():
    proc = run_script("jet_oracle_experiment.py", "--count", "3", "--depth", "3")
    assert proc.returncode == 0, proc.stderr
    assert "mismatches    : 0\n" in proc.stdout


def test_job_recordings_compare_equal_across_hash_seeds_and_name_a_changed_job(tmp_path):
    recordings = []
    for seed in ("0", "3"):
        proc = run_script("job_outputs.py", "--seeds", "1", PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr
        recordings.append(tmp_path / f"hashseed{seed}.json")
        recordings[-1].write_text(proc.stdout)
    proc = run_script("job_outputs.py", "--compare", *map(str, recordings))
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout == "28 of 28 jobs identical\n"

    outputs = json.loads(recordings[0].read_text())
    job = sorted(outputs)[len(outputs) // 2]
    outputs[job][1] += "one more line\n"
    altered = tmp_path / "altered.json"
    altered.write_text(json.dumps(outputs))
    proc = run_script("job_outputs.py", "--compare", str(recordings[1]), str(altered))
    assert proc.returncode == 1
    assert proc.stdout == f"differs: {job}\n  before: <no line>\n  after:  one more line\n27 of 28 jobs identical\n"


def test_code_lines_counts_code_only_and_compares_with_a_ref():
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    try:
        from code_lines import code_lines
    finally:
        sys.path.pop(0)
    source = '"""Module docstring,\n\nover three lines."""\n\n# a comment\ndef f(x):\n    """Doc."""\n    s = """two\nlines"""\n    return (x +\n            1)  # trailing\n'
    assert code_lines(source) == 5

    proc = run_script("code_lines.py")
    assert proc.returncode == 0, proc.stderr
    counts = dict(line.split() for line in proc.stdout.splitlines())
    assert int(counts["total"]) == sum(int(n) for name, n in counts.items() if name != "total")
    assert {"algebra.py", "config.py", "parsing.py"} <= set(counts)

    in_git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode == 0
    if in_git:
        proc = run_script("code_lines.py", "--against", "HEAD")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1].split()[0] == "total"
    proc = run_script("code_lines.py", "--against", "no-such-ref")
    assert proc.returncode == 2
    assert "cannot read no-such-ref" in proc.stderr


def test_unrun_lines_lists_the_statements_a_test_file_leaves_unrun():
    proc = run_script("unrun_lines.py", "--", "tests/test_messages.py", "-q")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *output, total = proc.stdout.splitlines()
    rows = dict(line.split(": ", 1) for line in output if line.split(":")[0].isidentifier())
    assert total == f"total: {sum(len(lines.split(', ')) for lines in rows.values())} unrun statements"
    # the command line is never imported there, and every message helper runs
    with open(os.path.join(ROOT, "src", "diffalg", "cli.py"), encoding="utf-8") as fh:
        main_call = fh.read().splitlines().index("    sys.exit(main())") + 1
    assert str(main_call) in rows["cli"].split(", ")
    assert "errors" not in rows

    proc = run_script("unrun_lines.py", "--", "tests/no_such_file.py", "-q")
    assert proc.returncode == 4


def test_profile_jobs_times_every_job_and_lists_self_times(tmp_path):
    proc = run_script("profile_jobs.py", "--workload", "calculus-mix", "--seed", "1", "--rounds", "1", "--top", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:2] == ["calculus-mix, seed 1", "median reference ms per job over 1 forked rounds"]
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    names = [job["name"] for job in workloads.make_jobs("calculus-mix", 1, str(tmp_path))]
    timed = lines[2 : 3 + len(names)]
    assert [line.split()[0] for line in timed] == names + ["round"]
    assert all(float(line.split()[1]) > 0 for line in timed)
    header = lines.index("     calls    self_ms   share  function")
    assert lines[header - 1].startswith("cProfile over 1 forked rounds: top 5 by self time")
    assert len(lines) == header + 6 and all(int(line.split()[0]) > 0 for line in lines[header + 1 :])

    proc = run_script("profile_jobs.py", "--workload", "calculus-mix", "--rounds", "0")
    assert proc.returncode == 2 and "--rounds must be at least 1" in proc.stderr
