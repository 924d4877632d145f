"""Each correctness check accepts a real output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py

Run from the root of a checkout: the good outputs come from running the
jobs of a fixed seed through the engine in ``src/``.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import rounds  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    """name -> (job, output) for the jobs of seed 7, at their lower degree."""
    out = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.make_jobs(workload, 7, str(tmp_path_factory.mktemp(workload))):
            if job["level"] == "top":
                continue
            rc, text = rounds._run_job(job)
            assert rc == 0, text
            out[job["name"]] = (job, text)
    return out


def _json_edit(text, edit):
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


def _flip_first_commutes(data):
    check = next(c for c in data["reports"][1]["checks"] if c["alpha"] == "d1 d2")
    check["status"] = "violation"


def _move_point(data):
    check = next(c for r in data["reports"] for c in r["checks"] if "point" in c)
    check["point"]["x[0]"] = str(1 + int(check["point"]["x[0]"].split("/")[0]))


def _swap_rel(data):
    data["wide"]["atoms"][0]["rel"] = "!="


def _bump(path):
    def edit(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += 1

    return edit


CORRUPTIONS = [
    ("scaled-D4", lambda t: _json_edit(t, _flip_first_commutes)),
    ("single-D3", lambda t: t.replace('"commutes": true', '"commutes": false', 1)),
    ("pair-D2", lambda t: _json_edit(t, _move_point)),
    ("pair-D2", lambda t: t.replace('"alpha": "d1 d2"', '"alpha": "d1^2"', 1)),
    ("scaled-f-d1d2", lambda t: t.replace("\n", " + x[0]\n", 1)),
    ("single-f-d1d2", lambda t: t.replace("x[d2]", "x[d1]", 1)),
    ("jet-n5", lambda t: t.strip() + " + 1\n"),
    ("oracle-n3", lambda t: t.strip() + " + c\n"),
    ("derive-0", lambda t: t.replace("u", "v", 1)),
    ("prolong-0", lambda t: _json_edit(t, _bump(["tangent_space", "rank"]))),
    ("dim-cert", lambda t: _json_edit(t, _bump(["dimension"]))),
    ("axiom-wide", lambda t: _json_edit(t, _swap_rel)),
    ("tower-ops", lambda t: t.replace("invert: ", "invert: 2*", 1)),
    ("extend-at-point", lambda t: t.replace("c -> (", "c -> -(", 1)),
]


@pytest.mark.parametrize("name", sorted({name for name, _ in CORRUPTIONS}))
def test_check_accepts_real_output(jobs, name):
    job, text = jobs[name]
    checks.check_job(job, text)


@pytest.mark.parametrize("name,corrupt", CORRUPTIONS, ids=[f"{n}-{i}" for i, (n, _) in enumerate(CORRUPTIONS)])
def test_check_rejects_corrupted_output(jobs, name, corrupt):
    job, text = jobs[name]
    bad = corrupt(text)
    assert bad != text
    with pytest.raises(checks.CheckError):
        checks.check_job(job, bad)


def test_every_check_kind_is_exercised(tmp_path):
    kinds = set()
    for workload in workloads.WORKLOADS:
        kinds |= {job["check"]["kind"] for job in workloads.make_jobs(workload, 7, str(tmp_path / workload))}
    assert kinds == set(checks.CHECKS)


def test_tally_flags_a_round_that_differs_from_the_first(jobs):
    job, text = jobs["jet-n5"]
    good = {"jobs": [{"rc": 0, "out": text}]}
    bad = {"jobs": [{"rc": 0, "out": text + " "}]}
    wrong = run.check_outputs([job], good["jobs"])
    assert wrong == [None]
    assert run.tally([job], [good, good, bad], wrong)[:2] == (3, 1)
    assert run.tally([job], [good, good], wrong)[:2] == (2, 0)


def test_tally_counts_a_wrong_first_output_in_every_round(jobs):
    job, text = jobs["jet-n5"]
    bad = {"jobs": [{"rc": 0, "out": text.strip() + " + 1"}]}
    wrong = run.check_outputs([job], bad["jobs"])
    assert wrong[0] is not None
    assert run.tally([job], [bad, bad], wrong)[:2] == (2, 2)


def test_a_non_zero_exit_is_a_failure(jobs):
    job, _ = jobs["jet-n5"]
    crashed = {"jobs": [{"rc": 1, "out": "error: boom"}]}
    assert run.tally([job], [crashed], run.check_outputs([job], crashed["jobs"]))[:2] == (1, 1)
