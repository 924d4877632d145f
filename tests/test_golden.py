"""Golden CLI outputs: every corpus file under its subcommand, byte for byte.

`tests/golden/cli.json` records the exit code, stdout and stderr of each
run in `CASES`.  Any change to them fails here, so a refactor that must
keep the output identical can be checked in one test.  Regenerate the file
only when an output change is intended, and review the diff:

    PYTHONPATH=src python tests/test_golden.py

In an argument, `corpus/NAME` stands for the path of that corpus file and
`@corpus/NAME` for its contents with surrounding whitespace stripped.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from diffalg.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, "..")
GOLDEN = os.path.join(HERE, "golden", "cli.json")

_PAIR_CONFIGS = ("commuting", "noncomm", "quadratic", "scaled")
_CONFIGS = _PAIR_CONFIGS + ("single",)
_VARIETIES = ("circle", "cusp", "twisted_line", "twisted_parabola")

CASES: list[list[str]] = []
for _name in _CONFIGS:
    for _degree in ("3", "5"):
        CASES.append(["config-check", f"corpus/{_name}.cfg", "--global-degree", _degree, "--json"])
    CASES.append(["config-check", f"corpus/{_name}.cfg", "--global-degree", "3"])
for _flags in ([], ["--json"]):
    CASES.append(["config-check", "corpus/separant.cfg", "--global-degree", "4", *_flags])
    for _name in ("three", "param"):
        CASES.append(["config-check", f"corpus/{_name}.cfg", "--global-degree", "5", *_flags])
for _name in _PAIR_CONFIGS:
    for _alpha in ("d1", "d1 d2", "d1^2 d2", "d1 d2^2"):
        CASES.append(["config-g", f"corpus/{_name}.cfg", _alpha])
    CASES.append(["config-g", f"corpus/{_name}.cfg", "--word", "d1 d2", "--leader", "d2", "--json"])
for _alpha in ("d1^2", "d1^3", "d1^4"):
    CASES.append(["config-g", "corpus/single.cfg", _alpha])
for _name in _VARIETIES:
    CASES.append(["prolong", f"corpus/{_name}.variety"])
CASES.append(["prolong", "corpus/circle.variety", "--point", "0, 1"])
CASES.append(["prolong", "corpus/cusp.variety", "--point", "1, 1"])
CASES.append(["prolong", "corpus/twisted_line.variety", "--point", "t"])
CASES.append(["dim-cert", "corpus/chain.tri"])
CASES.append(["dim-cert", "corpus/chain.tri", "--json"])
for _n in ("1", "2", "3"):
    CASES.append(["axiom-wide", "corpus/product.zjson", "--n", _n])
for _mode in ("comm", "free"):
    CASES.append(["jet", "@corpus/leibniz.term", "--mode", _mode])
    CASES.append(["jet", "@corpus/leibniz.term", "--mode", _mode, "--k", "2", "--json"])
CASES.append(["jet", "d1(t * d2(x)) = d2(t * d1(x))", "--mode", "free", "--eta", "t -> 1"])
CASES.append(["jet", "d1(d2(d1(d1(t * x * x))))", "--eta", "t -> 1"])
CASES.append(["jet", "d1(d1(t * x))", "--eta", "t -> 1/t"])
CASES.append(["jet", "d1(d1(d1(d1(t * x))))", "--eta", "t -> 1/(t + 1)"])
for _expr in ("x^2 / t", "x*y + t*u", "(x - y) / (t^2 + 1)"):
    CASES.append(["derive", _expr, "--spec", "@corpus/derspec.txt"])
CASES.append(["derive", "x^3*t", "--spec", "@corpus/derspec.txt", "--json"])
CASES.append(["derive", "x^2*t + x/t", "--spec", "eta: t -> 1/(t + 1); d: x -> u/t"])
CASES.append(["derive", "(x*y + t) / (x - t^2)", "--spec", "eta: t -> 1; d: x -> u, y -> v"])


def _resolve(arg: str) -> str:
    if arg.startswith("@corpus/"):
        with open(os.path.join(ROOT, arg[1:]), "r", encoding="utf-8") as handle:
            return handle.read().strip()
    if arg.startswith("corpus/"):
        return os.path.join(ROOT, arg)
    return arg


def run_case(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([_resolve(a) for a in argv])
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _load_golden() -> dict:
    with open(GOLDEN, "r", encoding="utf-8") as handle:
        return {" ".join(entry["argv"]): entry for entry in json.load(handle)}


def test_golden_covers_every_case():
    assert sorted(_load_golden()) == sorted(" ".join(argv) for argv in CASES)


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(argv) for argv in CASES])
def test_golden_cli_output(argv):
    assert run_case(argv) == _load_golden()[" ".join(argv)]


def test_golden_output_under_fixed_hash_seeds():
    # each suite run draws one random hash seed; these two are pinned
    script = "import json, test_golden as g; print(json.dumps([g.run_case(a) for a in g.CASES]))"
    for seed in ("0", "3"):
        path = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        got = {" ".join(entry["argv"]): entry for entry in json.loads(done.stdout)}
        assert got == _load_golden(), f"PYTHONHASHSEED={seed}"


if __name__ == "__main__":
    records = [run_case(argv) for argv in CASES]
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)
