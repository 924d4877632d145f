"""What a diffalg process imports before and while it runs a subcommand.

The benchmark's round server imports `diffalg.cli` once and forks a child
per round, so every diffalg module must load with `diffalg.cli`, or each
round would compile it anew.  None of the stdlib modules that only type
hints and dataclasses used may load at all.  The child runs with -S, so
that no site hook imports any of them first.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MODULES = {"algebra", "axioms", "cli", "config", "derivation", "errors", "jet", "jsontext", "monoid", "parsing", "prolong"}
UNWANTED = {"typing", "dataclasses", "inspect", "ast", "dis", "tokenize"}

_CHILD = """
import json, sys
import diffalg.cli
diffalg.cli.build_parser()
loaded = sorted(sys.modules)
code = diffalg.cli.main(["config-check", sys.argv[1]])
print(json.dumps({"code": code, "after_import": loaded, "after_run": sorted(sys.modules)}))
"""


def test_cli_loads_every_diffalg_module_and_no_typing():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _CHILD, os.path.join(ROOT, "corpus", "scaled.cfg")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    for key in ("after_import", "after_run"):
        loaded = set(result[key])
        assert {name[len("diffalg."):] for name in loaded if name.startswith("diffalg.")} == MODULES, key
        assert "diffalg" in loaded
        assert not loaded & UNWANTED, (key, sorted(loaded & UNWANTED))
