"""The benchmark's traced pass must still install on the engine.

`perfbench/tracing.py` wraps named functions and methods of `diffalg` from
outside the package and refuses to run when one of them is gone.  This
test installs it in a fresh interpreter, so the wrappers do not leak into
the other tests, and checks that the traced tower functions see calls.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

SCRIPT = """
import contextlib, io, json
import diffalg.cli
import tracing
from diffalg import JetVar, Poly, Tower, var

recorder = tracing.Recorder()
tracing.install(recorder)
with contextlib.redirect_stdout(io.StringIO()):
    assert diffalg.cli.main(["config-check", "corpus/scaled.cfg", "--global-degree", "3"]) == 0
t, c = var("t"), var("c")
tower = Tower([JetVar("t")], {JetVar("t"): Poly.const(1)}).extend(c * c - t, "c")
assert tower.equal(tower.invert(c + t) * (c + t), Poly.const(1))
print(json.dumps(sorted(recorder.layer_totals())))
"""


def test_tracing_installs_and_sees_the_tower_layer():
    path = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    spans = set(json.loads(proc.stdout))
    expected = {
        "cli.main",
        "algebra.pseudo_remainder",
        "config.check_commutation_at",
        "derivation.extend_to_algebraic",
        "derivation.tower_invert",
        "derivation.tower_reduce",
    }
    assert expected <= spans
