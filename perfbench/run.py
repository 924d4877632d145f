"""Benchmark of the diffalg engine: one command, three workloads.

    python3 perfbench/run.py --workload cfg-linear --seed 1 --seconds 38 --trace 0

Run it from the root of a checkout; it imports the engine from ``src/``.
A round runs the workload's jobs once in a fresh single-threaded process
(rounds.py).  Rounds repeat until ``--seconds`` have passed.  Every time is
reported in reference seconds: the measured time times R0/R, where R is
the duration of a fixed pure-Python loop (refloop.py) timed in the same
process just before and just after the round.  With ``--trace 0`` the run
prints the end-to-end metrics; with ``--trace 1`` it alternates plain and
traced rounds and prints the per-layer metrics.  The outputs of the first
round are checked with SymPy (checks.py) and every other round must
reproduce them byte for byte.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Raw results and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from refloop import R0  # noqa: E402
from tracing import PARSING, SIZES, TARGETS  # noqa: E402

ROUND = os.path.join(HERE, "rounds.py")
SETUP_PROBES = 4
ROUND_TIMEOUT = 60

SPANS = list(TARGETS) + [PARSING]
F_SIZES = ("config.f.terms", "config.f.den_degree", "config.f.coeff_bits")


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for span in SPANS:
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
        if span in SIZES:
            out.append((f"{span}.{SIZES[span][0]}", SIZES[span][1]))
    out += [(name, "bits" if name.endswith("bits") else "count") for name in F_SIZES]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class BenchError(RuntimeError):
    pass


def _scaled(seconds: float, refs) -> float:
    return seconds * R0 / statistics.fmean(refs)


def _env(root: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")


def _setup_probe(root: str) -> dict:
    """A cold start in a process spawned for it: import diffalg.cli, build its parser."""
    try:
        proc = subprocess.run(
            [sys.executable, "-S", ROUND, "setup"],
            cwd=root,
            env=_env(root),
            capture_output=True,
            text=True,
            timeout=ROUND_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"the setup probe exceeded {ROUND_TIMEOUT} s") from None
    if proc.returncode != 0:
        raise BenchError(f"the setup probe exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class RoundServer:
    """The `rounds.py serve` process, which forks one child per round."""

    def __init__(self, root: str, outdir: str):
        self.result = os.path.join(outdir, "round.json")
        self.errors = open(os.path.join(outdir, "server.stderr"), "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-S", ROUND, "serve"],
            cwd=root,
            env=_env(root),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.errors,
            text=True,
            start_new_session=True,
        )
        self._reply()

    def _reply(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], ROUND_TIMEOUT)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close(kill=True)
            with open(self.errors.name, encoding="utf-8") as handle:
                detail = handle.read().strip()[-2000:]
            raise BenchError(f"the round server stopped or exceeded {ROUND_TIMEOUT} s: {detail}")
        return line.strip()

    def submit(self, mode: str, spec: str, spans: str | None = None) -> None:
        """Start a round in a forked child; collect() waits for it."""
        request = {"mode": mode, "spec": spec, "spans": spans, "result": self.result}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()

    def round(self, mode: str, spec: str, spans: str | None = None) -> dict:
        self.submit(mode, spec, spans)
        return self.collect(mode)

    def collect(self, mode: str) -> dict:
        status = self._reply()
        with open(self.result, encoding="utf-8") as handle:
            payload = json.load(handle)
        if status != "0" or "error" in payload:
            raise BenchError(f"a {mode} round failed (status {status}): {payload.get('error', '')[-2000:]}")
        return payload

    def close(self, kill: bool = False) -> None:
        """End the server, and with `kill` also a round still running in it."""
        if self.proc.poll() is None:
            if kill:
                os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=ROUND_TIMEOUT)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        self.errors.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        self.close(kill=exc_type is not None)
        return False


def _tail(values: list[float]) -> float:
    """The highest order statistic with at least ten values beyond it."""
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)]


def _growth(rounds: list[dict], jobs: list[dict]) -> float:
    """Geometric mean over families of the median t(top)/t(prev) per round."""
    pairs: dict[str, dict[str, int]] = {}
    for i, job in enumerate(jobs):
        if job["family"]:
            pairs.setdefault(job["family"], {})[job["level"]] = i
    logs = []
    for family, idx in pairs.items():
        ratios = [r["jobs"][idx["top"]]["wall"] / r["jobs"][idx["prev"]]["wall"] for r in rounds]
        logs.append(math.log(statistics.median(ratios)))
    return math.exp(statistics.fmean(logs))


def _layer_values(traced: list[dict]) -> dict[str, float]:
    values: dict[str, list[float]] = {}

    def put(name, value):
        values.setdefault(name, []).append(value)

    for r in traced:
        scale = R0 / statistics.fmean(r["ref"])
        for span in SPANS:
            calls = r["layers"].get(span, {"calls": 0})["calls"]
            put(f"{span}.calls", calls)
            put(f"{span}.self_s", r["layers"].get(span, {"self_s": 0.0})["self_s"] * scale)
            if span in SIZES:
                suffix, unit, _ = SIZES[span]
                total = r["counts"].get(f"{span}.{suffix}", 0)
                put(f"{span}.{suffix}", (total / calls if calls else 0.0) if unit == "ratio" else total)
        for name in F_SIZES:
            put(name, r["counts"][name])
    # counts and sizes repeat from round to round; median_low keeps them whole
    return {
        name: statistics.median(vals) if name.endswith("self_s") else statistics.median_low(vals)
        for name, vals in values.items()
    }


def check_outputs(jobs: list[dict], outputs: list[dict]) -> list[str | None]:
    """For each job, why its output is wrong, or None when it passes its check."""
    import checks

    wrong = []
    for job, result in zip(jobs, outputs):
        try:
            if result["rc"] != 0:
                raise checks.CheckError(f"exit code {result['rc']}: {result['out'].strip()[-300:]}")
            checks.check_job(job, result["out"])
            wrong.append(None)
        except Exception as exc:  # any check that cannot pass marks the output wrong
            wrong.append(f"{type(exc).__name__}: {exc}")
    return wrong


def tally(jobs: list[dict], rounds: list[dict], wrong: list[str | None]) -> tuple[int, int, list[str]]:
    """Count attempted and failed jobs over all rounds.

    `wrong` is check_outputs() of the first round.  A job fails in a round
    when its first output is wrong, or when its output here differs from the
    first round's (a non-zero exit differs, or was already wrong).
    """
    first = rounds[0]["jobs"]
    failures = []
    attempted = failed = 0
    for n, r in enumerate(rounds):
        for job, result, ref, why in zip(jobs, r["jobs"], first, wrong):
            attempted += 1
            if why is None and result["rc"] == 0 and result["out"] == ref["out"]:
                continue
            failed += 1
            failures.append(f"round {n} {job['name']}: {why or 'output differs from the first round'}")
    return attempted, failed, failures


def measure(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    outdir = os.path.join(HERE, "out", tag)
    jobs = workloads.make_jobs(workload, seed, os.path.relpath(os.path.join(outdir, "inputs"), root))
    spec_path = os.path.join(outdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "jobs": jobs}, handle, indent=1)

    # the first import compiles and caches bytecode; it is not a sample
    probe = _setup_probe(root)
    if not os.path.abspath(probe["module"]).startswith(os.path.join(root, "src") + os.sep):
        raise BenchError(f"imported diffalg from {probe['module']}, not from this checkout")

    start = time.monotonic()
    setups, heap, plain, traced = [], None, [], []
    spans_path = os.path.join(outdir, "spans.json")
    with RoundServer(root, outdir) as server:
        if not trace:
            setups = [_setup_probe(root) for _ in range(SETUP_PROBES)]
        while not plain or (trace and not traced) or time.monotonic() - start < seconds:
            if trace and len(traced) < len(plain):
                traced.append(server.round("trace", spec_path, spans_path))
            else:
                plain.append(server.round("time", spec_path))
        # the untimed heap pass runs while the parent checks the outputs
        if not trace:
            server.submit("heap", spec_path)
        wrong = check_outputs(jobs, plain[0]["jobs"])
        if not trace:
            heap = server.collect("heap")
    order = plain + traced + ([heap] if heap else [])
    attempted, failed, failures = tally(jobs, order, wrong)

    walls = [_scaled(r["wall"], r["ref"]) for r in plain]
    info = {
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "raw_wall_s": statistics.median(r["wall"] for r in plain),
        "raw_cpu_s": statistics.median(r["cpu"] for r in plain),
        "ref_s": statistics.median(statistics.fmean(r["ref"]) for r in plain),
        "R0_s": R0,
    }
    if trace:
        layer = _layer_values(traced)
        traced_walls = [_scaled(r["wall"], r["ref"]) for r in traced]
        layer["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
        metrics = {name: (layer[name], unit) for name, unit in per_layer_metrics()}
        info["spans_per_round"] = traced[-1]["spans"]
        info["spans_file"] = os.path.relpath(spans_path, root)
    else:
        metrics = {
            "round_s": (statistics.median(walls), "s"),
            "round_tail_s": (_tail(walls), "s"),
            "growth_per_degree": (_growth(plain, jobs), "ratio"),
            "setup_s": (statistics.median(_scaled(s["wall"], s["ref"]) for s in setups), "s"),
            "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in plain) / 1024, "MB"),
            "peak_heap_mb": (heap["heap_peak"] / 2 ** 20, "MB"),
        }
        info["setup_raw_wall_s"] = statistics.median(s["wall"] for s in setups)
        info["setup_ref_s"] = statistics.median(statistics.fmean(s["ref"]) for s in setups)
        info["job_raw_wall_s"] = {
            job["name"]: statistics.median(r["jobs"][i]["wall"] for r in plain) for i, job in enumerate(jobs)
        }

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    raw = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "result": result,
        "info": info,
        "failures": failures[:50],
        "setups": setups,
        "rounds": [
            {**r, "jobs": [{k: v for k, v in job.items() if k != "out"} for job in r["jobs"]]} for r in order
        ],
        "first_outputs": {job["name"]: res["out"] for job, res in zip(jobs, order[0]["jobs"])},
    }
    with open(os.path.join(HERE, "out", tag + ".json"), "w", encoding="utf-8") as handle:
        json.dump(raw, handle, indent=1)
    return {"result": result, "info": info, "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "diffalg", "cli.py")):
        print("error: run from the root of a diffalg checkout (src/diffalg is missing)", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except (BenchError, ImportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    info = out["info"]
    print(f"{args.workload} seed {args.seed}: {info['rounds']} rounds, {info['traced_rounds']} traced")
    print(
        f"  per round: raw wall {info['raw_wall_s']:.4f} s, raw cpu {info['raw_cpu_s']:.4f} s, "
        f"R {info['ref_s']:.5f} s (R0 {R0} s)"
    )
    if "setup_raw_wall_s" in info:
        print(f"  setup: raw wall {info['setup_raw_wall_s']:.4f} s, R {info['setup_ref_s']:.5f} s")
    for name, metric in out["result"]["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for line in out["failures"][:10]:
        print(f"  FAILED {line}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
