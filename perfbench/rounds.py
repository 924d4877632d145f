"""Rounds: every job of a workload run once, in a process of its own.

Usage: python3 -S perfbench/rounds.py setup | serve

``setup`` imports diffalg.cli and builds its parser, timed, in this freshly
spawned process, and prints the result as one JSON line.

``serve`` imports the engine and then forks one child per round on request;
run.py drives it.  The server has run nothing, so each child starts from
the state of a fresh process and no state carries over from one round to
the next, without paying the 0.2 to 0.35 s of a cold interpreter start and
import per round.  A round runs in one of three modes:

  time   time each job and the round, bracketed by reference loops
  trace  the same with spans around every layer (see tracing.py)
  heap   the same under tracemalloc, for the peak heap of a round

The parent (run.py) sets PYTHONPATH to the checkout's src/.
"""

from __future__ import annotations

import json
import sys
import time


def _setup() -> dict:
    start = time.perf_counter()
    import diffalg.cli

    diffalg.cli.build_parser()
    wall = time.perf_counter() - start
    from refloop import time_reference

    return {"wall": wall, "ref": [time_reference(), time_reference()], "module": diffalg.cli.__file__}


def _run_job(job: dict) -> tuple[int, str]:
    import contextlib
    import io

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
            except Exception as exc:  # a failed job is counted, not fatal
                print(f"error: {exc!r}", file=sys.stderr)
                rc = 1
    return rc, out.getvalue() + ("" if rc == 0 else err.getvalue())


def _config_sizes(configs_by_job: dict, jobs: list[dict]) -> dict:
    """Sizes of f at the top-degree tuples of each configuration family."""
    from diffalg.monoid import theta_ball

    terms = den_degree = coeff_bits = 0
    for job in jobs:
        if job.get("level") != "top" or job["name"] not in configs_by_job:
            continue
        degree = int(job["argv"][job["argv"].index("--global-degree") + 1])
        for cfg in configs_by_job[job["name"]]:
            for alpha in theta_ball(cfg.k, degree):
                if alpha.degree != degree or cfg.is_free(alpha):
                    continue
                value = cfg.f_at(alpha).value
                terms += len(value.num.terms) + len(value.den.terms)
                den_degree = max(den_degree, value.den.total_degree())
                for poly in (value.num, value.den):
                    for c in poly.terms.values():
                        coeff_bits = max(coeff_bits, c.numerator.bit_length(), c.denominator.bit_length())
    return {"config.f.terms": terms, "config.f.den_degree": den_degree, "config.f.coeff_bits": coeff_bits}


def _round(mode: str, spec: dict, spans_path: str | None) -> dict:
    import gc
    import resource
    import threading

    import diffalg.cli  # noqa: F401  imported before the clock starts
    import libjobs  # noqa: F401
    from refloop import time_reference

    jobs = spec["jobs"]
    recorder = None
    configs_by_job: dict[str, list] = {}
    current: list = []
    if mode == "trace":
        import tracing
        from diffalg.config import Configuration

        recorder = tracing.Recorder()
        tracing.install(recorder)
        init = Configuration.__init__

        def capture(self, *args, **kwargs):
            init(self, *args, **kwargs)
            current.append(self)

        Configuration.__init__ = capture
    if mode == "heap":
        import tracemalloc

        tracemalloc.start()
    if threading.active_count() != 1:
        raise RuntimeError("a round must run single-threaded")

    gc.collect()
    ref_before = [time_reference(), time_reference()]
    results = []
    round_start = time.perf_counter()
    cpu_start = time.process_time()
    # in a traced round each job is a root span that its layers' spans hang under
    run_job = recorder.wrap("job", _run_job) if recorder is not None else _run_job
    for job in jobs:
        del current[:]
        start, cpu = time.perf_counter(), time.process_time()
        rc, out = run_job(job)
        results.append(
            {"wall": time.perf_counter() - start, "cpu": time.process_time() - cpu, "rc": rc, "out": out}
        )
        if current:
            configs_by_job[job["name"]] = list(current)
    round_wall = time.perf_counter() - round_start
    round_cpu = time.process_time() - cpu_start
    ref_after = [time_reference(), time_reference()]

    payload = {
        "wall": round_wall,
        "cpu": round_cpu,
        "ref": ref_before + ref_after,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": results,
    }
    if mode == "heap":
        payload["heap_peak"] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    if recorder is not None:
        payload["layers"] = recorder.layer_totals()
        payload["counts"] = dict(recorder.counts)
        payload["counts"].update(_config_sizes(configs_by_job, jobs))
        payload["spans"] = len(recorder.start_col)
        if spans_path:
            recorder.write(spans_path)
    return payload


def _serve() -> int:
    """Fork a child per request line `{"mode", "spec", "spans", "result"}`.

    The child writes the round's JSON to `result`; this process answers
    with the child's exit status.  End of input ends the server.
    """
    import os
    import traceback

    import diffalg.cli  # noqa: F401
    import libjobs  # noqa: F401
    import refloop  # noqa: F401
    import tracing  # noqa: F401

    sys.stdout.write("ready\n")
    sys.stdout.flush()
    for line in sys.stdin:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                with open(request["spec"], encoding="utf-8") as handle:
                    payload = _round(request["mode"], json.load(handle), request.get("spans"))
            except BaseException:  # reported to the parent, which stops the run
                payload, code = {"error": traceback.format_exc()}, 1
            with open(request["result"], "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os._exit(code)
        _, status = os.waitpid(pid, 0)
        sys.stdout.write(f"{os.waitstatus_to_exitcode(status)}\n")
        sys.stdout.flush()
    return 0


def main(argv: list[str]) -> int:
    if argv == ["serve"]:
        return _serve()
    if argv == ["setup"]:
        sys.stdout.write(json.dumps(_setup()) + "\n")
        return 0
    sys.stderr.write(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
