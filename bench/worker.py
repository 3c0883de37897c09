"""The workload interpreter: one fresh Python process per benchmark run.

``worker.py setup SRC`` prints the seconds from ``import bellstat.cli`` to
the first resolved config.

``worker.py run SRC PLAN RESULT`` measures its own set-up the same way, then
runs the plan's commands through ``bellstat.cli.main`` in a closed loop (one
client, the next command starts when the previous one returns) for the
plan's number of seconds, then runs each of the plan's probes (malformed
commands) once, untimed, and writes timings, exit codes, messages and, when
tracing, per-command layer totals to RESULT as JSON.  It prints nothing.
"""

import sys
import time


def _setup(src):
    """Import the CLI and resolve a first config; return (module, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import bellstat.cli as cli

    cli.resolve_config("exact", None, {"table": "1,1,1,1,1,1,1,1"})
    return cli, time.perf_counter() - t0


def _call(cli, argv):
    """One timed ``main(argv)``: (duration_ns, exit code or None, error, stderr)."""
    import io
    import traceback

    err, saved = io.StringIO(), sys.stderr
    sys.stderr = err
    error = None
    t0 = time.perf_counter_ns()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a measured outcome, not a crash
        code = None
        where = traceback.extract_tb(exc.__traceback__)[-1]
        error = f"{type(exc).__name__}: {exc} (at {where.name}, line {where.lineno})"
    t1 = time.perf_counter_ns()
    sys.stderr = saved
    return t1 - t0, code, error, err.getvalue()


def _digest(path):
    """SHA-256 of a report without ``meta``'s wall-clock field, the one part
    of a report allowed to change between identical commands.  Reads in
    chunks so that checking a repeat adds little to the worker's memory."""
    import hashlib
    import re

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        # The field sits in ``meta``, which follows the short ``config``.
        h.update(re.sub(rb'\n\s*"duration_seconds": [^\n]*', b"", fh.read(1 << 16), count=1))
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _draw_ms(stream, spec, n):
    """Milliseconds to make, directly, the Philox draws of one ``sample`` call:
    infinite mode in 65,536-draw chunks under the documented chunk keys,
    finite mode as one scalar draw per step."""
    import math

    counts = spec.composition.counts
    total = sum(counts)
    t0 = time.perf_counter_ns()
    if spec.mode == "infinite":
        for chunk in range(math.ceil(n / 65536)):
            stream(spec.seed, chunk).integers(0, total, size=min(65536, n - chunk * 65536))
    else:
        rng = stream(spec.seed)
        for remaining in range(total, total - n, -1):
            rng.integers(0, remaining)
    return (time.perf_counter_ns() - t0) / 1e6


def _replays(modules, infinite_call, sample_call, drain_call, workers):
    """Layer measurements made by calling library functions directly on
    inputs the workload produced: 1- vs N-worker sampling and tracemalloc
    peaks inside ``sample`` and ``depletion_trajectory``."""
    import statistics
    import tracemalloc

    reservoir = modules["reservoir"]
    out = {}
    if infinite_call is not None:
        spec, n = infinite_call
        w1, w2 = [], []
        for rep in range(6):
            use = 1 if rep % 2 == 0 else 2
            if use == 2 and workers < 2:
                continue
            t0 = time.perf_counter_ns()
            reservoir.sample(spec, n, workers=use)
            (w1 if use == 1 else w2).append((time.perf_counter_ns() - t0) / 1e6)
        out["w1_ms"] = statistics.median(w1)
        out["w2_ms"] = statistics.median(w2) if w2 else 0.0
    for key, call, fn in (("sample_alloc_mb", sample_call, reservoir.sample),
                          ("drain_alloc_mb", drain_call, reservoir.depletion_trajectory)):
        if call is None:
            continue
        tracemalloc.start()
        tracemalloc.reset_peak()
        fn(*call)
        out[key] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    return out


def run(src, plan_path, result_path):
    cli, own_setup_s = _setup(src)
    import gc
    import json
    import resource
    from pathlib import Path

    import bellstat.entropy
    import bellstat.quantum
    import bellstat.reservoir
    import bellstat.rng

    from spans import Tracer

    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    out_dir = Path(plan["out_dir"])
    commands = plan["commands"]
    trace = plan["trace"]
    modules = {"cli": cli, "reservoir": bellstat.reservoir,
               "quantum": bellstat.quantum, "entropy": bellstat.entropy}
    tracer = Tracer(modules) if trace else None
    stream = bellstat.rng.stream

    records = []
    first_out = {}
    infinite_call = sample_call = drain_call = None
    deadline = time.perf_counter() + plan["seconds"]
    i = 0
    while i < len(commands) or time.perf_counter() < deadline:
        j = i % len(commands)
        argv = commands[j]["argv"]
        ext = "csv" if "csv" in argv else "json"
        # Tracing alternates which copy of a command goes first.
        modes = ((False, True) if i % 2 == 0 else (True, False)) if trace else (False,)
        for traced in modes:
            path = out_dir / f"o{len(records)}.{ext}"
            # Start every command from a collected heap, as a fresh CLI
            # process would; otherwise garbage left by earlier commands
            # decides when the collector runs inside this one.
            gc.collect()
            if traced:
                tracer.install()
            duration_ns, code, error, stderr = _call(cli, argv + ["--out", str(path)])
            if traced:
                tracer.uninstall()
            record = {"index": j, "ns": duration_ns, "code": code, "error": error,
                      "stderr": stderr, "traced": traced}
            if traced:
                totals = tracer.take()
                calls = totals.pop("sample_calls")
                if calls and code == 0:  # replay the sampling of successful commands only
                    totals["draw_ms"] = sum(_draw_ms(stream, spec, n) for spec, n in calls)
                    infinite_call = infinite_call or next(
                        (c for c in calls if c[0].mode == "infinite"), None)
                    if "reservoir.sample" in totals["self_ms"]:
                        sample_call = sample_call or calls[0]
                    if "reservoir.depletion_trajectory" in totals["self_ms"]:
                        drain_call = drain_call or (calls[0][0],)
                record["layers"] = totals
            digest = _digest(path) if path.exists() else None
            if j not in first_out:
                first_out[j] = digest
                record["output"] = str(path) if digest else None
            else:
                record["same_as_first"] = digest == first_out[j]
                if digest:
                    path.unlink()
            records.append(record)
        i += 1
    # Peak memory is the timed loop's; the probes do little work.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probes = []
    for k, argv in enumerate(plan["probes"]):
        path = out_dir / f"probe{k}.json"
        duration_ns, code, error, stderr = _call(cli, argv + ["--out", str(path)])
        probes.append({"index": len(commands) + k, "ns": duration_ns, "code": code,
                       "error": error, "stderr": stderr, "traced": False,
                       "output": str(path) if path.exists() else None})
    result = {"setup_s": own_setup_s, "peak_rss_mb": peak_rss_kb / 1024,
              "records": records, "probes": probes}
    if trace:
        result["replays"] = _replays(modules, infinite_call, sample_call, drain_call,
                                     plan["workers"])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        print(repr(_setup(sys.argv[2])[1]))
    else:
        run(*sys.argv[2:5])
