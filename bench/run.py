"""bellstat benchmark: one workload, end-to-end or traced, checked by an oracle.

Run from the root of a checkout (``src/bellstat`` must be there):

    python3 bench/run.py --workload simulate-infinite --seed 1 --seconds 20 --trace 0

Workloads: simulate-infinite, drain-finite, quantum-scan, mixed-small (see
``workloads.py`` for what each stresses and why).  Every command goes
through ``bellstat.cli.main(argv)`` in a fresh worker interpreter, one client
in a closed loop, writing its report with ``--out`` into a scratch directory
that is removed afterwards.  After the timed loop, every report is checked
by the independent oracle in ``oracle.py``.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: import of ``bellstat.cli`` plus the first ``resolve_config``,
  median over several fresh interpreters;
- ``cmd_mean_ms``: mean wall time of one ``main(argv)`` call, including emit
  and the file write; with one client in a closed loop it is the inverse of
  throughput;
- ``peak_rss_mb``: peak resident memory of the worker interpreter;
- ``ok_rate``: 1 - error_rate over the timed commands, which are all valid.
  A valid command fails when it raises, does not exit 0, or writes a report
  the oracle rejects.

``mixed-small`` also runs one malformed command per validation class once,
after the timed loop (the probes).  A probe succeeds when it exits 2 with a
one-line message, or exits 0 with a report the oracle accepts; a traceback
is a failure.  Probe outcomes are printed by input and recorded, but kept
out of ``attempted`` and ``failed``, so that those count the timed workload
alone and a known crash on malformed input does not make the failure count
depend on how many commands fit into the run.  A probe that writes a wrong
report still makes the run incorrect.

It also prints, without putting them in the final JSON, the median and the
tail of the same wall times (``cmd_p50_ms``; ``cmd_tail_ms``, the highest
percentile with at least ten samples beyond it, with that percentile and
the sample count) and ``error_rate``.  On a machine whose speed swings by
tens of percent over minutes, the median jumps between the fast and the
slow state from run to run, so the mean is the gated latency figure.

``--trace 1`` runs every command twice, untraced and traced, and reports
per-layer metrics from the spans in ``spans.py``: self times, counts, direct
replays of the Philox draws and of ``sample`` with 1 and 2 workers, and the
tracing overhead.  A layer metric a workload never exercises reads 0.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3  # fresh interpreters timed before the run, and again after it
DRIFT_FLAG = 0.15  # calibration change between start and end that flags a run

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, build_plan, materialize  # noqa: E402

LAYER_TIMES = {  # metric name -> span name; median self time per command
    "cli.build_parser.ms": "cli.build_parser",
    "cli.resolve_config.ms": "cli.resolve_config",
    "cli.main.self_ms": "cli.main",
    "cli.run.ms": "cli.run",
    "cli.emit.ms": "cli.emit",
    "reservoir.sample.ms": "reservoir.sample",
    "reservoir.empirical_probability.ms": "reservoir.empirical_probability",
    "reservoir.depletion_trajectory.ms": "reservoir.depletion_trajectory",
    "quantum.quantum_wigner_scan.ms": "quantum.quantum_wigner_scan",
    "quantum.singlet_sample.ms": "quantum.singlet_sample",
    "populations.exact_probability.ms": "populations.exact_probability",
    "populations.wigner_check.ms": "populations.wigner_check",
    "entropy.find_multiplicity_counterexample.ms": "entropy.find_multiplicity_counterexample",
}
LAYER_COUNTS = {  # metric name -> counter name; median per command that calls it
    "rng.stream.calls": "rng.stream",
    "quantum.singlet_prediction.calls": "quantum.singlet_prediction",
    "entropy.multiplicity_inequality.calls": "entropy.multiplicity_inequality",
}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# -- environment ---------------------------------------------------------


def _git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bellstat").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _calibrate() -> dict:
    """Machine-speed controls: 2^20 Philox draws (numpy only) and a pure
    Python loop, the fastest of seven each."""
    import numpy as np

    def clock(fn) -> float:
        times = []
        for _ in range(7):
            t0 = time.perf_counter_ns()
            fn()
            times.append((time.perf_counter_ns() - t0) / 1e6)
        return min(times)

    gen = np.random.Generator(np.random.Philox(key=0))
    return {
        "philox_ms": clock(lambda: gen.integers(0, 2**40, size=2**20)),
        "pyloop_ms": clock(lambda: sum(i * i for i in range(200_000))),
    }


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
    }


# -- running -------------------------------------------------------------


def _worker(*args: str, timeout: float) -> str:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed ({proc.returncode}): {proc.stderr.strip()}")
    return proc.stdout


def setup_probes(count: int) -> list[float]:
    """Set-up seconds of ``count`` fresh interpreters."""
    return [float(_worker("setup", str(SRC), timeout=60)) for _ in range(count)]


def check_reports(commands, records, run_dir: Path) -> dict[int, str]:
    """Oracle verdicts: pool index -> rejection reason, for every distinct
    report the run wrote.  CSV reports are compared with a JSON twin of the
    same command, made here outside the timed loop."""
    sys.path.insert(0, str(SRC))
    import bellstat.cli as cli
    from oracle import Oracle, Rejected

    oracle = Oracle(cli.dumps_stable)
    rejected: dict[int, str] = {}
    for rec in records:
        if not rec.get("output"):
            continue
        j = rec["index"]
        argv = commands[j].argv

        def twin() -> str:
            path = run_dir / f"twin{j}.json"
            json_argv = [("json" if a == "csv" else a) for a in argv]
            with redirect_stderr(io.StringIO()):
                code = cli.main(json_argv + ["--out", str(path)])
            if code != 0:
                raise Rejected(f"the JSON twin of a CSV command exited {code}")
            return path.read_text(encoding="utf-8")

        try:
            oracle.check(j, argv, Path(rec["output"]).read_text(encoding="utf-8"), twin)
        except Rejected as exc:
            rejected[j] = WRONG + str(exc)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            rejected[j] = WRONG + f"a field is missing or mistyped ({exc!r})"
    for j, reason in oracle.statistical_rejections().items():
        rejected.setdefault(j, WRONG + reason)
    return rejected


WRONG = "wrong report: "  # prefix of failures that are incorrect output


def classify(cmd, rec, rejected: dict[int, str]) -> str | None:
    """Why one command instance failed, or None when it succeeded."""
    if rec["error"] is not None:
        return f"traceback: {rec['error']}"
    code = rec["code"]
    if cmd.malformed and code == 2:
        # One message line, after argparse's usage lines when argparse rejects.
        lines = rec["stderr"].strip().splitlines()
        if lines and lines[-1].startswith("bellstat") and (
                len(lines) == 1 or lines[0].startswith("usage: ")):
            return None
        return "exit 2 without a one-line message"
    if code != 0:
        last = rec["stderr"].strip().splitlines()[-1:] or [""]
        return f"exit {code}: {last[0]}"
    if rec.get("same_as_first") is False:
        return WRONG + "differs from the first run of the same command"
    return rejected.get(rec["index"])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with at
    least ten samples above it, or the maximum when there are too few."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, 0
    k = n - 11
    return s[k], 100.0 * (k + 1) / n, n - 1 - k


def layer_metrics(records, replays: dict) -> dict[str, tuple[float, str]]:
    layers = [r["layers"] for r in records if r["traced"]]
    m: dict[str, tuple[float, str]] = {}
    for metric, span in LAYER_TIMES.items():
        m[metric] = (median(l["self_ms"][span] for l in layers if span in l["self_ms"]), "ms")
    for metric, counter in LAYER_COUNTS.items():
        m[metric] = (median(l["counts"][counter] for l in layers if l["counts"].get(counter)),
                     "count")
    m["cli.emit.bytes"] = (median(l["emit_bytes"] for l in layers if l["emit_bytes"]), "bytes")
    m["reservoir.sample.draws"] = (median(l["draws"] for l in layers if l["draws"]), "count")
    m["rng.draw_ms"] = (median(l["draw_ms"] for l in layers if "draw_ms" in l), "ms")
    shares = []
    for l in layers:
        sampling = (l["self_ms"].get("reservoir.sample", 0.0)
                    + l["self_ms"].get("reservoir.depletion_trajectory", 0.0))
        if "draw_ms" in l and sampling > 0:
            shares.append(l["draw_ms"] / sampling)
    m["reservoir.rng_share"] = (median(shares), "ratio")
    w1, w2 = replays.get("w1_ms", 0.0), replays.get("w2_ms", 0.0)
    m["reservoir.sample.w1_ms"] = (w1, "ms")
    m["reservoir.sample.w2_ms"] = (w2, "ms")
    m["reservoir.pool_speedup"] = (w1 / w2 if w2 else 0.0, "ratio")
    m["reservoir.sample.alloc_peak_mb"] = (replays.get("sample_alloc_mb", 0.0), "MB")
    m["reservoir.depletion_trajectory.alloc_peak_mb"] = (replays.get("drain_alloc_mb", 0.0), "MB")
    plain = [r["ns"] / 1e6 for r in records if not r["traced"]]
    traced = [r["ns"] / 1e6 for r in records if r["traced"]]
    m["trace.overhead_ratio"] = (median(traced) / median(plain), "ratio")
    return m


def span_breakdown(records) -> dict[str, float]:
    """Median self ms per command of every span name, for the printout."""
    layers = [r["layers"] for r in records if r["traced"]]
    names = sorted({name for l in layers for name in l["self_ms"]})
    return {name: median(l["self_ms"][name] for l in layers if name in l["self_ms"])
            for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the benchmark's self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "bellstat" / "cli.py").is_file():
        print(f"bench: no bellstat sources at {SRC}; run from a checkout root", file=sys.stderr)
        return 2

    env = environment()
    calib_start = _calibrate()
    workers = min(2, env["usable_cpus"])
    plan = build_plan(args.workload, args.seed, workers, args.size)
    run_dir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        commands, malformed = materialize(plan, run_dir)
        plan_path, result_path = run_dir / "plan.json", run_dir / "result.json"
        plan_path.write_text(json.dumps({
            "commands": [{"argv": c.argv} for c in commands],
            "probes": [c.argv for c in malformed],
            "seconds": args.seconds, "trace": bool(args.trace),
            "workers": workers, "out_dir": str(run_dir),
        }), encoding="utf-8")
        setups, count = [], (0 if args.trace else 1 if args.size == "tiny" else SETUP_PROBES)
        if count:
            setup_probes(1)  # warm-up: leaves compiled bytecode behind
            setups = setup_probes(count)
        _worker("run", str(SRC), str(plan_path), str(result_path), timeout=args.seconds + 100)
        result = json.loads(result_path.read_text(encoding="utf-8"))
        records, probe_records = result["records"], result["probes"]
        commands += malformed  # a probe record's index points past the timed commands
        rejected = check_reports(commands, records + probe_records, run_dir)
        setups += setup_probes(count)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:
            pass
    calib_end = _calibrate()

    failures: dict[int, list] = {}
    for rec in records:
        reason = classify(commands[rec["index"]], rec, rejected)
        if reason is not None:
            failures.setdefault(rec["index"], [reason, 0])[1] += 1
    attempted = len(records)
    failed = sum(count for _, count in failures.values())
    probe_outcomes = {rec["index"]: classify(commands[rec["index"]], rec, rejected)
                      for rec in probe_records}
    # Only a wrong report or a failing valid command makes the run incorrect;
    # malformed inputs that crash are listed by input.
    failing = {j: r for j, (r, _) in failures.items()}
    failing.update((j, r) for j, r in probe_outcomes.items() if r is not None)
    correct = not any(r.startswith(WRONG) or not commands[j].malformed
                      for j, r in failing.items())

    drift = calib_end["philox_ms"] / calib_start["philox_ms"] - 1.0
    print(f"bellstat benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} size={args.size}")
    print("environment: " + json.dumps(env))
    print(f"calibration: philox 2^20 draws {calib_start['philox_ms']:.3f} -> "
          f"{calib_end['philox_ms']:.3f} ms (drift {drift:+.1%}"
          f"{', FLAGGED: machine speed changed during the run' if abs(drift) > DRIFT_FLAG else ''}), "
          f"python loop {calib_start['pyloop_ms']:.3f} -> {calib_end['pyloop_ms']:.3f} ms")

    record = {"env": env, "calibration": {"start": calib_start, "end": calib_end},
              "failures": [{"input": " ".join(commands[j].argv), "class": commands[j].malformed,
                            "reason": reason, "count": count}
                           for j, (reason, count) in sorted(failures.items())],
              "probes": [{"input": " ".join(commands[j].argv), "class": commands[j].malformed,
                          "code": rec["code"], "failure": probe_outcomes[j]}
                         for rec in probe_records for j in [rec["index"]]]}
    if args.trace:
        metrics = layer_metrics(records, result["replays"])
        record["span_self_ms"] = span_breakdown(records)
    else:
        latencies = [r["ns"] / 1e6 for r in records]
        tail_ms, pct, beyond = tail(latencies)
        metrics = {
            "setup_s": (median(setups + [result["setup_s"]]), "s"),
            "cmd_mean_ms": (statistics.fmean(latencies), "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "ok_rate": ((attempted - failed) / attempted, "ratio"),
        }
        record["cmd_p50_ms"] = median(latencies)
        record["cmd_tail"] = {"ms": tail_ms, "percentile": pct,
                              "samples": len(latencies), "beyond": beyond}
        record["setup_samples_s"] = setups + [result["setup_s"]]

    for name, (value, unit) in metrics.items():
        print(f"  {name:<45} {value:>14.6g} {unit}")
    if not args.trace:
        print(f"  {'cmd_p50_ms':<45} {record['cmd_p50_ms']:>14.6g} ms   (not gated)")
        print(f"  {'cmd_tail_ms':<45} {tail_ms:>14.6g} ms   (not gated; "
              f"p{pct:.1f} of {len(latencies)} commands, {beyond} beyond)")
    print(f"  {'error_rate':<45} {failed / attempted:>14.6g} ratio   ({failed} of {attempted})")
    for f in record["failures"]:
        print(f"  FAILED x{f['count']} [{f['class'] or 'valid'}] {f['input']}\n      {f['reason']}")
    if record["probes"]:
        bad = [p for p in record["probes"] if p["failure"]]
        print(f"  malformed-input probes, untimed: {len(bad)} of {len(record['probes'])} failed")
        for p in record["probes"]:
            verdict = f"FAILED: {p['failure']}" if p["failure"] else f"ok (exit {p['code']})"
            print(f"    [{p['class']}] {p['input']}\n      {verdict}")
    if args.trace:
        print("  span self time, median ms per command that calls it:")
        for name, ms in record["span_self_ms"].items():
            print(f"    {name:<43} {ms:>14.6g}")
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
