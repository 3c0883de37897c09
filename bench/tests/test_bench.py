"""Self-test of the benchmark: a tiny pass of every workload, and mutation
checks that the oracle rejects altered reports.

Run from the checkout root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bellstat.cli as cli  # noqa: E402
from oracle import Oracle, Rejected, binomial_two_sided_p  # noqa: E402
from workloads import MALFORMED_CLASSES, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(l for l in lines if l.startswith("record: "))[len("record: "):])
    return json.loads(lines[-1]), record


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_reports_every_metric(workload, trace):
    result, record = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["attempted"] >= 1
    # The timed commands are all valid and never fail; malformed inputs run
    # as untimed probes on mixed-small, one per validation class, each listed.
    assert result["correct"] is True
    assert result["failed"] == 0 and record["failures"] == []
    classes = [p["class"] for p in record["probes"]]
    assert classes == (list(MALFORMED_CLASSES) if workload == "mixed-small" else [])


def _report(tmp_path: Path, argv: list[str]) -> str:
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def _altered(text: str, edit) -> str:
    doc = json.loads(text)
    edit(doc["results"])
    return cli.dumps_stable(doc) + "\n"


SIMULATE = ["simulate", "--table", "5,1,4,1,5,9,2,6", "--samples", "70000", "--seed", "3"]
DRAIN = ["drain", "--table", "3,0,4,1,5,0,2,6", "--seed", "8"]


def test_oracle_accepts_real_reports(tmp_path):
    oracle = Oracle(cli.dumps_stable)
    oracle.check(0, SIMULATE, _report(tmp_path, SIMULATE))
    oracle.check(1, DRAIN, _report(tmp_path, DRAIN))
    assert oracle.statistical_rejections() == {}


def test_oracle_rejects_an_altered_p_hat(tmp_path):
    def bump(results):
        results["estimates"][1]["p_hat"] += 1.0 / 70000

    text = _altered(_report(tmp_path, SIMULATE), bump)
    with pytest.raises(Rejected, match="p_hat"):
        Oracle(cli.dumps_stable).check(0, SIMULATE, text)


def test_oracle_rejects_an_altered_remaining(tmp_path):
    def shift(results):
        step = results["steps"][5]["remaining"]
        i = next(k for k, c in enumerate(step) if c > 0)
        step[i] -= 1
        step[(i + 1) % 8] += 1

    text = _altered(_report(tmp_path, DRAIN), shift)
    with pytest.raises(Rejected, match="remaining"):
        Oracle(cli.dumps_stable).check(0, DRAIN, text)


def test_binomial_tail_is_two_sided_and_exact():
    assert binomial_two_sided_p(5, 10, 0.5) == 1.0
    # P(X >= 9) for Bin(10, 1/2) is 11/1024; two-sided doubles it.
    assert binomial_two_sided_p(9, 10, 0.5) == pytest.approx(22 / 1024, rel=1e-12)
    assert binomial_two_sided_p(1, 10, 0.5) == pytest.approx(22 / 1024, rel=1e-12)
