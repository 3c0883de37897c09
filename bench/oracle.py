"""Independent output oracle for bellstat reports.

The oracle re-derives every checked value from the command's inputs with its
own arithmetic: population membership from sign triples, exact probabilities
with ``Fraction``, ``simulate`` estimates from the documented Philox contract
(key ``chunk * 2**64 + seed``, 65,536-draw chunks, integer thresholds), drain
trajectories with a scalar replay, and singlet predictions from the closed
form.  Only two things come from the program itself: ``dumps_stable``, for
the emit -> parse -> emit round trip the report format promises, and the JSON
twin of a CSV command, whose rows must agree with it.

Sampler estimates (``quantum``, and ``simulate`` tables too large to replay)
are statistical.  Each is an exact binomial test at the two-sided 4-sigma
level, 6.3e-5, divided by the number of such tests in the run (Bonferroni),
so a correct program fails a whole run's statistical checks with probability
below 6.3e-5 however many estimates the run checks.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Any, Callable

import numpy as np

SCHEMA_ID = "bellstat-report/1"
TOL = 1e-12
CHUNK_SIZE = 65536
FOUR_SIGMA_TWO_SIDED = math.erfc(4.0 / math.sqrt(2.0))

# Particle 1's signs along (a, b, c) for populations 1..8, + before -.
_TRIPLES = tuple(product((1, -1), repeat=3))
_AXIS = {"a": 0, "b": 1, "c": 2}
WIGNER = (("a", 1, "b", 1), ("a", 1, "c", 1), ("c", 1, "b", 1))

DEFAULTS: dict[str, Any] = {
    "seed": 42, "samples": 100_000, "steps": 1, "epsilon": 0.05,
    "policy": "equal", "mode": "infinite", "format": "json",
}

CSV_HEADERS = {
    "exact": ["term", "alice_axis", "alice_sign", "bob_axis", "bob_sign",
              "populations", "numerator", "denominator", "probability"],
    "simulate": ["outcome", "alice_axis", "alice_sign", "bob_axis", "bob_sign",
                 "p_hat", "stderr", "n", "reference"],
    "drain": ["step", "population", *(f"p{i}" for i in range(1, 9)),
              *(f"remaining{i}" for i in range(1, 9))],
    "quantum": ["theta", "lhs", "rhs", "violated"],
    "entropy": ["inequality", "lhs", "rhs", "margin", "holds",
                "equal_multiplicity_precondition"],
    "counterexample": ["found", *(f"omega{i}" for i in range(1, 9)), "lhs", "rhs", "margin"],
}


class Rejected(Exception):
    """A report disagrees with the oracle; the message says where."""


def contributing(outcome: tuple[str, int, str, int]) -> tuple[int, ...]:
    """Populations whose particle 1 gives Alice's sign and particle 2 Bob's."""
    a_axis, a_sign, b_axis, b_sign = outcome
    return tuple(
        i + 1 for i, t in enumerate(_TRIPLES)
        if t[_AXIS[a_axis]] == a_sign and -t[_AXIS[b_axis]] == b_sign
    )


def outcome_label(outcome: tuple[str, int, str, int]) -> str:
    a_axis, a_sign, b_axis, b_sign = outcome
    sign = lambda s: "+" if s > 0 else "-"
    return f"({sign(a_sign)}{a_axis};{sign(b_sign)}{b_axis})"


def binomial_two_sided_p(k: int, n: int, p: float) -> float:
    """Exact two-sided tail probability of ``k`` successes in Bin(n, p):
    twice the tail beyond ``k`` on its side of the mean, capped at 1."""
    if not 0 <= k <= n:
        return 0.0
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == (0 if p <= 0.0 else n) else 0.0
    log_norm = math.lgamma(n + 1)
    log_p, log_q = math.log(p), math.log1p(-p)
    step = 1 if k >= n * p else -1
    total, j = 0.0, k
    while 0 <= j <= n:
        term = math.exp(log_norm - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                        + j * log_p + (n - j) * log_q)
        total += term
        if term < total * 1e-17:
            break
        j += step
    return min(1.0, 2.0 * total)


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Rejected(what)


def _close(x: float, y: float, what: str, rel: float = 1e-12) -> None:
    _expect(abs(x - y) <= rel * max(1.0, abs(x), abs(y)), f"{what}: {x!r} != {y!r}")


def parse_argv(argv: list[str]) -> dict[str, Any]:
    """Inputs of one command: its flags over its config file over defaults."""
    values = dict(DEFAULTS, command=argv[0])
    flags: dict[str, str] = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        flags[flag.lstrip("-").replace("-", "_")] = value
    if "config" in flags:
        values.update(json.loads(Path(flags.pop("config")).read_text(encoding="utf-8")))
    if "axes_spacing" in flags:
        flags["axes_spacing_deg"] = flags.pop("axes_spacing")
    for key, text in flags.items():
        if key == "table":
            values[key] = [int(x) for x in text.split(",")]
        elif key == "omegas":
            values[key] = [float(x) for x in text.split(",")]
        elif key in ("seed", "samples"):
            values[key] = int(text)
        elif key in ("epsilon", "axes_spacing_deg"):
            values[key] = float(text)
        else:
            values[key] = text
    return values


class Oracle:
    """Checks reports one at a time and collects the run's statistical tests.

    ``check`` raises :class:`Rejected` on a definite disagreement;
    :meth:`statistical_rejections` evaluates the collected binomial tests
    once every report of the run has been seen.
    """

    def __init__(self, dumps_stable: Callable[[Any], str]):
        self._dumps_stable = dumps_stable
        self._tests: list[tuple[Any, str, int, int, float]] = []

    # -- entry points -----------------------------------------------------

    def check(self, key: Any, argv: list[str], text: str,
              json_twin: Callable[[], str] | None = None) -> None:
        """Check the report ``text`` that ``argv`` produced.  ``key`` tags the
        statistical tests of this report.  A CSV report needs ``json_twin``,
        which returns the same command's JSON report."""
        inputs = parse_argv(argv)
        if inputs["format"] == "csv":
            if json_twin is None:
                raise Rejected("CSV report without a JSON twin to compare")
            doc = self._check_json(key, json_twin(), inputs)
            self._check_csv(text, inputs["command"], doc["results"])
        else:
            self._check_json(key, text, inputs)

    def statistical_rejections(self) -> dict[Any, str]:
        """Reports whose sampler estimates fail the run-wide binomial test."""
        alpha = FOUR_SIGMA_TWO_SIDED / max(1, len(self._tests))
        failed: dict[Any, str] = {}
        for key, label, k, n, p in self._tests:
            pval = binomial_two_sided_p(k, n, p)
            if pval < alpha and key not in failed:
                failed[key] = (f"{label}: {k} of {n} vs p={p:.6g} "
                               f"(two-sided p={pval:.3g} < {alpha:.3g})")
        return failed

    # -- JSON reports -----------------------------------------------------

    def _check_json(self, key: Any, text: str, inputs: dict) -> dict:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise Rejected(f"report is not JSON: {exc}") from None
        _expect(self._dumps_stable(doc) + "\n" == text,
                "emit -> parse -> dumps_stable is not byte-identical")
        _expect(isinstance(doc, dict) and set(doc) == {"config", "results", "meta"},
                "top level must be exactly {config, results, meta}")
        _expect(doc["meta"].get("schema") == SCHEMA_ID, "wrong schema id")
        config, results = doc["config"], doc["results"]
        command = inputs["command"]
        _expect(config["command"] == command, "config.command differs from argv")
        for name in ("table", "omegas", "seed", "samples", "steps", "axes_spacing_deg"):
            if name in inputs and inputs[name] is not None and name in config:
                _expect(config[name] == inputs[name], f"config.{name} differs from input")
        check = getattr(self, f"_check_{command}")
        check(key, inputs, results)
        return doc

    def _exact_wigner(self, table: list[int], wigner: dict) -> list[Fraction]:
        total = sum(table)
        probs = [Fraction(sum(table[i - 1] for i in contributing(o)), total) for o in WIGNER]
        _expect(wigner["lhs"] == float(probs[0]), "exact wigner lhs")
        _expect(wigner["rhs"] == float(probs[1] + probs[2]), "exact wigner rhs")
        _expect(wigner["margin"] == wigner["rhs"] - wigner["lhs"], "exact wigner margin")
        _expect(probs[1] + probs[2] - probs[0] == Fraction(table[1] + table[6], total),
                "margin identity (N2 + N7) / total")
        _expect(wigner["holds"] is True, "exact Wigner inequality must hold for a table")
        for term, outcome, prob in zip(wigner["terms"], WIGNER, probs):
            _expect(tuple(term["populations"]) == contributing(outcome),
                    f"term {term['label']} populations")
            _expect((term["numerator"], term["denominator"])
                    == (prob.numerator, prob.denominator), f"term {term['label']} ratio")
        return probs

    def _check_exact(self, key, inputs, results) -> None:
        probs = self._exact_wigner(inputs["table"], results["wigner"])
        _expect(len(results["probabilities"]) == 3, "three outcome probabilities")
        for entry, outcome, prob in zip(results["probabilities"], WIGNER, probs):
            _expect(entry["outcome"]["label"] == outcome_label(outcome), "outcome label")
            _expect((entry["numerator"], entry["denominator"])
                    == (prob.numerator, prob.denominator), f"{outcome_label(outcome)} ratio")
            _expect(entry["value"] == float(prob), f"{outcome_label(outcome)} value")

    def _check_simulate(self, key, inputs, results) -> None:
        table, n, seed = inputs["table"], inputs["samples"], inputs["seed"]
        total = sum(table)
        _expect(results["mode"] == "infinite" and results["draws"] == n, "mode / draw count")
        exact = self._exact_wigner(table, results["exact_wigner"])
        estimates = results["estimates"]
        _expect(len(estimates) == 3, "three estimates")
        if total < 2**63:
            counts = philox_population_counts(table, seed, n)
        for est, outcome, p_exact in zip(estimates, WIGNER, exact):
            label = outcome_label(outcome)
            _expect(est["outcome"]["label"] == label, "estimate outcome label")
            _expect(est["n"] == n, f"{label} n")
            _expect(est["reference"] == float(p_exact), f"{label} reference")
            p_hat = est["p_hat"]
            if total < 2**63:
                hits = sum(counts[i - 1] for i in contributing(outcome))
                _expect(p_hat == hits / n, f"{label} p_hat {p_hat!r} != replay {hits / n!r}")
            else:
                hits = round(p_hat * n)
                _expect(hits / n == p_hat, f"{label} p_hat is not a count ratio")
                self._tests.append((key, f"simulate {label}", hits, n, float(p_exact)))
            _close(est["stderr"], math.sqrt(p_hat * (1.0 - p_hat) / n), f"{label} stderr")
        emp = results["empirical_wigner"]
        p = [e["p_hat"] for e in estimates]
        _expect(emp["lhs"] == p[0] and emp["rhs"] == p[1] + p[2], "empirical wigner sides")
        _expect(emp["margin"] == emp["rhs"] - emp["lhs"], "empirical wigner margin")
        _expect(emp["holds"] == (emp["margin"] >= -TOL), "empirical wigner verdict")

    def _check_drain(self, key, inputs, results) -> None:
        remaining = list(inputs["table"])
        total = sum(remaining)
        steps = results["steps"]
        _expect(results["initial_total"] == total and len(steps) == total,
                "a drain has one step per pair")
        for k, step in enumerate(steps, start=1):
            _expect(step["step"] == k, f"step {k} numbering")
            pop = step["population"]
            _expect(1 <= pop <= 8 and remaining[pop - 1] > 0,
                    f"step {k} draws from an empty population {pop}")
            _expect(step["conditional_probabilities"] == [c / total for c in remaining],
                    f"step {k} conditionals are not remaining/total")
            remaining[pop - 1] -= 1
            total -= 1
            _expect(step["remaining"] == remaining, f"step {k} remaining is not previous minus draw")
        last = steps[-1]
        _expect(last["conditional_probabilities"][last["population"] - 1] == 1.0
                and results["final_conditional_probability"] == 1.0,
                "the last conditional must be 1.0")

    def _check_quantum(self, key, inputs, results) -> None:
        spacing, steps = inputs["axes_spacing_deg"], inputs["steps"]
        scan = results["scan"]
        _expect(len(scan) == steps, "one scan point per step")
        spacing_rad = math.radians(spacing)
        for k, pt in enumerate(scan, start=1):
            _expect(pt["theta_deg"] == spacing * k / steps, f"scan point {k} angle")
            theta = spacing_rad * k / steps
            _close(pt["lhs"], 0.5 * math.sin(theta) ** 2, f"scan {k} lhs")
            _close(pt["rhs"], math.sin(theta / 2.0) ** 2, f"scan {k} rhs")
            _expect(pt["violated"] == (pt["theta_deg"] < 90.0), f"scan {k} violated flag")
        sampler = results["sampler"]
        _expect(sampler["n"] == inputs["samples"], "sampler n")
        angle = {"a": 0.0, "c": spacing_rad, "b": 2.0 * spacing_rad}
        for est, outcome in zip(sampler["estimates"], WIGNER):
            label = outcome_label(outcome)
            _expect(est["outcome"]["label"] == label, "sampler outcome label")
            diff = abs(angle[outcome[0]] - angle[outcome[2]])
            theta = min(diff, 2.0 * math.pi - diff)
            predicted = 0.5 * math.sin(theta / 2.0) ** 2
            _close(est["reference"], predicted, f"{label} reference")
            n_pair = est["n"]
            hits = round(est["p_hat"] * n_pair)
            _expect(hits / n_pair == est["p_hat"], f"{label} p_hat is not a count ratio")
            self._tests.append((key, f"quantum {label} pair count", n_pair,
                                inputs["samples"], 1.0 / 9.0))
            self._tests.append((key, f"quantum {label}", hits, n_pair, predicted))

    def _check_entropy(self, key, inputs, results) -> None:
        w = inputs.get("omegas")
        if w is None:
            w = [1.0] * 8 if inputs["policy"] == "equal" else [float(c) for c in inputs["table"]]
        _expect(results["omegas"] == w, "omegas echo")
        mult = results["multiplicity_inequality"]
        _close(mult["lhs"], w[2] * w[3], "sum form lhs")
        _close(mult["rhs"], w[1] * w[3] + w[2] * w[6], "sum form rhs")
        _expect(mult["holds"] == (mult["rhs"] - mult["lhs"] >= -TOL), "sum form verdict")
        eps = inputs["epsilon"]
        _expect(mult["equal_multiplicity_precondition"]
                == (max(w) / min(w) <= 1.0 + eps + TOL), "equal-multiplicity precondition")
        prod = results["product_inequality"]
        _close(prod["lhs"], w[2] * w[3], "product form lhs")
        _close(prod["rhs"], w[1] * w[3] * w[2] * w[6], "product form rhs")
        ent = results["entropy_inequality"]
        s = [math.log(x) for x in w]
        _close(ent["lhs"], s[2] + s[3], "entropy form lhs")
        _close(ent["rhs"], s[1] + s[3] + s[2] + s[6], "entropy form rhs")
        _expect(prod["holds"] == ent["holds"], "product-form and entropy-form verdicts differ")
        ratios = results["entropy_ratios"]
        if abs(math.fsum(s)) >= 1e-300:
            _expect(ratios is not None and len(ratios) == 8, "entropy ratios")
            for r, x in zip(ratios, s):
                _close(r, x / math.fsum(s), "entropy ratio", 1e-9)

    def _check_counterexample(self, key, inputs, results) -> None:
        _expect(results["budget"] == inputs["samples"], "search budget")
        if not results["found"]:
            _expect(results["omegas"] is None and results["report"] is None, "empty result")
            return
        w = results["omegas"]
        _expect(len(w) == 8 and all(0.1 <= x <= 100.0 for x in w),
                "a candidate lies inside the searched range 10^[-1, 2]")
        report = results["report"]
        _close(report["lhs"], w[2] * w[3], "counterexample lhs")
        _close(report["rhs"], w[1] * w[3] + w[2] * w[6], "counterexample rhs")
        _expect(report["holds"] is False and report["rhs"] - report["lhs"] < -TOL,
                "a counterexample must violate the sum form")

    # -- CSV reports ------------------------------------------------------

    def _check_csv(self, text: str, command: str, results: dict) -> None:
        lines = text.split("\n")
        _expect(lines[-1] == "", "CSV must end with a newline")
        rows = [line.split(",") for line in lines[:-1]]
        _expect(rows and rows[0] == CSV_HEADERS[command], "CSV header")
        expected = [[_cell(v) for v in row] for row in _json_rows(command, results)]
        _expect(len(rows) - 1 == len(expected), "CSV row count differs from the JSON report")
        for i, (got, want) in enumerate(zip(rows[1:], expected), start=1):
            _expect(got == want, f"CSV row {i} differs from the JSON report")


def _cell(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    if v is None:
        return ""
    return str(v)


def _json_rows(command: str, r: dict) -> list[list[Any]]:
    """The rows a CSV report must carry, read from the JSON report's fields."""
    if command == "exact":
        return [[t["label"], t["outcome"]["alice_axis"], t["outcome"]["alice_sign"],
                 t["outcome"]["bob_axis"], t["outcome"]["bob_sign"],
                 ";".join(str(p) for p in t["populations"]),
                 t["numerator"], t["denominator"], t["value"]]
                for t in r["wigner"]["terms"]]
    if command == "simulate":
        return [[e["outcome"]["label"], e["outcome"]["alice_axis"], e["outcome"]["alice_sign"],
                 e["outcome"]["bob_axis"], e["outcome"]["bob_sign"],
                 e["p_hat"], e["stderr"], e["n"], e["reference"]]
                for e in r["estimates"]]
    if command == "drain":
        return [[s["step"], s["population"], *s["conditional_probabilities"], *s["remaining"]]
                for s in r["steps"]]
    if command == "quantum":
        return [[p["theta_deg"], p["lhs"], p["rhs"], p["violated"]] for p in r["scan"]]
    if command == "entropy":
        return [[name, r[name]["lhs"], r[name]["rhs"], r[name]["margin"], r[name]["holds"],
                 r[name].get("equal_multiplicity_precondition")]
                for name in ("multiplicity_inequality", "product_inequality",
                             "entropy_inequality")]
    if not r["found"]:
        return []
    rep = r["report"]
    return [[True, *r["omegas"], rep["lhs"], rep["rhs"], rep["margin"]]]


def philox_population_counts(table: list[int], seed: int, n: int) -> list[int]:
    """Population histogram of ``n`` infinite-mode draws, rebuilt from the
    documented contract: chunk ``c`` draws ``integers(0, total)`` from Philox
    key ``c * 2**64 + seed`` and maps each draw through integer thresholds."""
    thresholds = np.cumsum(np.asarray(table, dtype=np.int64))
    total = int(thresholds[-1])
    counts = np.zeros(8, dtype=np.int64)
    for chunk in range(math.ceil(n / CHUNK_SIZE)):
        size = min(CHUNK_SIZE, n - chunk * CHUNK_SIZE)
        gen = np.random.Generator(np.random.Philox(key=(chunk << 64) | seed))
        draws = gen.integers(0, total, size=size)
        counts += np.bincount(np.searchsorted(thresholds, draws, side="right"), minlength=8)
    return [int(c) for c in counts]
