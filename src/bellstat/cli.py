"""Command-line front end: ``bellstat <command> [options]``.

Commands
--------
exact           Wigner inequality and exact outcome probabilities of a table.
simulate        Monte Carlo reservoir sampling (infinite or finite mode).
drain           Fully drain a finite bag and record the trajectory.
quantum         Singlet-prediction inequality scan plus sampler estimates;
                ``steps`` grids an ``--axes-spacing`` scan, explicit axes give one point.
entropy         Multiplicity/entropy inequality checks on a vector.
counterexample  Random search for a sum-form inequality violator.

Each command is one :class:`Command` entry in :data:`COMMANDS` (help line,
pipeline, CSV header and CSV rows); the parser, :func:`run` and :func:`emit`
all read that table.  Every command takes the same options, and each value
is checked once: its JSON type by ``_CONVERTERS``, its range by
:class:`ExperimentConfig`, so a bad flag or config value exits 2 with one line.
Sizes are capped where memory or report rows would run away: ``samples`` at
:data:`MAX_SAMPLES`, ``steps`` and a drained bag's total at :data:`MAX_ROWS`.

A single JSON config file can carry every option; command-line flags
override file values, which override defaults (seed 42, samples 100000,
epsilon 0.05, policy equal).  ``--config`` also accepts a shipped preset
name: wigner-uniform, marble-bag, quantum-60, counterexample-search.

Reports have a stable top-level schema ``{config, results, meta}``
(schema id bellstat-report/1).  Identical configs yield byte-identical
``config`` and ``results`` sections regardless of ``--workers``; wall-clock
duration and worker count live in ``meta`` only.  Floats are emitted with 17
significant digits, so emit -> parse -> emit is byte-identical.  The one writer,
:func:`dumps_stable`, fills a cached template per dict shape.  A list of
same-keyed rows becomes one string per block of up to 1024 rows, through one
row template and one ``%``: float and int columns, and columns of equal-length
float or int lists, are formatted by the ``%`` itself; any other column is
inserted as its value texts.  The CSV rows share the same column pieces.

Exit codes: 0 success, 2 validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from . import __version__
from .errors import ValidationError
from .populations import (
    Axis,
    AxisTriple,
    InequalityReport,
    PairOutcome,
    PopulationTable,
    Term,
    WIGNER_OUTCOMES,
    exact_probability,
    wigner_check,
    wigner_check_probabilities,
)
from .entropy import (
    MultiplicityVector,
    entropy_inequality,
    entropy_ratios,
    find_multiplicity_counterexample,
    multiplicity_inequality,
    product_inequality,
)
from .quantum import quantum_wigner_scan, singlet_prediction, singlet_sample, wigner_point
from .reservoir import (
    EmpiricalEstimate,
    ReservoirSpec,
    depletion_trajectory,
    empirical_probability,
    sample,
)
from .rng import validate_seed
from .presets import PRESET_NAMES, load_preset

SCHEMA_ID = "bellstat-report/1"

#: Upper bound on ``samples``: a sample budget of this size fits in memory.
MAX_SAMPLES = 10**8

#: Upper bound on ``steps`` and on a drained bag's total: each is a report row.
MAX_ROWS = 10**6


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved, validated experiment description."""

    command: str
    table: PopulationTable | None = None
    omegas: MultiplicityVector | None = None
    axes_spacing_deg: float | None = None
    axes: AxisTriple | None = None
    steps: int = 1
    samples: int = 100_000
    seed: int = 42
    policy: str = "equal"
    epsilon: float = 0.05
    mode: str = "infinite"
    format: str = "json"
    out: str | None = None

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")
        validate_seed(self.seed)
        if self.samples < 1:
            raise ValidationError(f"samples must be >= 1, got {self.samples}")
        if self.samples > MAX_SAMPLES:
            raise ValidationError(f"samples must be at most {MAX_SAMPLES}, got {self.samples}")
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        if self.steps > MAX_ROWS:
            raise ValidationError(f"steps must be at most {MAX_ROWS}, got {self.steps}")
        if not math.isfinite(self.epsilon):
            raise ValidationError(f"epsilon must be finite, got {self.epsilon}")
        if self.epsilon < 0:
            raise ValidationError(f"epsilon must be nonnegative, got {self.epsilon}")
        if self.policy not in ("equal", "proportional"):
            raise ValidationError(f"policy must be 'equal' or 'proportional', got {self.policy!r}")
        if self.mode not in ("infinite", "finite"):
            raise ValidationError(f"mode must be 'infinite' or 'finite', got {self.mode!r}")
        if self.format not in ("json", "csv"):
            raise ValidationError(f"format must be 'json' or 'csv', got {self.format!r}")
        if self.axes_spacing_deg is not None and not 0.0 < self.axes_spacing_deg < 180.0:
            raise ValidationError(
                f"axes spacing must be in (0, 180) degrees, got {self.axes_spacing_deg}"
            )
        if self.command in ("exact", "simulate", "drain") and self.table is None:
            raise ValidationError(f"command {self.command!r} requires a population table")
        if self.command == "quantum" and self.axes_spacing_deg is None and self.axes is None:
            raise ValidationError("command 'quantum' requires --axes-spacing or explicit axes")
        if self.command == "quantum" and self.axes is not None and self.steps > 1:
            raise ValidationError(
                f"steps applies only to --axes-spacing scans, got {self.steps} with explicit axes"
            )
        if self.command == "entropy" and self.omegas is None and self.table is None:
            raise ValidationError("command 'entropy' requires --omegas or a table to derive them")
        if self.command == "simulate" and self.mode == "finite":
            assert self.table is not None
            if self.samples > self.table.total:
                raise ValidationError(
                    f"cannot draw {self.samples} pairs from a finite bag of {self.table.total}"
                )


# Every config key with its default; the keys a config file or flag may set.
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig) if f.name != "command"}


@dataclass(frozen=True)
class RunReport:
    config: dict
    results: dict
    meta: dict

    def document(self) -> dict:
        return {"config": self.config, "results": self.results, "meta": self.meta}


# ---------------------------------------------------------------------------
# Stable serialization: sorted keys, %.17g floats, byte-stable round trips.
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError(f"cannot serialize non-finite number {x!r}")
    return format(x, ".17g")


#: JSON text of each scalar type, by exact type (subclasses: see dumps_stable).
_SCALARS: dict[type, Callable[[Any], str]] = {
    type(None): lambda _: "null",
    bool: {True: "true", False: "false"}.__getitem__,
    int: repr,
    float: _format_float,
    str: json.dumps,
}


@lru_cache(maxsize=256)
def _template(keys: tuple[str, ...], indent: int, pieces: tuple[str, ...] | None = None) -> str:
    """A dict with these sorted keys at ``indent``, one piece (``%s`` unless
    given) per value."""
    inner = "  " * (indent + 1)
    pieces = pieces or ("%s",) * len(keys)
    items = ",\n".join(
        inner + json.dumps(k).replace("%", "%%") + ": " + piece for k, piece in zip(keys, pieces)
    )
    return "{\n" + items + "\n" + "  " * indent + "}"


def _number(values: Sequence[Any]) -> str | None:
    """The ``%`` piece of a column of exact finite floats or exact ints, else None."""
    kinds = set(map(type, values))
    if kinds == {float}:
        return "%.17g" if all(map(math.isfinite, values)) else None
    return "%d" if kinds == {int} else None


def _texts(values: Sequence[Any], indent: int) -> list[str]:
    """JSON texts of ``values`` at ``indent``, in one pass when all share a scalar type."""
    if (piece := _number(values)) is not None:
        return ((piece + "\0") * len(values) % tuple(values)).split("\0")[:-1]
    kinds = set(map(type, values))
    to_text = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
    return list(map(to_text, values)) if to_text else [dumps_stable(v, indent) for v in values]


def _column(values: Sequence[Any], indent: int) -> tuple[str, list[Sequence[Any]]]:
    """The template piece of one column of values at ``indent`` and the value
    columns that fill it: a number column fills in the ``%``, a column of
    equal-length numeric lists spreads over one value column per element, and
    any other column is filled with its ``_texts``."""
    if (piece := _number(values)) is not None:
        return piece, [values]
    n = len(values[0]) if type(values[0]) is list else 0
    if n and all(type(v) is list and len(v) == n for v in values):
        elements = list(zip(*values))
        pieces = list(map(_number, elements))
        if None not in pieces:
            inner = "\n" + "  " * (indent + 1)
            return "[" + ",".join(inner + p for p in pieces) + "\n" + "  " * indent + "]", elements
    return "%s", [_texts(values, indent)]


def _rows(rows: Sequence[dict], indent: int) -> Iterator[str]:
    """Same-keyed dicts at ``indent``, each block of up to 1024 rows as one
    string: one row template repeated over the block, filled by one ``%``."""
    keys = sorted(rows[0])
    names = tuple(map(str, keys))
    sep = ",\n" + "  " * indent
    for i in range(0, len(rows), 1024):
        block = rows[i:i + 1024]
        pieces, columns = [], []
        for k in keys:
            piece, values = _column([row[k] for row in block], indent + 1)
            pieces.append(piece)
            columns.extend(values)
        row = _template(names, indent, tuple(pieces))
        yield sep.join([row] * len(block)) % tuple(chain.from_iterable(zip(*columns)))


def dumps_stable(obj: Any, indent: int = 0) -> str:
    if (to_text := _SCALARS.get(type(obj))) is not None:
        return to_text(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = "  " * (indent + 1)
        rows = all(isinstance(row, dict) and row and row.keys() == obj[0].keys() for row in obj)
        items = _rows(obj, indent + 1) if rows else _texts(obj, indent + 1)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + "  " * indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj)
        texts = (dumps_stable(obj[k], indent + 1) for k in keys)
        return _template(tuple(map(str, keys)), indent) % tuple(texts)
    for kind in (int, float, str):  # subclasses: np.float64 formats as a float
        if isinstance(obj, kind):
            return _SCALARS[kind](obj)
    raise ValidationError(f"cannot serialize {type(obj).__name__} value {obj!r}")


def _csv_cell(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _format_float(v)
    return str(v)


def _csv_lines(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    """The header line, then each block of up to 1024 equal-length rows as one
    string through one row template: a number column fills in the ``%``, any
    other column with its ``_csv_cell`` texts."""
    lines = [",".join(header)]
    for i in range(0, len(rows), 1024):
        block = rows[i:i + 1024]
        pieces, columns = [], []
        for values in zip(*block, strict=True):
            piece = _number(values)
            if piece is None:
                piece, values = "%s", list(map(_csv_cell, values))
            pieces.append(piece)
            columns.append(values)
        row = ",".join(pieces)
        lines.append("\n".join([row] * len(block)) % tuple(chain.from_iterable(zip(*columns))))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Report fragments
# ---------------------------------------------------------------------------


_OUTCOME_COLUMNS = ("alice_axis", "alice_sign", "bob_axis", "bob_sign")


def _outcome_dict(o: PairOutcome) -> dict:
    return {"label": o.label(), **{k: getattr(o, k) for k in _OUTCOME_COLUMNS}}


def _term_dict(t: Term) -> dict:
    d: dict[str, Any] = {
        "label": t.label,
        "populations": list(t.populations),
        "value": t.value,
    }
    if t.outcome is not None:
        d["outcome"] = _outcome_dict(t.outcome)
    if t.numerator is not None:
        d["numerator"] = t.numerator
        d["denominator"] = t.denominator
    return d


def _ineq_dict(r: InequalityReport) -> dict:
    d: dict[str, Any] = {
        "lhs": r.lhs,
        "rhs": r.rhs,
        "margin": r.margin,
        "holds": r.holds,
        "terms": [_term_dict(t) for t in r.terms],
    }
    if r.equal_multiplicity_precondition is not None:
        d["equal_multiplicity_precondition"] = r.equal_multiplicity_precondition
    if r.note:
        d["note"] = r.note
    return d


def _estimate_dict(e: EmpiricalEstimate, reference: float) -> dict:
    return {
        "outcome": _outcome_dict(e.outcome),
        "p_hat": e.p_hat,
        "stderr": e.stderr,
        "n": e.n,
        "reference": reference,
    }


def _echo_value(value: Any) -> Any:
    if isinstance(value, PopulationTable):
        return list(value.counts)
    if isinstance(value, MultiplicityVector):
        return list(value.omegas)
    if isinstance(value, AxisTriple):
        return {axis.label: list(axis.direction) for axis in (value.a, value.b, value.c)}
    return value


def _config_echo(config: ExperimentConfig) -> dict:
    """Every config field except ``out``, which names where the report goes."""
    return {
        f.name: _echo_value(getattr(config, f.name)) for f in fields(config) if f.name != "out"
    }


# ---------------------------------------------------------------------------
# The command table: each pipeline is registered in COMMANDS next to its
# code, and run() and emit() dispatch through it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One CLI command: its help line, its pipeline ``run(config)``, and the
    CSV header and rows it emits from its ``results``."""

    help: str
    run: Callable[[ExperimentConfig], dict]
    csv_header: tuple[str, ...]
    csv_rows: Callable[[dict], list[list[Any]]]


COMMANDS: dict[str, Command] = {}


def _run_exact(config: ExperimentConfig) -> dict:
    assert config.table is not None
    report = wigner_check(config.table)
    probabilities = []
    for outcome in WIGNER_OUTCOMES:
        p = exact_probability(config.table, outcome)
        probabilities.append(
            {
                "outcome": _outcome_dict(outcome),
                "numerator": p.numerator,
                "denominator": p.denominator,
                "value": p.value,
            }
        )
    return {"wigner": _ineq_dict(report), "probabilities": probabilities}


COMMANDS["exact"] = Command(
    help="exact probabilities and the Wigner inequality for a table",
    run=_run_exact,
    csv_header=(
        "term", *_OUTCOME_COLUMNS, "populations", "numerator", "denominator", "probability",
    ),
    csv_rows=lambda results: [
        [
            t["label"],
            *(t["outcome"][k] for k in _OUTCOME_COLUMNS),
            ";".join(str(p) for p in t["populations"]),
            t["numerator"], t["denominator"], t["value"],
        ]
        for t in results["wigner"]["terms"]
    ],
)


def _run_simulate(config: ExperimentConfig) -> dict:
    assert config.table is not None
    spec = ReservoirSpec(config.mode, config.table, config.seed)  # type: ignore[arg-type]
    draws = sample(spec, config.samples)
    estimates = []
    p_hats = []
    for outcome in WIGNER_OUTCOMES:
        est = empirical_probability(draws, outcome)
        exact = exact_probability(config.table, outcome).value
        estimates.append(_estimate_dict(est, reference=exact))
        p_hats.append(est.p_hat)
    empirical = wigner_check_probabilities(*p_hats)
    return {
        "mode": config.mode,
        "draws": len(draws),
        "estimates": estimates,
        "empirical_wigner": _ineq_dict(empirical),
        "exact_wigner": _ineq_dict(wigner_check(config.table)),
    }


COMMANDS["simulate"] = Command(
    help="Monte Carlo reservoir sampling against exact values",
    run=_run_simulate,
    csv_header=("outcome", *_OUTCOME_COLUMNS, "p_hat", "stderr", "n", "reference"),
    csv_rows=lambda results: [
        [
            e["outcome"]["label"],
            *(e["outcome"][k] for k in _OUTCOME_COLUMNS),
            e["p_hat"], e["stderr"], e["n"], e["reference"],
        ]
        for e in results["estimates"]
    ],
)


def _run_drain(config: ExperimentConfig) -> dict:
    assert config.table is not None
    spec = ReservoirSpec.finite(config.table, config.seed)
    if config.table.total > MAX_ROWS:
        raise ValidationError(
            f"drain takes a bag of at most {MAX_ROWS} pairs, got {config.table.total}"
        )
    populations, counts = depletion_trajectory(spec)
    before = counts[:-1]
    probabilities = (before / before.sum(axis=1, keepdims=True)).tolist()
    steps = [
        {
            "step": step,
            "population": population,
            "conditional_probabilities": probs,
            "remaining": remaining,
        }
        for step, (population, probs, remaining) in enumerate(
            zip(populations.tolist(), probabilities, counts[1:].tolist()), start=1
        )
    ]
    return {
        "initial_total": config.table.total,
        "steps": steps,
        "final_conditional_probability": probabilities[-1][int(populations[-1]) - 1],
    }


COMMANDS["drain"] = Command(
    help="fully drain a finite bag, recording each conditional step",
    run=_run_drain,
    csv_header=(
        "step", "population",
        *(f"p{i}" for i in range(1, 9)),
        *(f"remaining{i}" for i in range(1, 9)),
    ),
    csv_rows=lambda results: [
        [s["step"], s["population"], *s["conditional_probabilities"], *s["remaining"]]
        for s in results["steps"]
    ],
)


def _run_quantum(config: ExperimentConfig) -> dict:
    if config.axes is not None:
        axes = config.axes
        theta = axes.angle("a", "c")
        point = wigner_point(axes.a.direction, axes.b.direction, axes.c.direction, theta)
        scan = [(math.degrees(theta), point)]
    else:
        assert config.axes_spacing_deg is not None
        spacing = math.radians(config.axes_spacing_deg)
        axes = AxisTriple.coplanar(spacing)
        scan = [
            (config.axes_spacing_deg * k / config.steps, pt)
            for k, pt in enumerate(quantum_wigner_scan(spacing, config.steps), start=1)
        ]

    counts = singlet_sample(axes, config.samples, config.seed)
    estimates = []
    for outcome in WIGNER_OUTCOMES:
        predicted = singlet_prediction(
            axes.axis(outcome.alice_axis), axes.axis(outcome.bob_axis)
        ).probability(outcome.alice_sign, outcome.bob_sign)
        estimates.append(_estimate_dict(counts.estimate(outcome), reference=predicted))
    return {
        "scan": [
            {"theta_deg": theta_deg, "lhs": pt.lhs, "rhs": pt.rhs, "violated": pt.violated}
            for theta_deg, pt in scan
        ],
        "sampler": {"n": counts.n, "estimates": estimates},
    }


COMMANDS["quantum"] = Command(
    help="singlet-state inequality scan and sampler",
    run=_run_quantum,
    csv_header=("theta", "lhs", "rhs", "violated"),
    csv_rows=lambda results: [
        [pt["theta_deg"], pt["lhs"], pt["rhs"], pt["violated"]] for pt in results["scan"]
    ],
)


def _run_entropy(config: ExperimentConfig) -> dict:
    v = config.omegas
    if v is None:
        assert config.table is not None
        v = MultiplicityVector.from_counts(config.table, config.policy)  # type: ignore[arg-type]
    try:
        ratios: list[float] | None = list(entropy_ratios(v))
    except ValidationError:
        ratios = None
    return {
        "omegas": list(v.omegas),
        "multiplicity_inequality": _ineq_dict(multiplicity_inequality(v, config.epsilon)),
        "product_inequality": _ineq_dict(product_inequality(v)),
        "entropy_inequality": _ineq_dict(entropy_inequality(v)),
        "entropy_ratios": ratios,
    }


COMMANDS["entropy"] = Command(
    help="multiplicity and entropy inequality checks",
    run=_run_entropy,
    csv_header=("inequality", "lhs", "rhs", "margin", "holds", "equal_multiplicity_precondition"),
    csv_rows=lambda results: [
        [
            name,
            *(results[name][k] for k in ("lhs", "rhs", "margin", "holds")),
            results[name].get("equal_multiplicity_precondition", ""),
        ]
        for name in ("multiplicity_inequality", "product_inequality", "entropy_inequality")
    ],
)


def _run_counterexample(config: ExperimentConfig) -> dict:
    found = find_multiplicity_counterexample(
        config.samples, seed=config.seed, epsilon=config.epsilon
    )
    if found is None:
        return {"budget": config.samples, "found": False, "omegas": None, "report": None}
    return {
        "budget": config.samples,
        "found": True,
        "omegas": list(found.omegas),
        "report": _ineq_dict(multiplicity_inequality(found, config.epsilon)),
    }


COMMANDS["counterexample"] = Command(
    help="search for a sum-form inequality violator",
    run=_run_counterexample,
    csv_header=("found", *(f"omega{i}" for i in range(1, 9)), "lhs", "rhs", "margin"),
    csv_rows=lambda results: [
        [True, *results["omegas"], *(results["report"][k] for k in ("lhs", "rhs", "margin"))]
    ] if results["found"] else [],
)


def run(config: ExperimentConfig, workers: int = 1) -> RunReport:
    """Execute one experiment.  ``workers`` is validated and echoed in
    ``meta``; it changes neither the results nor the work done."""
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    start = time.perf_counter()
    results = COMMANDS[config.command].run(config)
    duration = time.perf_counter() - start
    return RunReport(
        config=_config_echo(config),
        results=results,
        meta={
            "schema": SCHEMA_ID,
            "bellstat_version": __version__,
            "numpy_version": np.__version__,
            "python_version": platform.python_version(),
            "duration_seconds": duration,
            "workers": workers,
        },
    )


def emit(report: RunReport, fmt: str) -> str:
    """Serialize a report: one stable JSON document, or CSV rows per step."""
    if fmt == "json":
        return dumps_stable(report.document()) + "\n"
    if fmt == "csv":
        command = COMMANDS[report.config["command"]]
        return _csv_lines(command.csv_header, command.csv_rows(report.results))
    raise ValidationError(f"unknown format {fmt!r}")


# ---------------------------------------------------------------------------
# Argument parsing and config resolution
# ---------------------------------------------------------------------------


def _parse_list(text: str, what: str, convert: Callable[[str], Any]) -> list:
    try:
        return [convert(x.strip()) for x in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse {what} {text!r}: {exc}") from None


def _load_config_file(ref: str) -> dict:
    if ref in PRESET_NAMES:
        return load_preset(ref)
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(
            f"config {ref!r} is neither a readable file nor a preset "
            f"({exc.strerror}; presets: {', '.join(PRESET_NAMES)})"
        ) from None
    except ValueError as exc:  # JSONDecodeError, bad UTF-8, over-long integers
        raise ValidationError(f"config file {ref!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"config file {ref!r} must hold a JSON object")
    return data


def _table_from(value: Any) -> PopulationTable:
    if isinstance(value, PopulationTable):
        return value
    if isinstance(value, str):
        value = _parse_list(value, "table", int)
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"table must be a list of 8 counts, got {value!r}")
    return PopulationTable.from_counts(value)


def _omegas_from(value: Any) -> MultiplicityVector:
    if isinstance(value, MultiplicityVector):
        return value
    if isinstance(value, str):
        value = _parse_list(value, "omegas", float)
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"omegas must be a list of 8 positive reals, got {value!r}")
    return MultiplicityVector.from_iterable(map(_typed("omegas element", float), value))


def _axes_from(value: Any) -> AxisTriple:
    if isinstance(value, AxisTriple):
        return value
    if not isinstance(value, dict) or set(value) != {"a", "b", "c"}:
        raise ValidationError("axes must be an object with keys 'a', 'b', 'c'")
    def axis(label: str) -> Axis:
        v = value[label]
        if not isinstance(v, (list, tuple)) or len(v) != 3:
            raise ValidationError(f"axis {label!r} must be a 3-vector, got {v!r}")
        component = _typed(f"axis {label!r} component", float)
        return Axis(label, tuple(map(component, v)))  # type: ignore[arg-type]
    return AxisTriple(axis("a"), axis("b"), axis("c"))


def _typed(key: str, kind: type) -> Callable[[Any], Any]:
    """Accept only the JSON type of a ``kind`` value (an int or a float for
    float keys).  Bools and every other type are rejected, never coerced."""
    accepted = (int, float) if kind is float else kind
    name = {int: "an integer", float: "a number", str: "a string"}[kind]
    def convert(value: Any) -> Any:
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValidationError(f"{key} must be {name}, got {value!r}")
        try:
            return kind(value)
        except OverflowError:
            raise ValidationError(f"{key} is too large for a float") from None
    return convert


_CONVERTERS = {
    "table": _table_from,
    "omegas": _omegas_from,
    "axes": _axes_from,
    **{key: _typed(key, float) for key in ("axes_spacing_deg", "epsilon")},
    **{key: _typed(key, int) for key in ("steps", "samples", "seed")},
    **{key: _typed(key, str) for key in ("policy", "mode", "format", "out")},
}


def resolve_config(command: str, config_ref: str | None, overrides: dict[str, Any]) -> ExperimentConfig:
    """Merge defaults, config file, and flag overrides into a validated config."""
    merged = dict(_DEFAULTS)
    if config_ref is not None:
        file_values = _load_config_file(config_ref)
        file_command = file_values.pop("command", None)
        if file_command is not None and file_command != command:
            raise ValidationError(
                f"config file is for command {file_command!r}, invoked as {command!r}"
            )
        for key, value in file_values.items():
            if key not in merged:
                raise ValidationError(f"unknown config key {key!r}")
            merged[key] = value
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    # null leaves a key unset only where unset is its default.
    converted = {
        key: (None if value is None and _DEFAULTS[key] is None else _CONVERTERS[key](value))
        for key, value in merged.items()
    }
    return ExperimentConfig(command=command, **converted)


def build_parser() -> argparse.ArgumentParser:
    """One parser: every command takes the same options."""
    parser = argparse.ArgumentParser(
        prog="bellstat",
        description="Population-counting Bell inequality experiments.",
        epilog="commands:\n" + "\n".join(f"  {n:<16}{c.help}" for n, c in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--config", metavar="FILE", help="JSON config file or preset name")
    parser.add_argument("--axes-spacing", dest="axes_spacing_deg", type=float, metavar="DEG",
                        help="coplanar axis spacing in degrees")
    parser.add_argument("--table", metavar="N1,...,N8", help="population counts")
    parser.add_argument("--omegas", metavar="W1,...,W8", help="population multiplicities")
    parser.add_argument("--samples", type=int, metavar="N", help="sample count / search "
                        f"budget, 1 to {MAX_SAMPLES}; quantum exits 2 if one of its 9 axis "
                        "pairs gets no sample")
    parser.add_argument("--seed", type=int, metavar="S", help="64-bit unsigned RNG seed")
    parser.add_argument("--policy", metavar="equal|proportional",
                        help="multiplicity-from-counts policy")
    parser.add_argument("--epsilon", type=float, metavar="E",
                        help="equal-multiplicity ratio tolerance")
    parser.add_argument("--format", metavar="json|csv", help="output format")
    parser.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="echoed in the report's meta; changes nothing else")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Keys without a flag (axes, steps, mode) come from --config only.
    overrides = {key: getattr(args, key, None) for key in _DEFAULTS}
    try:
        config = resolve_config(args.command, args.config, overrides)
        report = run(config, workers=args.workers)
        text = emit(report, config.format)
    except ValidationError as exc:
        print(f"bellstat: {exc}", file=sys.stderr)
        return 2
    try:
        if config.out is None:
            sys.stdout.write(text)
        else:
            with open(config.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        print(f"bellstat: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
