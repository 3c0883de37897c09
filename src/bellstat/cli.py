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
inputs, pipeline, CSV header and CSV writer); the parser, :func:`run` and
:func:`emit` all read that table.  Each value is checked once: its JSON type
by ``_CONVERTERS``, its range by :class:`ExperimentConfig` or by the library
step that reads it, so a bad flag or config value exits 2 with one line.
Sizes are capped where memory or report rows would run away: ``samples`` at
:data:`MAX_SAMPLES`, ``steps`` and a drained bag's total at :data:`MAX_ROWS`.

A single JSON config file can carry every option; command-line flags
override file values, which override defaults (seed 42, samples 100000,
epsilon 0.05, policy equal).  ``--config`` also accepts a shipped preset
name: wigner-uniform, marble-bag, quantum-60, counterexample-search.  A key
repeated in a config file exits 2.  One rule says which inputs a command
reads.  A key is given when its value differs from its default.  Each
command's ``inputs`` lists its forms, the key sets that one way of running it
reads; exactly one form must have its required (default ``None``) keys given,
and any other given key outside that form exits 2 with one line naming it
(``format`` and ``out`` go with every command).  So no input is echoed unread.
:meth:`ExperimentConfig.__post_init__` has no branch on the command: a check
that depends on it, such as a finite bag's overdraw, is made by the library
step that reads the values.

Every library value in ``config`` and ``results`` is turned into a report
value by one rule, :func:`_record`.  A record (a joint outcome, a term, an
inequality report, an estimate) becomes the dict of its fields whose value is
set (``None`` and an empty ``note`` are left out), with nested records and
tuples written the same way.  An outcome also carries its ``label``, and an
estimate gets its ``reference`` where the command adds it.  A population
table becomes its counts, a multiplicity vector its omegas, and an axis
triple ``{label: direction}``.

Reports have a stable top-level schema ``{config, results, meta}``
(schema id bellstat-report/1).  Identical configs yield byte-identical
``config`` and ``results`` sections regardless of ``--workers``; wall-clock
duration and worker count live in ``meta`` only.  Floats are emitted with 17
significant digits, so emit -> parse -> emit is byte-identical.  The one writer,
:func:`dumps_stable`, fills a cached template per dict shape, writing each value
of an exact scalar type inline; only containers and subclasses recurse.

One rule says how rows are written: a report table is numpy arrays, and a
record's CSV rows are joined cell by cell.  The long rows (scan points, drain
steps) are a :class:`Columns` table, key -> column: a 1-D array of one number
or bool per row, or a 2-D array of the rows' number lists; the CSV of drain
and quantum is the same arrays (:func:`_csv_parts`).  The few CSV rows of
exact, simulate, entropy and counterexample are joined cell by cell
(:func:`_csv_rows`), as their JSON record is written value by value.  JSON
rows and CSV lines of a table share one block pass: each block of up to 1024
rows becomes one string through one row template.  Each table column's kind
is told once (:func:`_kind`): ``%d`` for an integer array, ``%.17g`` for a
finite float64 array, ``b`` for a bool array (``true``/``false`` in both
formats); a column of no kind, a non-finite or other array, raises the
writer's own error.  A block of at least :data:`FLOAT_TEXTS_MIN` values is one byte matrix, a
row per block row: the template's literal bytes, and between them each
value's text, padded, from :mod:`~bellstat.floattext` (``%.17g`` and ``%d``
computed exactly in numpy, so the bytes do not change); one ``translate``
deletes the pads.  Every other block is filled by one ``%``, each column by
its kind's piece.

:func:`main` writes the report while it is made, block by block, to stdout
or the ``--out`` file, and never holds its whole text.  Everything but the
:class:`Columns` tables (config, meta, every other result) is made first, as
one text, with each table's column kinds told; each table's blocks of up to
1024 rows are then made and written one at a time, and none of them can
fail.  So a report that fails exits 2 and writes nothing.  Exit 3 (a failed
write) can leave a partial stdout or ``--out`` file, as a failed write of
the whole text could.  :func:`dumps_stable` and :func:`emit` join the same
pieces into one string.

Exit codes: 0 success, 2 validation error, argv the parser rejects included
(only ``--help`` exits through argparse), 3 I/O error.  :func:`main` builds
its parser once per process (:func:`build_parser` is cached) and reuses it on
every later call.  numpy loads when a command that draws (``simulate``,
``drain``, ``quantum``, ``counterexample``) first needs it, and
:mod:`~bellstat.reservoir` and :mod:`~bellstat.quantum` with it for all but
``counterexample``; so ``--help``, :func:`resolve_config`, an input error,
``exact`` and ``entropy`` never import numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, fields
from functools import cache, lru_cache
from importlib import import_module
from itertools import accumulate, chain
from typing import Any, Callable, Iterable, Iterator, NoReturn, Sequence

from . import _LAZY as _PACKAGE_LAZY, __version__
from .errors import ValidationError
from .populations import (
    Axis,
    AxisTriple,
    EmpiricalEstimate,
    InequalityReport,
    PairOutcome,
    PopulationTable,
    Term,
    WIGNER_OUTCOMES,
    wigner_check,
    wigner_check_probabilities,
)
# Not called here: bench/spans.py wraps it by name, as it does two names _load binds.
from .populations import exact_probability  # noqa: F401
from .entropy import (
    MultiplicityVector,
    entropy_inequality,
    entropy_ratios,
    find_multiplicity_counterexample,
    multiplicity_inequality,
    product_inequality,
)
from .rng import validate_seed
from .presets import PRESET_NAMES, load_preset

SCHEMA_ID = "bellstat-report/1"

#: The two reservoir functions outside the public API that :func:`_load`
#: binds here, besides the package's lazy names.  No command calls
#: ``empirical_probability`` or ``sample``: bench/spans.py wraps them by name.
_RESERVOIR = ("population_counts", "sample")

#: Upper bound on ``samples``: a sample budget of this size fits in memory.
MAX_SAMPLES = 10**8

#: Upper bound on ``steps`` and on a drained bag's total: each is a report row.
MAX_ROWS = 10**6

#: Fewest values in a block of report rows that is written as one byte matrix
#: (see :func:`_blocks`); below it the ``%`` fill is faster (the two
#: cross between 1,000 and 1,500 values, for drain steps and scan points).
FLOAT_TEXTS_MIN = 1024

#: Rows of a report table made into one string, and written as one piece.
_BLOCK_ROWS = 1024


def _load() -> None:
    """Bind numpy as ``np``, the names the package serves on first use and
    those of :data:`_RESERVOIR` as module globals, once."""
    if "np" not in globals():
        package, reservoir = sys.modules[__package__], import_module(".reservoir", __package__)
        globals().update({name: getattr(package, name) for name in _PACKAGE_LAZY})
        globals().update({name: getattr(reservoir, name) for name in _RESERVOIR})
        globals()["np"] = import_module("numpy")


def __getattr__(name: str) -> Any:
    """A name :func:`_load` binds, bound on first use."""
    if name != "np" and name not in _PACKAGE_LAZY and name not in _RESERVOIR:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load()
    return globals()[name]


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
        if self.steps > MAX_ROWS:
            raise ValidationError(f"steps must be at most {MAX_ROWS}, got {self.steps}")
        if self.policy not in ("equal", "proportional"):
            raise ValidationError(f"policy must be 'equal' or 'proportional', got {self.policy!r}")
        if self.format not in ("json", "csv"):
            raise ValidationError(f"format must be 'json' or 'csv', got {self.format!r}")
        spacing = self.axes_spacing_deg
        if spacing is not None and not (0.0 < math.radians(spacing) and spacing < 180.0):
            raise ValidationError(f"axes spacing must be in (0, 180) degrees, got {spacing}")
        # The one input rule: a key is given when it differs from its default.
        # Exactly one form must have its required (default None) keys given,
        # and that form must read every other given key but format and out.
        given = [k for k, v in _DEFAULTS.items() if getattr(self, k) != v]
        forms = COMMANDS[self.command].inputs
        required = [[k for k in _DEFAULTS if k in form and _DEFAULTS[k] is None] for form in forms]
        matched = [form for form, keys in zip(forms, required) if set(keys) <= set(given)]
        if len(matched) != 1:
            either = " or ".join(map(_flags, required))
            needs = f"takes {either}, not both" if matched else f"requires {either}"
            raise ValidationError(f"command {self.command!r} {needs}")
        for key in given:
            if key not in matched[0] and key not in ("format", "out"):
                readers = " or ".join(_flags(ks) for f, ks in zip(forms, required) if key in f)
                raise ValidationError(f"command {self.command!r} does not read {_flags([key])}"
                                      + (readers and f" without {readers}"))


# Every config key with its default; the keys a config file or flag may set.
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig) if f.name != "command"}


def _flags(keys: Iterable[str]) -> str:
    """The flags that set these config keys, joined by "and"; a key that only
    a config file sets stands for itself."""
    flags = {a.dest: a.option_strings[0] for a in build_parser()._actions if a.option_strings}
    return " and ".join(flags.get(key, key) for key in keys)


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
    str: json.encoder.encode_basestring_ascii,  # what json.dumps(s) ends in
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


def _texts(values: Sequence[Any], indent: int, tables: list[Iterator[str]]) -> list[str]:
    """JSON texts of ``values`` at ``indent``: a value of an exact scalar type
    inline, any other through :func:`_text` with ``tables``."""
    return [
        to_text(v) if (to_text := _SCALARS.get(type(v))) else _text(v, indent, tables)
        for v in values
    ]


def _kind(column: np.ndarray) -> str:
    """How the values of one table column become text, told once per table:
    ``%d`` for an integer array, ``%.17g`` for a finite float64 array and
    ``b`` for a bool array.  Any other column, a non-finite or other array,
    has no kind and raises the writer's own error."""
    _load()  # the column may come from a process that has run no command
    dtype = column.dtype
    if dtype.kind in "iu":
        return "%d"
    if dtype == np.bool_:
        return "b"
    if dtype == np.float64 and np.isfinite(column).all():
        return "%.17g"
    if dtype == np.float64:  # raises, naming the first non-finite value
        _format_float(column[~np.isfinite(column)][0].item())
    raise ValidationError(f"cannot serialize {dtype} column")


def _value_columns(block: np.ndarray, kind: str) -> list[tuple[str, list[Any]]]:
    """Each value column of one column's block with its ``%`` piece: one per
    array column.  A number column's piece is its :func:`_kind`; a bool
    column's is ``%s``, with ``true``/``false``, the same text in JSON and CSV."""
    cells = np.atleast_2d(block.T).tolist()
    if kind == "b":
        return [("%s", list(map(_SCALARS[bool], column))) for column in cells]
    return [(kind, column) for column in cells]


def _matrix_text(
    block: Sequence[np.ndarray], kinds: Sequence[str], row: Callable[[list[list[str]]], str],
    sep: str,
) -> str:
    """The text of a block of arrays, each of a set :func:`_kind`.  Each
    column's texts are one byte matrix from :mod:`~bellstat.floattext`, a
    padded text per value; they are laid between the row template's literal
    bytes in one matrix, a row per block row, whose pads one ``translate``
    deletes."""
    from .floattext import PAD, float_bytes, int_bytes  # compiled on first use

    bools = np.frombuffer(b"false" + b"true".ljust(5, PAD), dtype=np.uint8).reshape(2, 5)
    cells = []  # (rows, k, width): a column's k texts a row
    for values, kind in zip(block, kinds):
        if kind == "b":
            matrix = bools[values.view(np.uint8).ravel()]
        else:
            matrix = (int_bytes if kind == "%d" else float_bytes)(values)
        cells.append(matrix.reshape(len(values), -1, matrix.shape[1]))
    # The template with a NUL per cell; % () turns each %% back into %.
    row_text = (row([["\0"] * c.shape[1] for c in cells]) + sep) % ()
    literals = [literal.encode("ascii") for literal in row_text.split("\0")]
    widths = [c.shape[2] for c in cells for _ in range(c.shape[1])]
    template = b"".join(literal + PAD * w for literal, w in zip(literals, [*widths, 0]))
    text = np.empty((len(cells[0]), len(template)), dtype=np.uint8)
    text[:] = np.frombuffer(template, dtype=np.uint8)
    # Each cell's start in a row; a column's k cells are w-byte items a stride apart.
    starts = list(accumulate(len(literal) + w for literal, w in zip(literals, [0, *widths])))
    i = 0
    for c in cells:
        rows, k, w = c.shape
        step = starts[i + 1] - starts[i] if k > 1 else w
        view = np.ndarray((rows, k), f"V{w}", text, starts[i], (text.shape[1], step))
        view[...] = c.view(f"V{w}")[..., 0]
        i += k
    return text.ravel()[:text.size - len(sep)].tobytes().translate(None, PAD).decode("ascii")


def _blocks(
    columns: Sequence[np.ndarray], row: Callable[[list[list[str]]], str], sep: str
) -> Iterator[str]:
    """Each block of up to :data:`_BLOCK_ROWS` rows of the arrays ``columns``
    as one string, made as it is read: ``row(pieces)``, the row template of
    each column's pieces, once per row, joined by ``sep``.  Each column's
    :func:`_kind` is told once, by this call, so a column that has none
    raises :class:`ValidationError` here and no block can.  A block of at
    least :data:`FLOAT_TEXTS_MIN` values is one :func:`_matrix_text`; any
    other is filled by one ``%`` with the value columns of
    :func:`_value_columns`."""
    kinds, n = list(map(_kind, columns)), len(columns[0]) if columns else 0

    def made() -> Iterator[str]:
        for i in range(0, n, _BLOCK_ROWS):
            block = [column[i:i + _BLOCK_ROWS] for column in columns]
            if sum(map(np.size, block)) >= FLOAT_TEXTS_MIN:
                yield _matrix_text(block, kinds, row, sep)
                continue
            pairs = [_value_columns(column, kind) for column, kind in zip(block, kinds)]
            values = [cells for column in pairs for _, cells in column]
            yield _fill(row([[piece for piece, _ in column] for column in pairs]), sep, values)

    return made()


def _fill(row: str, sep: str, values: Sequence[Sequence[Any]]) -> str:
    """``row`` once per block row, joined by ``sep``, filled row by row from
    the value columns ``values`` in one ``%``."""
    filled = tuple(chain.from_iterable(zip(*values, strict=True)))
    return sep.join([row] * len(values[0])) % filled


class Columns(dict):
    """Report rows held by column, ``key -> column``: a 1-D array (one number
    or bool per row) or a 2-D array (one fixed-length number list per row).
    :func:`dumps_stable` writes it as the list of same-keyed objects it
    stands for."""


def _rows(columns: Columns, indent: int) -> Iterator[str]:
    """The rows at ``indent``, each block as one string: one row template,
    with a ``[...]`` piece per 2-D array column, repeated over the block."""
    keys = sorted(columns)
    names = tuple(map(str, keys))
    inner, close = "\n" + "  " * (indent + 2), "\n" + "  " * (indent + 1) + "]"
    arrays = [columns[k].ndim == 2 for k in keys]

    def row(pieces: list[list[str]]) -> str:
        return _template(names, indent, tuple(
            "[" + ",".join(inner + p for p in column) + close if array else column[0]
            for array, column in zip(arrays, pieces)
        ))

    return _blocks([columns[k] for k in keys], row, ",\n" + "  " * indent)


def _bracketed(blocks: Iterator[str], indent: int) -> Iterator[str]:
    """A table's JSON list at ``indent``, one piece per block of rows: its
    separator, then its rows; the closing bracket is a piece of its own."""
    inner = "\n" + "  " * (indent + 1)
    lead = "[" + inner
    for block in blocks:
        yield lead + block
        lead = "," + inner
    yield "[]" if lead[0] == "[" else "\n" + "  " * indent + "]"


def _text(obj: Any, indent: int, tables: list[Iterator[str]]) -> str:
    """The JSON text of ``obj`` at ``indent``.  Each :class:`Columns` stands
    in the text as one ``"\\0"``, which no other JSON text holds, and its
    blocks from :func:`_rows`, whose column kinds are told here, are appended
    to ``tables`` in text order."""
    if (to_text := _SCALARS.get(type(obj))) is not None:
        return to_text(obj)
    if isinstance(obj, Columns):
        tables.append(_bracketed(_rows(obj, indent + 1), indent))
        return "\0"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = "  " * (indent + 1)
        items = _texts(obj, indent + 1, tables)
        items[0] = "[\n" + inner + items[0]  # brackets on the ends: one join, no copy after it
        items[-1] += "\n" + "  " * indent + "]"
        return (",\n" + inner).join(items)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj)
        texts = _texts([obj[k] for k in keys], indent + 1, tables)
        return _template(tuple(map(str, keys)), indent) % tuple(texts)
    for kind in (int, float, str):  # subclasses: np.float64 formats as a float
        if isinstance(obj, kind):
            return _SCALARS[kind](obj)
    raise ValidationError(f"cannot serialize {type(obj).__name__} value {obj!r}")


def _parts(obj: Any, indent: int = 0, end: str = "") -> Iterator[str]:
    """The JSON text of ``obj`` at ``indent``, then ``end``, as the pieces
    :func:`main` writes: everything but the :class:`Columns` tables is made
    here, as one text, and each table's blocks are spliced in as they are made.
    A text without a table is one piece.  Any :class:`ValidationError` is
    raised by this call, never while the pieces are made."""
    tables: list[Iterator[str]] = []
    pieces = (_text(obj, indent, tables) + end).split("\0")
    return chain(pieces[:1], *(chain(t, [p]) for t, p in zip(tables, pieces[1:])))


def dumps_stable(obj: Any, indent: int = 0) -> str:
    return "".join(_parts(obj, indent))


def _csv_cell(v: Any) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _format_float(v)
    return str(v)


def _csv_rows(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> Iterator[str]:
    """The header line and a record's few rows, each cell through
    :func:`_csv_cell` and joined by ``,``, as one piece: a record's CSV is
    written cell by cell, as its JSON is written value by value.  Any
    :class:`ValidationError` is raised by this call."""
    return iter(["".join(",".join(map(_csv_cell, row)) + "\n" for row in (header, *rows))])


def _csv_parts(header: Sequence[str], columns: Sequence[np.ndarray]) -> Iterator[str]:
    """The header line, then the rows of the arrays ``columns`` (a 1-D array
    fills one CSV column, a 2-D array one per array column), each block as one
    string through one ``,``-joined row template, made by the one rule of
    :func:`_blocks`.  Each block is one piece, the header goes with the first;
    any :class:`ValidationError` is raised by this call."""
    blocks = _blocks(columns, lambda pieces: ",".join(chain.from_iterable(pieces)) + "\n", "")
    return chain([",".join(header) + "\n" + next(blocks, "")], blocks)


# ---------------------------------------------------------------------------
# Report fragments
# ---------------------------------------------------------------------------


_OUTCOME_COLUMNS = ("alice_axis", "alice_sign", "bob_axis", "bob_sign")


_RECORDS = frozenset((PairOutcome, Term, InequalityReport, EmpiricalEstimate))


def _record(obj: Any) -> Any:
    """A library value as a report value: a record as the dict of its set
    fields (``None`` and an empty ``note`` left out), an outcome with its
    ``label`` too; a tuple as the list of its items' records; a population
    table as its counts, a multiplicity vector as its omegas and an axis
    triple as ``{label: direction}``; any other value as it is."""
    kind = type(obj)
    if kind is tuple:
        return [_record(item) for item in obj]
    if kind is PopulationTable:
        return _record(obj.counts)
    if kind is MultiplicityVector:
        return _record(obj.omegas)
    if kind is AxisTriple:
        return {axis.label: _record(axis.direction) for axis in (obj.a, obj.b, obj.c)}
    if kind not in _RECORDS:
        return obj
    record = {key: _record(value) for key, value in vars(obj).items()
              if value is not None and value != ""}
    if kind is PairOutcome:
        record["label"] = obj.label()
    return record


def _config_echo(config: ExperimentConfig) -> dict:
    """Every config field except ``out``, which names where the report goes."""
    return {
        f.name: _record(getattr(config, f.name)) for f in fields(config) if f.name != "out"
    }


# ---------------------------------------------------------------------------
# The command table: each pipeline is registered in COMMANDS next to its
# code, and run() and emit() dispatch through it.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """One CLI command: its help line, the config keys it reads, its pipeline
    ``run(config)``, its CSV header, and ``csv(csv_header, results)``, the
    pieces of its CSV: a record's few rows joined cell by cell
    (:func:`_csv_rows`), or a table's numpy arrays (:func:`_csv_parts`).
    ``inputs`` holds one key set per way of running the command; ``format``
    and ``out`` go with every command."""

    help: str
    inputs: tuple[set[str], ...]
    run: Callable[[ExperimentConfig], dict]
    csv_header: tuple[str, ...]
    csv: Callable[[tuple[str, ...], dict], Iterator[str]]


COMMANDS: dict[str, Command] = {}


def _run_exact(config: ExperimentConfig) -> dict:
    assert config.table is not None
    report = wigner_check(config.table)
    # The check's terms are the exact probabilities, in WIGNER_OUTCOMES order.
    probabilities = [
        {
            "outcome": _record(t.outcome),
            "numerator": t.numerator,
            "denominator": t.denominator,
            "value": t.value,
        }
        for t in report.terms
    ]
    return {"wigner": _record(report), "probabilities": probabilities}


COMMANDS["exact"] = Command(
    help="exact probabilities and the Wigner inequality for a table",
    inputs=({"table"},),
    run=_run_exact,
    csv_header=(
        "term", *_OUTCOME_COLUMNS, "populations", "numerator", "denominator", "probability",
    ),
    csv=lambda header, results: _csv_rows(header, (
        [
            t["label"],
            *(t["outcome"][k] for k in _OUTCOME_COLUMNS),
            ";".join(str(p) for p in t["populations"]),
            t["numerator"], t["denominator"], t["value"],
        ]
        for t in results["wigner"]["terms"]
    )),
)


def _run_simulate(config: ExperimentConfig) -> dict:
    _load()
    assert config.table is not None
    spec = ReservoirSpec(config.mode, config.table, config.seed)  # type: ignore[arg-type]
    counts = population_counts(spec, config.samples)
    bag = config.table.total if config.mode == "finite" else None
    exact = wigner_check(config.table)
    estimates = []
    p_hats = []
    # The check's terms are the exact probabilities, in WIGNER_OUTCOMES order.
    for outcome, term in zip(WIGNER_OUTCOMES, exact.terms, strict=True):
        est = EmpiricalEstimate.from_counts(outcome, counts, bag)
        estimates.append({**_record(est), "reference": term.value})
        p_hats.append(est.p_hat)
    empirical = wigner_check_probabilities(*p_hats)
    return {
        "mode": config.mode,
        "draws": config.samples,
        "estimates": estimates,
        "empirical_wigner": _record(empirical),
        "exact_wigner": _record(exact),
    }


COMMANDS["simulate"] = Command(
    help="Monte Carlo reservoir sampling against exact values",
    inputs=({"table", "mode", "samples", "seed"},),
    run=_run_simulate,
    csv_header=("outcome", *_OUTCOME_COLUMNS, "p_hat", "stderr", "n", "reference"),
    csv=lambda header, results: _csv_rows(header, (
        [
            e["outcome"]["label"],
            *(e["outcome"][k] for k in _OUTCOME_COLUMNS),
            e["p_hat"], e["stderr"], e["n"], e["reference"],
        ]
        for e in results["estimates"]
    )),
)


def _run_drain(config: ExperimentConfig) -> dict:
    _load()
    assert config.table is not None
    spec = ReservoirSpec.finite(config.table, config.seed)
    if config.table.total > MAX_ROWS:
        raise ValidationError(
            f"drain takes a bag of at most {MAX_ROWS} pairs, got {config.table.total}"
        )
    populations, counts = depletion_trajectory(spec)
    before = counts[:-1]
    probabilities = before / before.sum(axis=1, keepdims=True)
    steps = Columns(
        step=np.arange(1, len(populations) + 1),
        population=populations,
        conditional_probabilities=probabilities,
        remaining=counts[1:],
    )
    return {
        "initial_total": config.table.total,
        "steps": steps,
        "final_conditional_probability": probabilities[-1, populations[-1] - 1].item(),
    }


COMMANDS["drain"] = Command(
    help="fully drain a finite bag, recording each conditional step",
    inputs=({"table", "seed"},),
    run=_run_drain,
    csv_header=(
        "step", "population",
        *(f"p{i}" for i in range(1, 9)),
        *(f"remaining{i}" for i in range(1, 9)),
    ),
    csv=lambda header, results: _csv_parts(header, [
        results["steps"][k]
        for k in ("step", "population", "conditional_probabilities", "remaining")
    ]),
)


def _run_quantum(config: ExperimentConfig) -> dict:
    _load()
    axes = config.axes
    if axes is None:
        assert config.axes_spacing_deg is not None
        axes = AxisTriple.coplanar(math.radians(config.axes_spacing_deg))
    # P(+a;+b), P(+a;+c) and P(+c;+b): the sampler's references, and the
    # inequality's terms at explicit axes.
    references = [
        singlet_prediction(axes.axis(o.alice_axis), axes.axis(o.bob_axis))
        .probability(o.alice_sign, o.bob_sign)
        for o in WIGNER_OUTCOMES
    ]
    if config.axes is not None:
        check = wigner_check_probabilities(*references)
        scan = Columns(
            theta_deg=np.array([math.degrees(axes.angle("a", "c"))]),
            lhs=np.array([check.lhs]), rhs=np.array([check.rhs]),
            violated=np.array([not check.holds]),
        )
    else:
        deg, steps = config.axes_spacing_deg, config.steps
        points = quantum_wigner_scan(math.radians(deg), steps)
        theta_deg = np.arange(1.0, steps + 1)  # deg * k / steps, in place: one array
        theta_deg *= deg
        theta_deg /= steps
        scan = Columns(
            theta_deg=theta_deg, lhs=points.lhs, rhs=points.rhs, violated=points.violated
        )

    counts = singlet_sample(axes, config.samples, config.seed)
    estimates = [
        {**_record(counts.estimate(outcome)), "reference": reference}
        for outcome, reference in zip(WIGNER_OUTCOMES, references)
    ]
    return {
        "scan": scan,
        "sampler": {"n": counts.n, "estimates": estimates},
    }


COMMANDS["quantum"] = Command(
    help="singlet-state inequality scan and sampler",
    inputs=({"axes_spacing_deg", "steps", "samples", "seed"}, {"axes", "samples", "seed"}),
    run=_run_quantum,
    csv_header=("theta", "lhs", "rhs", "violated"),
    csv=lambda header, results: _csv_parts(header, [
        results["scan"][k] for k in ("theta_deg", "lhs", "rhs", "violated")
    ]),
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
        "omegas": _record(v),
        "multiplicity_inequality": _record(multiplicity_inequality(v, config.epsilon)),
        "product_inequality": _record(product_inequality(v)),
        "entropy_inequality": _record(entropy_inequality(v)),
        "entropy_ratios": ratios,
    }


COMMANDS["entropy"] = Command(
    help="multiplicity and entropy inequality checks",
    inputs=({"omegas", "epsilon"}, {"table", "policy", "epsilon"}),
    run=_run_entropy,
    csv_header=("inequality", "lhs", "rhs", "margin", "holds", "equal_multiplicity_precondition"),
    csv=lambda header, results: _csv_rows(header, (
        [
            name,
            *(results[name][k] for k in ("lhs", "rhs", "margin", "holds")),
            results[name].get("equal_multiplicity_precondition", ""),
        ]
        for name in ("multiplicity_inequality", "product_inequality", "entropy_inequality")
    )),
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
        "omegas": _record(found),
        "report": _record(multiplicity_inequality(found, config.epsilon)),
    }


COMMANDS["counterexample"] = Command(
    help="search for a sum-form inequality violator",
    inputs=({"samples", "seed", "epsilon"},),
    run=_run_counterexample,
    csv_header=("found", *(f"omega{i}" for i in range(1, 9)), "lhs", "rhs", "margin"),
    csv=lambda header, results: _csv_rows(header, [
        [True, *results["omegas"], *(results["report"][k] for k in ("lhs", "rhs", "margin"))]
    ] if results["found"] else []),
)


@cache
def _numpy_version() -> str:
    """numpy's ``__version__``, taken from the ``numpy/version.py`` that
    numpy takes it from, without importing numpy."""
    from importlib.util import find_spec, module_from_spec, spec_from_file_location

    folder = find_spec("numpy").submodule_search_locations[0]
    spec = spec_from_file_location("numpy.version", os.path.join(folder, "version.py"))
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.__version__


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
            "numpy_version": _numpy_version(),
            "python_version": platform.python_version(),
            "duration_seconds": duration,
            "workers": workers,
        },
    )


def _report_parts(report: RunReport, fmt: str) -> Iterator[str]:
    """A report's text as the pieces :func:`main` writes: one stable JSON
    document, or CSV rows per step.  Any :class:`ValidationError` is raised by
    this call, never while the pieces are made."""
    if fmt == "json":
        return _parts(report.document(), end="\n")
    if fmt == "csv":
        command = COMMANDS[report.config["command"]]
        return command.csv(command.csv_header, report.results)
    raise ValidationError(f"unknown format {fmt!r}")


def emit(report: RunReport, fmt: str) -> str:
    """Serialize a report: one stable JSON document, or CSV rows per step."""
    return "".join(_report_parts(report, fmt))


# ---------------------------------------------------------------------------
# Argument parsing and config resolution
# ---------------------------------------------------------------------------


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A config file's JSON object, whose keys must each appear once."""
    data: dict[str, Any] = {}
    for key, value in pairs:
        if key in data:
            raise ValidationError(f"repeats key {key!r}")
        data[key] = value
    return data


def _load_config_file(ref: str) -> dict:
    if ref in PRESET_NAMES:
        return load_preset(ref)
    try:
        with open(ref, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ValidationError(
            f"config {ref!r} is neither a readable file nor a preset "
            f"({exc.strerror}; presets: {', '.join(PRESET_NAMES)})"
        ) from None
    except ValidationError as exc:  # a repeated key
        raise ValidationError(f"config file {ref!r} {exc}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or integer; too deep
        raise ValidationError(f"config file {ref!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"config file {ref!r} must hold a JSON object")
    return data


def _axes_from(value: Any) -> AxisTriple:
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


def _list_input(
    key: str, parse: type, shape: str, build: Callable[[Sequence[Any]], Any]
) -> Callable[[Any], Any]:
    """Accept ``key`` as a list, or as the comma-separated text of its flag
    (each item read by ``parse``), and hand the list to ``build``."""
    def convert(value: Any) -> Any:
        if isinstance(value, str):
            try:
                value = [parse(x.strip()) for x in value.split(",")]
            except ValueError as exc:
                raise ValidationError(f"cannot parse {key} {value!r}: {exc}") from None
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"{key} must be {shape}, got {value!r}")
        return build(value)
    return convert


_CONVERTERS = {
    "table": _list_input("table", int, "a list of 8 counts", PopulationTable.from_counts),
    "omegas": _list_input(
        "omegas", float, "a list of 8 positive reals",
        lambda v: MultiplicityVector.from_iterable(map(_typed("omegas element", float), v)),
    ),
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


class _Parser(argparse.ArgumentParser):
    """A parser whose errors raise :class:`ValidationError`, so a flag it
    cannot parse, an unknown command or none exits 2 with one line."""

    def error(self, message: str) -> NoReturn:
        raise ValidationError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """One parser: every command takes the same flags, and
    :class:`ExperimentConfig` rejects one it does not read.  Built on first use
    and reused for the life of the process: ``parse_args`` leaves it as it
    was, and help reads the terminal width when it is printed."""
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        # Keys without a flag (axes, steps, mode) come from --config only.
        overrides = {key: getattr(args, key, None) for key in _DEFAULTS}
        config = resolve_config(args.command, args.config, overrides)
        report = run(config, workers=args.workers)
        parts = _report_parts(report, config.format)
    except ValidationError as exc:
        print(f"bellstat: {exc}", file=sys.stderr)
        return 2
    try:
        if config.out is None:
            sys.stdout.writelines(parts)
        else:
            with open(config.out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(parts)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        print(f"bellstat: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
