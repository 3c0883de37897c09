"""Seeded command pools for the four benchmark workloads.

Every workload is a pool of distinct ``bellstat`` argv lists, all derived
from the workload seed.  The timed loop cycles through the pool, so a run
measures many commands while the oracle fully checks each distinct report
once; a repeated command must reproduce the first report byte for byte
(outside ``meta``).  The program only ever sees the generated argv and
config files.

Why each workload exists:

- ``simulate-infinite``: the draw-heavy path.  ``reservoir.sample`` with its
  per-draw records, the Philox chunks and the thread pool do nearly all the
  work; the report is ~4 KB, so ``emit`` does almost none.
- ``drain-finite``: the sequential finite path plus the write-heavy side.
  Draining an 8,000-pair bag writes a ~4 MB JSON report, so ``emit``
  outweighs ``run``.
- ``quantum-scan``: bypasses ``reservoir`` and ``populations`` tables.  A
  20,000-step scan, 10^6 singlet samples and a ~3 MB report: the control
  that reservoir work must not move.
- ``mixed-small``: a stream of cheap commands, a quarter of them CSV.
  Per-command CLI cost, ``populations`` and ``entropy`` dominate here.  Its
  plan also carries one malformed command per validation class; these run
  once per run after the timed loop, so that an input which crashes today
  is reported by input without making the timed workload's failure count
  depend on how many commands fit into the run.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("simulate-infinite", "drain-finite", "quantum-scan", "mixed-small")

#: Full-size and self-test ("tiny") parameters.  Tiny keeps every code path
#: but shrinks the expensive dimensions so a pass takes seconds.
SIZES = {
    "full": {"pool": 4, "simulate_draws": 300_000, "bag": 8_000,
             "scan_steps": 20_000, "scan_samples": 1_000_000},
    "tiny": {"pool": 2, "simulate_draws": 20_000, "bag": 200,
             "scan_steps": 200, "scan_samples": 10_000},
}

MIXED_KINDS = ("exact", "entropy", "counterexample", "quantum", "simulate", "drain")
MIXED_PER_KIND = 16
MIXED_CSV_PER_KIND = 4

#: Validation classes of malformed input, one probe command each per mixed plan.
#: ``table-total-2^63`` and ``epsilon-nan`` are known defects; they stay in
#: the pool so that whatever they do today is measured and reported.
MALFORMED_CLASSES = (
    "bad-seed-negative",
    "bad-seed-overflow",
    "negative-count",
    "samples-zero",
    "unknown-preset",
    "table-total-2^63",
    "epsilon-nan",
)


@dataclass
class Command:
    argv: list[str]
    malformed: str | None = None  # validation class, or None for a valid command


@dataclass
class Plan:
    workload: str
    seed: int
    commands: list[Command]
    probes: list[Command] = field(default_factory=list)  # malformed, run once each, untimed
    files: dict[str, str] = field(default_factory=dict)  # config file name -> JSON text


def _seed64(rng: random.Random) -> str:
    return str(rng.getrandbits(64))


def _table(rng: random.Random, lo: int, hi: int) -> list[int]:
    counts = [rng.randint(lo, hi) for _ in range(8)]
    if sum(counts) == 0:
        counts[rng.randrange(8)] = 1
    return counts


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


#: Population shares of a drained bag, for populations 1..8.  The shares are
#: fixed and only the multinomial counts vary with the seed, because a
#: drain's cost depends on where the large populations sit in the table
#: (the finite sampler scans it linearly); the smallest shares run out early.
DRAIN_SHARES = (0.24, 0.0045, 0.18, 0.13, 0.025, 0.32, 0.0005, 0.1)


def _multinomial_bag(rng: random.Random, total: int) -> list[int]:
    """Split ``total`` pairs multinomially with the :data:`DRAIN_SHARES`."""
    tally = Counter(rng.choices(range(8), weights=DRAIN_SHARES, k=total))
    return [tally[i] for i in range(8)]


def _omegas(rng: random.Random) -> list[float]:
    return [round(10.0 ** rng.uniform(-1.0, 2.0), 6) for _ in range(8)]


def _mixed_valid(kind: str, rng: random.Random) -> list[str]:
    if kind == "exact":
        return ["exact", "--table", _csv(_table(rng, 0, 50))]
    if kind == "entropy":
        return ["entropy", "--omegas", _csv(_omegas(rng))]
    if kind == "counterexample":
        return ["counterexample", "--samples", "10000", "--seed", _seed64(rng)]
    if kind == "quantum":
        return ["quantum", "--axes-spacing", str(rng.randint(1, 179)),
                "--samples", "1000", "--seed", _seed64(rng)]
    if kind == "simulate":
        return ["simulate", "--table", _csv(_table(rng, 1, 1000)),
                "--samples", "1000", "--seed", _seed64(rng)]
    if kind == "drain":
        return ["drain", "--table", _csv(_table(rng, 0, 5)), "--seed", _seed64(rng)]
    raise ValueError(kind)


def _mixed_malformed(cls: str, rng: random.Random) -> list[str]:
    k = rng.randint(1, 10**6)
    table = _table(rng, 1, 50)
    if cls == "bad-seed-negative":
        return ["counterexample", "--samples", "100", "--seed", str(-k)]
    if cls == "bad-seed-overflow":
        return ["simulate", "--table", _csv(table), "--samples", "1000",
                "--seed", str(2**64 + k)]
    if cls == "negative-count":
        table[rng.randrange(8)] = -k
        return ["exact", "--table", _csv(table)]
    if cls == "samples-zero":
        return ["quantum", "--axes-spacing", "60", "--samples", "0", "--seed", str(k)]
    if cls == "unknown-preset":
        return ["exact", "--config", f"no-such-preset-{k}"]
    if cls == "table-total-2^63":
        table[0] = 2**63 + k
        return ["simulate", "--table", _csv(table), "--samples", "1000"]
    if cls == "epsilon-nan":
        return ["entropy", "--omegas", _csv(_omegas(rng)), "--epsilon", "nan"]
    raise ValueError(cls)


def build_plan(workload: str, seed: int, workers: int, size: str = "full") -> Plan:
    """The command pool of ``workload`` for ``seed``; the same seed gives the
    same argv lists.  ``workers`` is passed to ``simulate --workers``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    p = SIZES[size]
    rng = random.Random(f"{workload}/{seed}")
    plan = Plan(workload, seed, [])
    if workload == "simulate-infinite":
        for _ in range(p["pool"]):
            plan.commands.append(Command([
                "simulate", "--table", _csv(_table(rng, 1, 1000)),
                "--samples", str(p["simulate_draws"]), "--seed", _seed64(rng),
                "--workers", str(workers),
            ]))
    elif workload == "drain-finite":
        for _ in range(p["pool"]):
            plan.commands.append(Command([
                "drain", "--table", _csv(_multinomial_bag(rng, p["bag"])),
                "--seed", _seed64(rng),
            ]))
    elif workload == "quantum-scan":
        # ``steps`` has no flag, so these commands go through --config.
        for i in range(p["pool"]):
            name = f"scan{i}.json"
            plan.files[name] = json.dumps({
                "axes_spacing_deg": 179, "steps": p["scan_steps"],
                "samples": p["scan_samples"], "seed": rng.getrandbits(64),
            })
            plan.commands.append(Command(["quantum", "--config", name]))
    else:
        for kind in MIXED_KINDS:
            csv_slots = set(rng.sample(range(MIXED_PER_KIND), MIXED_CSV_PER_KIND))
            for i in range(MIXED_PER_KIND):
                argv = _mixed_valid(kind, rng)
                if i in csv_slots:
                    argv += ["--format", "csv"]
                plan.commands.append(Command(argv))
        rng.shuffle(plan.commands)
        plan.probes = [Command(_mixed_malformed(cls, rng), malformed=cls)
                       for cls in MALFORMED_CLASSES]
    return plan


def materialize(plan: Plan, directory: Path) -> tuple[list[Command], list[Command]]:
    """Write the plan's config files into ``directory`` and return the timed
    commands and the probes, with ``--config`` names pointing at the files."""
    for name, text in plan.files.items():
        (directory / name).write_text(text, encoding="utf-8")

    def placed(cmds: list[Command]) -> list[Command]:
        return [Command([str(directory / a) if a in plan.files else a for a in c.argv],
                        c.malformed) for c in cmds]

    return placed(plan.commands), placed(plan.probes)
