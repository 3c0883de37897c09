"""Span and count recorders wrapped around bellstat's functions from outside.

The tracer replaces module attributes (``bellstat.cli.sample`` and so on)
with wrappers while it is installed, so the program runs unmodified.  Spans
sit at layer boundaries: the CLI's own stages and every library function the
CLI calls.  Hot functions called inside a layer (``singlet_prediction`` per
scan step, ``multiplicity_inequality`` per searched vector, ``rng.stream``
per chunk, the reservoir's internal ``sample``) get count-only wrappers, so
tracing does not swamp the workloads that call them most.

A span's self time is its duration minus the time its child spans cover.
Spans live in memory and are folded into per-command totals by :meth:`take`.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable

# (module, attribute, span name).  Names are "<layer>.<function>".
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "resolve_config", "cli.resolve_config"),
    ("cli", "run", "cli.run"),
    ("cli", "emit", "cli.emit"),
    ("cli", "sample", "reservoir.sample"),
    ("cli", "empirical_probability", "reservoir.empirical_probability"),
    ("cli", "depletion_trajectory", "reservoir.depletion_trajectory"),
    ("cli", "exact_probability", "populations.exact_probability"),
    ("cli", "wigner_check", "populations.wigner_check"),
    ("cli", "wigner_check_probabilities", "populations.wigner_check_probabilities"),
    ("cli", "quantum_wigner_scan", "quantum.quantum_wigner_scan"),
    ("cli", "singlet_sample", "quantum.singlet_sample"),
    ("cli", "find_multiplicity_counterexample", "entropy.find_multiplicity_counterexample"),
    ("cli", "multiplicity_inequality", "entropy.multiplicity_inequality"),
    ("cli", "product_inequality", "entropy.product_inequality"),
    ("cli", "entropy_inequality", "entropy.entropy_inequality"),
    ("cli", "entropy_ratios", "entropy.entropy_ratios"),
)

# (module, attribute, counter name).
COUNTS = (
    ("cli", "singlet_prediction", "quantum.singlet_prediction"),
    ("quantum", "singlet_prediction", "quantum.singlet_prediction"),
    ("entropy", "multiplicity_inequality", "entropy.multiplicity_inequality"),
    ("reservoir", "stream", "rng.stream"),
    ("quantum", "stream", "rng.stream"),
    ("entropy", "stream", "rng.stream"),
    ("reservoir", "sample", "reservoir.sample"),
)


class Tracer:
    """Records spans and counts for one command at a time.

    ``modules`` maps the short module names above to the imported modules.
    Span wrappers assume they run on the thread that calls ``cli.main``;
    count wrappers may run on any thread.
    """

    def __init__(self, modules: dict[str, Any]):
        self._modules = modules
        self._originals: list[tuple[Any, str, Any]] = []
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.sample_calls: list[tuple[Any, int]] = []  # (ReservoirSpec, n)
        self.emit_bytes = 0

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            if name == "reservoir.sample":
                self.sample_calls.append((args[0], args[1]))
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if name == "cli.emit":
                self.emit_bytes += len(result)
            return result

        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
                if name == "reservoir.sample":
                    self.sample_calls.append((args[0], args[1]))
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for table, wrap in ((SPANS, self._span), (COUNTS, self._count)):
            for module_name, attr, name in table:
                module = self._modules[module_name]
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                setattr(module, attr, wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    # -- per-command totals -----------------------------------------------

    def take(self) -> dict:
        """Per-command totals since the last call, then start afresh.

        ``self_ms`` sums each span name's self time; ``draws`` sums the
        sample sizes requested through either ``sample`` attribute.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ms: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(spans, child_ns):
            self_ms[name] += (end - start - inner) / 1e6
        totals = {
            "self_ms": dict(self_ms),
            "counts": dict(self.counts),
            "draws": sum(n for _, n in self.sample_calls),
            "emit_bytes": self.emit_bytes,
            "sample_calls": self.sample_calls,
        }
        self._reset()
        return totals
