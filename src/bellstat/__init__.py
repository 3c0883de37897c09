"""bellstat: Bell inequalities in Wigner form from population counting.

The library has four pillars, one module each:

- :mod:`bellstat.populations`: the eight anticorrelated populations of
  particle pairs, exact count probabilities, and the Wigner inequality;
- :mod:`bellstat.entropy`: multiplicity and Boltzmann/Gibbs entropy algebra,
  the sum/product/entropy forms of the joint-multiplicity inequality, and a
  counterexample search;
- :mod:`bellstat.reservoir`: seeded sampling with and without replacement,
  depletion trajectories, and finite-vs-infinite divergence reports;
- :mod:`bellstat.quantum`: the singlet-state baseline that violates the
  inequality, with its state-vector oracle and a Monte Carlo sampler.

The ``bellstat`` command line (:mod:`bellstat.cli`) orchestrates all four and
emits machine-readable JSON/CSV reports.

``import bellstat`` loads ``populations`` and ``entropy`` only.  ``reservoir``
and ``quantum``, and numpy with them, load the first time one of their names
is used; ``from bellstat import X`` works for every name in ``__all__``.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType
from typing import Any as _Any

from .errors import BellstatError, ValidationError
from .populations import (
    TOL,
    AXIS_LABELS,
    Axis,
    AxisTriple,
    ExactProbability,
    InequalityReport,
    PairOutcome,
    PopulationTable,
    SignTriple,
    Term,
    WIGNER_OUTCOMES,
    angle_between,
    exact_probability,
    outcome_populations,
    population_pair_partition,
    population_signs,
    wigner_check,
    wigner_check_probabilities,
)
from .entropy import (
    BOLTZMANN_SI,
    Entropy,
    Multiplicity,
    MultiplicityVector,
    combine,
    dice_multiplicity,
    dice_probability,
    entropy_from_multiplicity,
    entropy_inequality,
    entropy_ratios,
    find_multiplicity_counterexample,
    gibbs_entropy,
    joint_multiplicity,
    multiplicity_from_entropy,
    multiplicity_inequality,
    multiplicity_probability,
    product_inequality,
)

# The reservoir and quantum names, served on first use (PEP 562): those
# modules import numpy, which the exact and entropy arithmetic never needs.
# The one table of what loads lazily: bellstat.cli binds these names too.
_LAZY = {
    **dict.fromkeys((
        "CHUNK_SIZE", "DivergenceReport", "EmpiricalEstimate", "ReservoirSpec",
        "depletion_trajectory", "empirical_probability", "finite_vs_infinite_divergence",
    ), "reservoir"),
    **dict.fromkeys((
        "ScanPoint", "SingletPrediction", "SingletSampleCounts", "WignerScan",
        "quantum_wigner_scan", "singlet_prediction", "singlet_prediction_statevector",
        "singlet_sample",
    ), "quantum"),
}


def __getattr__(name: str) -> _Any:
    """A :data:`_LAZY` name, or the ``reservoir`` or ``quantum`` module,
    imported on first use."""
    module = _LAZY.get(name, name)
    if module not in ("reservoir", "quantum"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

# Every public name imported above, then the lazy ones; the submodules
# themselves are not exported.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + [*_LAZY, "__version__"]
