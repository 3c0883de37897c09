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
"""

from types import ModuleType as _ModuleType

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
from .reservoir import (
    CHUNK_SIZE,
    DivergenceReport,
    EmpiricalEstimate,
    ReservoirSpec,
    depletion_trajectory,
    empirical_probability,
    finite_vs_infinite_divergence,
)
from .quantum import (
    ScanPoint,
    SingletPrediction,
    SingletSampleCounts,
    WignerScan,
    quantum_wigner_scan,
    singlet_prediction,
    singlet_prediction_statevector,
    singlet_sample,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules themselves are not exported.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
