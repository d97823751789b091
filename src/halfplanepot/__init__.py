"""Modified Poisson/Green kernel machinery for the upper half plane.

Kernel evaluation, Poisson integrals against growing boundary data, Green
potentials of atomic measures, order-beta maximal functions, exceptional-set
covers, and an empirical growth-verification harness.
"""

from .core import (
    Ball,
    CoverParams,
    DiscreteMeasure,
    DomainError,
    IndicatorDensity,
    NumericalFailure,
    ParameterError,
    PowerDensity,
    QuadratureSpec,
    ScenarioError,
    SingularityError,
    TabulatedDensity,
    validate_scenario,
)
from .covering import (
    CertificationReport,
    CoverCertificationError,
    ExceptionalCover,
    build_exceptional_cover,
    certify_complement,
    cover_from_json,
    cover_to_json,
    maximal_function,
    maximal_function_many,
)
from .growth import (
    DecayResult,
    GrowthReport,
    GrowthSample,
    Lemma2SweepReport,
    SamplingPlan,
    decay_assertion,
    growth_report,
    lemma2_sweep,
)
from .kernels import (
    EvalMode,
    fundamental_solution,
    green,
    green_tail_envelope,
    lemma2_bound,
    modified_fundamental,
    modified_green,
    modified_green_many,
    modified_poisson,
    poisson,
    poisson_tail_envelope,
)
from .potentials import (
    PoissonIntegralResult,
    PotentialValue,
    green_potential,
    poisson_integral,
    subharmonic_eval,
)
from .scenario import Scenario, load_scenario, parse_scenario, read_atoms_csv

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "CertificationReport",
    "CoverCertificationError",
    "CoverParams",
    "DecayResult",
    "DiscreteMeasure",
    "DomainError",
    "EvalMode",
    "ExceptionalCover",
    "GrowthReport",
    "GrowthSample",
    "IndicatorDensity",
    "Lemma2SweepReport",
    "NumericalFailure",
    "ParameterError",
    "PoissonIntegralResult",
    "PotentialValue",
    "PowerDensity",
    "QuadratureSpec",
    "SamplingPlan",
    "Scenario",
    "ScenarioError",
    "SingularityError",
    "TabulatedDensity",
    "build_exceptional_cover",
    "certify_complement",
    "cover_from_json",
    "cover_to_json",
    "decay_assertion",
    "fundamental_solution",
    "green",
    "green_potential",
    "green_tail_envelope",
    "growth_report",
    "lemma2_bound",
    "lemma2_sweep",
    "load_scenario",
    "maximal_function",
    "maximal_function_many",
    "modified_fundamental",
    "modified_green",
    "modified_green_many",
    "modified_poisson",
    "parse_scenario",
    "poisson",
    "poisson_integral",
    "poisson_tail_envelope",
    "read_atoms_csv",
    "subharmonic_eval",
    "validate_scenario",
]
