"""Graded sets, granular sets, fault-tolerant interval fusion, and
rough-set analysis of information tables.

The core objects are chains: fused intervals nested by fault budget,
set families nested by inclusion, and partitions nested by refinement.
Everything here is deterministic and value-semantic.
"""

from .chains import GradedFamily, is_rough_family
from .errors import DomainError, ParseError
from .infosys import (
    ApproximationPair,
    InformationTable,
    SensitivityRecord,
    approximation_pair,
    graded_approximations,
    granular_from_chain,
    indiscernibility_partition,
    sensitivity_profile,
)
from .intervals import (
    FaultDistribution,
    FusionResult,
    GradedIntervals,
    Interval,
    IntervalDistribution,
    as_rough_pair,
    fuse,
    fused_subset,
    graded_fusion,
    random_graded,
    sample,
)
from .partitions import GranularSet, Partition, refines, validate_granular
from .simulate import SimConfig, SimOutcome, simulate_round, simulate_rounds

__version__ = "0.1.0"

__all__ = [
    "GradedFamily", "is_rough_family",
    "DomainError", "ParseError",
    "ApproximationPair", "InformationTable", "SensitivityRecord", "approximation_pair", "graded_approximations",
    "granular_from_chain", "indiscernibility_partition", "sensitivity_profile",
    "FaultDistribution", "FusionResult", "GradedIntervals", "Interval", "IntervalDistribution", "as_rough_pair",
    "fuse", "fused_subset", "graded_fusion", "random_graded", "sample",
    "GranularSet", "Partition", "refines", "validate_granular",
    "SimConfig", "SimOutcome", "simulate_round", "simulate_rounds",
]
