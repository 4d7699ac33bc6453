"""Generalized entropies on finite distributions, coarse-graining, and
numerical certification that state aggregation never increases entropy.

Quick start::

    from gentropy import EntropySpec, FiniteDistribution, evaluate

    spec = EntropySpec("tsallis", q=2.0)
    print(evaluate(spec, FiniteDistribution([0.5, 0.5])))   # 0.5
"""

from .catalog import (
    CATALOG_IDS,
    EntropySpec,
    FunctionalDescriptor,
    TRANSFORM_PAIRS,
    default_campaign_specs,
    evaluate,
    matched_transform_target,
    outer_map,
    outer_map_prime,
    phi_component,
    phi_prime,
    spec_from_json,
    spec_to_json,
    transform_between,
)
from .distributions import (
    FiniteDistribution,
    JointDistribution,
    coarse_grain,
    escort,
    from_weights,
    joint_from_conditionals,
    merge_pair,
    sample_dirichlet_uniform,
)
from .partitions import (
    Partition,
    bell_number,
    enumerate_partitions,
    is_refinement,
    quotient_partition,
    random_refinement_pair,
)
from .special import universal_group_G, universal_group_G_prime, upper_incomplete_gamma
from .classify import (
    GridCertificate,
    TransformConsistencyReport,
    Witness,
    check_concavity,
    check_outer_map_pairing,
    check_slope_condition,
    check_transform_consistency,
)
from .axioms import (
    AxiomResidual,
    check_basic_axioms,
    check_product_composability,
    expected_conforming,
    pseudo_additivity_gamma,
    residual_escort_composability,
    residual_product_composability,
    residual_recursivity,
    residual_split_recursivity,
    residual_strong_additivity,
)
from .verify import (
    CaseRecord,
    SpecSummary,
    VerificationReport,
    corollary1_check,
    counterexample_suite,
    emit_report,
    exhaustive_lattice_check,
    max_entropy_check,
    replay_case,
    report_from_json,
    run_monotonicity_campaign,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "AxiomResidual",
    "CATALOG_IDS",
    "CaseRecord",
    "EntropySpec",
    "FiniteDistribution",
    "FunctionalDescriptor",
    "JointDistribution",
    "Partition",
    "GridCertificate",
    "SpecSummary",
    "TRANSFORM_PAIRS",
    "TransformConsistencyReport",
    "VerificationReport",
    "Witness",
    "bell_number",
    "check_basic_axioms",
    "check_concavity",
    "check_outer_map_pairing",
    "check_product_composability",
    "check_slope_condition",
    "check_transform_consistency",
    "coarse_grain",
    "corollary1_check",
    "counterexample_suite",
    "default_campaign_specs",
    "emit_report",
    "enumerate_partitions",
    "errors",
    "escort",
    "evaluate",
    "exhaustive_lattice_check",
    "expected_conforming",
    "from_weights",
    "is_refinement",
    "joint_from_conditionals",
    "matched_transform_target",
    "max_entropy_check",
    "merge_pair",
    "outer_map",
    "outer_map_prime",
    "phi_component",
    "phi_prime",
    "pseudo_additivity_gamma",
    "quotient_partition",
    "random_refinement_pair",
    "replay_case",
    "report_from_json",
    "residual_escort_composability",
    "residual_product_composability",
    "residual_recursivity",
    "residual_split_recursivity",
    "residual_strong_additivity",
    "run_monotonicity_campaign",
    "sample_dirichlet_uniform",
    "spec_from_json",
    "spec_to_json",
    "transform_between",
    "universal_group_G",
    "universal_group_G_prime",
    "upper_incomplete_gamma",
]
