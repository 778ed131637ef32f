"""lp-lab: exact-arithmetic relations, mixtures and evidence on finite models."""

from .model import (
    FiniteModel,
    ModelDataPair,
    canonical_form,
    pair_at,
    pairs_isomorphic,
    validate_model,
)
from .partition import Partition, all_partitions, is_function_of
from .sufficiency import (
    ReductionResult,
    is_sufficient,
    likelihood_partition,
    reduce_to_mss,
    s_related,
    statistic_induced_model,
)
from .ancillarity import (
    AncillaryCatalog,
    CWitness,
    ancillary_catalog,
    c_related,
    condition_on_block,
    enumerate_ancillaries,
    is_ancillary,
    laminal_ancillary,
    maximal_ancillaries,
)
from .relations import (
    RelationKind,
    Universe,
    WitnessChain,
    birnbaum_chain,
    birnbaumize,
    closure,
    efm_parent,
    l_related,
    relation_properties_report,
    verify_chain,
)
from .search import (
    SearchBounds,
    check_l_minus_sc,
    enumerate_models,
    enumerate_pairs,
    search_c_transitivity_counterexample,
    search_l_minus_sc,
)
from .evidence import (
    Direction,
    Prior,
    bayes_factor,
    check_model_ancillary,
    check_model_mss,
    check_prior_conflict,
    evidence_direction,
    evidence_report,
    posterior,
    prior_predictive,
    rb_estimate,
    rb_strength,
    relative_belief,
)

__all__ = [name for name in dir() if not name.startswith("_")]
