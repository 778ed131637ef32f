"""Likelihood-based sufficiency: the minimal sufficient partition, model
reduction with exact factorization, and the relation S.

The quotient by the minimal sufficient partition belongs to the model,
not to the observed point, so it is held in one cache, by model: the pairs
of one model share one reduced model, ``block_map`` and tuple of theta-free
factors, and the pairs of one block one ReductionResult."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import GroundSetMismatch, UnreachablePoint
from .model import FiniteModel, ModelDataPair, check_same_theta, pairs_isomorphic
from .partition import Partition


@dataclass(frozen=True)
class ReductionResult:
    """Quotient of a pair by its minimal sufficient partition.

    Carries the exact factorization f_theta(x) = g_theta(block(x)) * h(x):
    ``block_map[x]`` is the block index of x in the reduced sample space and
    ``theta_free_factor[x]`` is h(x).
    """

    reduced: ModelDataPair
    block_map: tuple[int, ...]
    theta_free_factor: tuple[Fraction, ...]


@dataclass(frozen=True)
class SWitness:
    left: ReductionResult
    right: ReductionResult
    bijection: tuple[int, ...]


def likelihood_partition(model: FiniteModel) -> Partition:
    """Group sample points whose likelihood vectors are proportional.

    This is the minimal sufficient partition of a finite discrete model:
    two points land in one block iff their columns agree up to a positive
    scalar (zero patterns included), that is iff their primitive vectors
    k in ``model.likelihoods`` are equal.
    """
    return Partition.from_labels([k for _, k in model.likelihoods])


def check_ground_set(model: FiniteModel, partition: Partition) -> None:
    """Raise GroundSetMismatch unless the partition is of the model's
    sample space."""
    if partition.size != model.n_points:
        raise GroundSetMismatch(
            f"partition of {partition.size} points, model has {model.n_points}"
        )


def is_sufficient(model: FiniteModel, partition: Partition) -> bool:
    """True iff within every block all likelihood vectors are proportional.

    Raises GroundSetMismatch unless the partition is of the model's sample
    space.
    """
    check_ground_set(model, partition)
    return partition.refines(likelihood_partition(model))


def statistic_induced_model(model: FiniteModel, partition: Partition) -> FiniteModel:
    """Marginal model of a statistic: block probabilities by exact sums.

    Each block is labeled by its points' labels, as "{a,b}". Raises
    GroundSetMismatch unless the partition is of the model's sample space,
    and UnreachablePoint for a block no parameter reaches.
    """
    check_ground_set(model, partition)
    labels = tuple(
        "{" + ",".join(model.sample_labels[x] for x in block) + "}"
        for block in partition.blocks
    )
    rows = tuple(
        tuple(sum(row[x] for x in block) for block in partition.blocks)
        for row in model.rows
    )
    for i, block in enumerate(partition.blocks):
        if all(row[i] == 0 for row in rows):
            raise UnreachablePoint(f"block {list(block)} has zero mass")
    return FiniteModel(model.theta_labels, labels, model.den, rows)


# Models kept by the reduction cache. One pass of the benchmark at seed 7
# reduces 39 distinct models (chains), 116 (closure) and 137 (evidence), so
# no workload evicts.
MSS_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=MSS_CACHE_SIZE)
def _quotient(model: FiniteModel) -> tuple:
    """The model's reduced model, block_map and theta-free factors, and each
    block's ReductionResult, held once a pair in that block asks for it."""
    partition = likelihood_partition(model)
    reduced = statistic_induced_model(model, partition)
    gcds = [g for g, _ in model.likelihoods]
    totals = [sum(gcds[x] for x in block) for block in partition.blocks]
    block_map = partition.labels
    factors = tuple(Fraction(g, totals[b]) for g, b in zip(gcds, block_map))
    return reduced, block_map, factors, {}


def reduce_to_mss(pair: ModelDataPair) -> ReductionResult:
    """Quotient the pair by its minimal sufficient partition.

    Every column of a block B is g(x) * k for the one primitive vector k of
    B, with ``(g(x), k)`` read from ``model.likelihoods``. B's mass is
    then (sum of g over B) * k, so the theta-free factor is
    h(x) = f_theta(x) / g_theta(B) = g(x) / (sum of g over B) for every
    parameter value at once. A block no parameter reaches raises
    UnreachablePoint when the reduced model is built.

    It is read from the model's entry in the one reduction cache, of
    MSS_CACHE_SIZE models: the pairs of one model share its reduced model,
    ``block_map`` and factors, and the pairs of one block, such as the two
    observations of a Birnbaum mixture, share one ReductionResult.
    """
    reduced, block_map, factors, results = _quotient(pair.model)
    block = block_map[pair.observed]
    if block not in results:
        # setdefault: if threads race here, all share the first one stored
        reduced_pair = ModelDataPair(reduced, block)
        results.setdefault(block, ReductionResult(reduced_pair, block_map, factors))
    return results[block]


# bench/tracer.py reads the reduction cache's counters from reduce_to_mss
reduce_to_mss.cache_info = _quotient.cache_info
reduce_to_mss.cache_clear = _quotient.cache_clear


def s_related(p1: ModelDataPair, p2: ModelDataPair) -> Optional[SWitness]:
    """Present iff the MSS reductions have equal canonical forms; the
    witness's bijection is ``pairs_isomorphic``'s on the reductions."""
    check_same_theta(p1.model.theta_labels, p2.model.theta_labels)
    r1 = reduce_to_mss(p1)
    r2 = reduce_to_mss(p2)
    phi = pairs_isomorphic(r1.reduced, r2.reduced)
    if phi is None:
        return None
    return SWitness(r1, r2, phi)
