"""Likelihood-based sufficiency: the minimal sufficient partition, model
reduction with exact factorization, and the relation S."""

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


def _check_ground_set(model: FiniteModel, partition: Partition) -> None:
    if partition.size != model.n_points:
        raise GroundSetMismatch(
            f"partition of {partition.size} points, model has {model.n_points}"
        )


def is_sufficient(model: FiniteModel, partition: Partition) -> bool:
    """True iff within every block all likelihood vectors are proportional.

    Raises GroundSetMismatch unless the partition is of the model's sample
    space.
    """
    _check_ground_set(model, partition)
    keys = [k for _, k in model.likelihoods]
    return all(len({keys[x] for x in block}) == 1 for block in partition.blocks)


def statistic_induced_model(
    model: FiniteModel, partition: Partition, labels: tuple[str, ...] | None = None
) -> FiniteModel:
    """Marginal model of a statistic: block probabilities by exact sums.

    Raises GroundSetMismatch unless the partition is of the model's sample
    space, and UnreachablePoint for a block no parameter reaches.
    """
    _check_ground_set(model, partition)
    if labels is None:
        labels = tuple(
            "{" + ",".join(model.sample_labels[x] for x in sorted(block)) + "}"
            for block in partition.blocks
        )
    rows = tuple(
        tuple(sum(row[x] for x in block) for block in partition.blocks)
        for row in model.rows
    )
    for i, block in enumerate(partition.blocks):
        if all(row[i] == 0 for row in rows):
            raise UnreachablePoint(f"block {sorted(block)} has zero mass")
    return FiniteModel(model.theta_labels, labels, model.den, rows)


# Entries kept by the reduce_to_mss cache. One closure, chain or evidence
# pass of the benchmark peaks below 200, so no workload evicts.
MSS_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=MSS_CACHE_SIZE)
def reduce_to_mss(pair: ModelDataPair) -> ReductionResult:
    """Quotient the pair by its minimal sufficient partition.

    Every column of a block B is g(x) * k for the one primitive vector k of
    B, with ``(g(x), k)`` read from ``model.likelihoods``. B's mass is
    then (sum of g over B) * k, so the theta-free factor is
    h(x) = f_theta(x) / g_theta(B) = g(x) / (sum of g over B) for every
    parameter value at once. A block no parameter reaches raises
    UnreachablePoint when the reduced model is built.
    """
    model = pair.model
    partition = likelihood_partition(model)
    reduced_model = statistic_induced_model(model, partition)
    block_map = tuple(partition.block_index_of(x) for x in range(model.n_points))
    gcds = [g for g, _ in model.likelihoods]
    totals = [sum(gcds[x] for x in block) for block in partition.blocks]
    factors = tuple(Fraction(g, totals[b]) for g, b in zip(gcds, block_map))
    reduced_pair = ModelDataPair(reduced_model, block_map[pair.observed])
    return ReductionResult(reduced_pair, block_map, factors)


def s_related(p1: ModelDataPair, p2: ModelDataPair) -> Optional[SWitness]:
    """Present iff the canonical MSS reductions are isomorphic pairs."""
    check_same_theta(p1.model.theta_labels, p2.model.theta_labels)
    r1 = reduce_to_mss(p1)
    r2 = reduce_to_mss(p2)
    phi = pairs_isomorphic(r1.reduced, r2.reduced)
    if phi is None:
        return None
    return SWitness(r1, r2, phi)
