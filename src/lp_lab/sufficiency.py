"""Likelihood-based sufficiency: the minimal sufficient partition, model
reduction with exact factorization, and the relation S."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import LpLabError, UnreachablePoint
from .model import (
    FiniteModel,
    ModelDataPair,
    check_same_theta,
    pairs_isomorphic,
    primitive,
)
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
    scalar (zero patterns included).
    """
    return Partition.from_labels(list(map(primitive, model.scaled_columns)))


def is_sufficient(model: FiniteModel, partition: Partition) -> bool:
    """True iff within every block all likelihood vectors are proportional."""
    for block in partition.blocks:
        keys = {primitive(model.scaled_columns[x]) for x in block}
        if len(keys) > 1:
            return False
    return True


def statistic_induced_model(
    model: FiniteModel, partition: Partition, labels: tuple[str, ...] | None = None
) -> FiniteModel:
    """Marginal model of a statistic: block probabilities by exact sums."""
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

    The theta-free factor h(x) = f_theta(x) / g_theta(block(x)) is taken
    from the integers, where it is the ratio of x's entry to its block's
    mass (the reduced model's entry, over the parent's denominator) for one
    parameter value, and asserted identical across all of them by
    cross-multiplication.
    """
    model = pair.model
    partition = likelihood_partition(model)
    reduced_model = statistic_induced_model(model, partition)
    block_map = tuple(partition.block_index_of(x) for x in range(model.n_points))
    scale = model.den // reduced_model.den
    masses = [
        [v * scale for v in column] for column in reduced_model.scaled_columns
    ]
    factors = []
    for x, column in enumerate(model.scaled_columns):
        h: Optional[tuple[int, int]] = None
        for point_mass, block_mass in zip(column, masses[block_map[x]]):
            if block_mass == 0:
                if point_mass != 0:
                    raise LpLabError("zero block mass with positive point mass")
                continue
            if h is None:
                h = (point_mass, block_mass)
            elif point_mass * h[1] != h[0] * block_mass:
                raise LpLabError(
                    "conditional factor depends on the parameter; "
                    "likelihood partition is inconsistent"
                )
        if h is None:
            raise UnreachablePoint("sample point unreachable after reduction")
        factors.append(Fraction(*h))
    reduced_pair = ModelDataPair(reduced_model, block_map[pair.observed])
    return ReductionResult(reduced_pair, block_map, tuple(factors))


def s_related(p1: ModelDataPair, p2: ModelDataPair) -> Optional[SWitness]:
    """Present iff the canonical MSS reductions are isomorphic pairs."""
    check_same_theta(p1.model.theta_labels, p2.model.theta_labels)
    r1 = reduce_to_mss(p1)
    r2 = reduce_to_mss(p2)
    phi = pairs_isomorphic(r1.reduced, r2.reduced)
    if phi is None:
        return None
    return SWitness(r1, r2, phi)
