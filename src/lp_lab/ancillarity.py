"""Ancillary statistics on finite models: testing, exhaustive enumeration,
maximal and laminal ancillaries, conditioning, and the relations C and
Durbin-restricted C."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import GroundSetMismatch, NotAncillary, SpaceTooLarge
from .model import (
    FiniteModel,
    ModelDataPair,
    check_same_theta,
    column_embedding,
)
from .partition import Partition, all_partitions, is_function_of
from .sufficiency import likelihood_partition

# Bound on |X| for exhaustive ancillary enumeration, which filters all
# Bell(|X|) set partitions: Bell(12) is ~4.2M and takes minutes per call.
# Override per call, or via LP_LAB_MAX_SPACE for the CLI's `ancillaries`.
# The relations C and Durbin-C do not enumerate, so it does not limit them;
# conditional_pairs, which tests 2^(|X|-1) blocks, refuses larger models.
DEFAULT_MAX_SPACE = 12


@dataclass(frozen=True)
class AncillaryCatalog:
    all: tuple[Partition, ...]
    maximal: tuple[Partition, ...]
    laminal: Partition


@dataclass(frozen=True)
class CWitness:
    """Certificate that one pair is an ancillary conditional of the other.

    ``parent`` names which argument carries the ancillary ("first" or
    "second"); conditioning the parent on the block of its observed point
    and applying ``bijection`` reproduces the child pair exactly.
    """

    parent: str
    ancillary: Partition
    conditional: ModelDataPair
    bijection: tuple[int, ...]


def block_masses(model: FiniteModel, partition: Partition) -> Optional[
    tuple[Fraction, ...]
]:
    """Per-block masses if they are parameter-free, else None.

    Raises GroundSetMismatch unless the partition is of the model's sample
    space.
    """
    if partition.size != model.n_points:
        raise GroundSetMismatch(
            f"partition of {partition.size} points, model has {model.n_points}"
        )
    masses = []
    for block in partition.blocks:
        sums = {sum(row[x] for x in block) for row in model.probs}
        if len(sums) > 1:
            return None
        masses.append(sums.pop())
    return tuple(masses)


def is_ancillary(model: FiniteModel, partition: Partition) -> bool:
    """True iff every block has the same exact mass under every parameter."""
    return block_masses(model, partition) is not None


def balanced_blocks(model: FiniteModel, point: int) -> list[frozenset[int]]:
    """Every block B holding ``point`` whose mass is free of the parameter.

    B is balanced iff {B, X \\ B} is ancillary. Each B comes once, in the
    restricted-growth order of {B, X \\ B}, so B = X comes first. The test
    is in integers: with D the common denominator, B is balanced iff the
    sum over B of D*f_theta(x) - D*f_theta1(x) is 0 for every theta. Only
    2^(|X|-1) candidates are visited, not Bell(|X|) partitions.
    """
    n = model.n_points
    first, *others = model.rows
    diffs = [tuple(row[x] - first[x] for row in others) for x in range(n)]
    # Bit b of a mask stands for point n-1-b. Counting the masks up lists
    # the label strings of {A, X \ A}, with 0 in A and the set bits in
    # X \ A, in restricted-growth order. X is balanced, so A is balanced
    # iff the set bits are: totals[mask] sums their differences.
    zero = tuple(0 for _ in others)
    totals = [zero]
    everything = frozenset(range(n))
    blocks = [everything]
    for mask in range(1, 1 << (n - 1)):
        low = mask & -mask
        diff = diffs[n - low.bit_length()]
        total = tuple(a + b for a, b in zip(totals[mask ^ low], diff))
        totals.append(total)
        if total == zero:
            rest = frozenset(x for x in range(1, n) if mask >> (n - 1 - x) & 1)
            blocks.append(rest if point in rest else everything - rest)
    return blocks


def enumerate_ancillaries(
    model: FiniteModel, max_space: int = DEFAULT_MAX_SPACE
) -> list[Partition]:
    """All ancillary partitions of the sample space, in canonical order."""
    if model.n_points > max_space:
        raise SpaceTooLarge(
            f"|X| = {model.n_points} exceeds enumeration bound {max_space}"
        )
    return [
        p for p in all_partitions(model.n_points) if is_ancillary(model, p)
    ]


def maximal_ancillaries(
    model: FiniteModel, max_space: int = DEFAULT_MAX_SPACE
) -> list[Partition]:
    """Refinement-maximal ancillaries: no other ancillary strictly refines them."""
    ancillaries = enumerate_ancillaries(model, max_space)
    out = []
    for a in ancillaries:
        if not any(b != a and b.refines(a) for b in ancillaries):
            out.append(a)
    return out


def laminal_ancillary(
    model: FiniteModel, max_space: int = DEFAULT_MAX_SPACE
) -> Partition:
    """The finest ancillary that is a function of every maximal ancillary.

    It always exists and is the join of the maximal ancillaries. A union of
    blocks of an ancillary has parameter-free mass, so each block of the
    join is balanced and the join is ancillary; and any statistic that is a
    function of every maximal ancillary is a function of their join.
    """
    maximal = maximal_ancillaries(model, max_space)
    return functools.reduce(Partition.join, maximal)


def ancillary_catalog(
    model: FiniteModel, max_space: int = DEFAULT_MAX_SPACE
) -> AncillaryCatalog:
    return AncillaryCatalog(
        tuple(enumerate_ancillaries(model, max_space)),
        tuple(maximal_ancillaries(model, max_space)),
        laminal_ancillary(model, max_space),
    )


def _conditional(pair: ModelDataPair, ancillary: Partition) -> ModelDataPair:
    """The pair given the ancillary block of its observed point, for a
    partition its caller has already proved ancillary."""
    model = pair.model
    block = sorted(ancillary.blocks[ancillary.block_index_of(pair.observed)])
    labels = tuple(model.sample_labels[x] for x in block)
    # f(x) / mass(B) is den * f(x) over den * mass(B), the block's row sum,
    # which is the same for every parameter since the partition is ancillary
    rows = tuple(tuple(row[x] for x in block) for row in model.rows)
    return ModelDataPair(
        FiniteModel(model.theta_labels, labels, sum(rows[0]), rows),
        block.index(pair.observed),
    )


def condition_on_block(
    pair: ModelDataPair, ancillary: Partition
) -> ModelDataPair:
    """Conditional pair given the ancillary block of the observed point.

    Raises GroundSetMismatch unless the partition is of the pair's sample
    space, and NotAncillary unless its block masses are parameter-free.
    """
    if not is_ancillary(pair.model, ancillary):
        raise NotAncillary("partition has parameter-dependent block masses")
    return _conditional(pair, ancillary)


def conditional_pairs(pair: ModelDataPair) -> list[tuple[Partition, ModelDataPair]]:
    """All one-step conditionals of a pair, one per balanced block B that
    holds the observed point, each with its ancillary {B, X \\ B}.

    The list is in restricted-growth order of the ancillaries. Among all
    ancillaries having B as the observed point's block, {B, X \\ B} comes
    first in that order, so the distinct conditionals appear in the same
    order as when conditioning on every ancillary partition in turn.
    2^(|X|-1) blocks are tested, so |X| above DEFAULT_MAX_SPACE raises
    SpaceTooLarge.
    """
    n = pair.model.n_points
    if n > DEFAULT_MAX_SPACE:
        raise SpaceTooLarge(
            f"|X| = {n} exceeds enumeration bound {DEFAULT_MAX_SPACE}"
        )
    out = []
    for block in balanced_blocks(pair.model, pair.observed):
        rest = set(range(n)) - block
        ancillary = Partition.of(n, [block, rest] if rest else [block])
        out.append((ancillary, _conditional(pair, ancillary)))
    return out


def _conditioning_witness(
    parent: ModelDataPair,
    child: ModelDataPair,
    which: str,
    durbin: bool,
) -> Optional[CWitness]:
    """Condition ``parent`` on one block to a copy of ``child``, if possible.

    A block B holding the observed point does this iff, for the m > 0 with
    col_P(x_obs) = m * col_Q(y_obs), B's columns are the multiset
    {m * col_Q(y)}. B then has mass m under every parameter, so
    {B, X \\ B} is ancillary. Equal columns are interchangeable, so the
    first match decides, also whether B is a union of likelihood classes.
    """
    source, target = parent.model, child.model
    into, columns = source.likelihoods, target.likelihoods
    # Over each model's D a column is g * k, so into[phi(y)] == (p/q) *
    # columns[y] reads (g_x, k_x) == (p * g_y / q, k_y). If the observed
    # columns are proportional, p/q is the ratio of their g; if they are
    # not, their k differ and column_embedding fails on them.
    ga = into[parent.observed][0] or 1
    gb = columns[child.observed][0] or 1
    g = math.gcd(ga, gb)
    p, q = ga // g, gb // g
    if any(gy % q for gy, _ in columns):
        return None
    scaled = [(p * gy // q, k) for gy, k in columns]
    phi = column_embedding(scaled, child.observed, into, parent.observed)
    if phi is None:
        return None
    image = {x: y for y, x in enumerate(phi)}
    rest = [x for x in range(source.n_points) if x not in image]
    ancillary = Partition.of(source.n_points, [image, rest] if rest else [image])
    if durbin and not is_function_of(ancillary, likelihood_partition(source)):
        return None
    conditional = _conditional(parent, ancillary)
    bijection = tuple(image[x] for x in sorted(image))
    return CWitness(which, ancillary, conditional, bijection)


def c_related(
    p1: ModelDataPair, p2: ModelDataPair, durbin: bool = False
) -> Optional[CWitness]:
    """One conditioning step (either direction), up to isomorphism.

    Present iff some ancillary of one model conditions its pair to a copy
    of the other. The trivial ancillary makes C reflexive and relates any
    two isomorphic pairs. With ``durbin=True`` the witnessing ancillary
    must be a function of the parent's minimal sufficient partition.
    Decided by a multiset-inclusion test on columns, so negatives are
    exact and no ancillary is enumerated.
    """
    check_same_theta(p1.model.theta_labels, p2.model.theta_labels)
    witness = _conditioning_witness(p1, p2, "first", durbin)
    if witness is not None:
        return witness
    return _conditioning_witness(p2, p1, "second", durbin)


def verify_c_witness(
    p1: ModelDataPair, p2: ModelDataPair, witness: CWitness, durbin: bool = False
) -> bool:
    """Independent re-check of a conditioning certificate.

    ``parent`` must be "first" or "second". The ancillary must be a
    partition of the parent's sample space whose block masses, summed in
    ``Fraction``s, are parameter-free, and with ``durbin=True`` a function
    of the parent's minimal sufficient partition. Conditioning the parent
    on it must give the recorded conditional, and ``bijection`` must carry
    that conditional onto the child, observed point included.
    """
    if witness.parent == "first":
        parent, child = p1, p2
    elif witness.parent == "second":
        parent, child = p2, p1
    else:
        return False
    ancillary = witness.ancillary
    if ancillary.size != parent.model.n_points:
        return False
    if not is_ancillary(parent.model, ancillary):
        return False
    if durbin and not is_function_of(ancillary, likelihood_partition(parent.model)):
        return False
    conditional = _conditional(parent, ancillary)
    if conditional != witness.conditional:
        return False
    phi = witness.bijection
    m1, m2 = conditional.model, child.model
    if m1.theta_labels != m2.theta_labels or len(phi) != m1.n_points:
        return False
    if sorted(phi) != list(range(m2.n_points)):
        return False
    if phi[conditional.observed] != child.observed:
        return False
    return all(
        m1.column(x) == m2.column(phi[x]) for x in range(m1.n_points)
    )
