"""Ancillary statistics on finite models: testing, exhaustive enumeration,
maximal and laminal ancillaries, conditioning, and the relations C and
Durbin-restricted C. The check of their certificates, ``verify_c_witness``,
is :mod:`lp_lab.certify`'s and is bound here too."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .certify import verify_c_witness  # the C certificate check, bound here too
from .errors import NotAncillary, SpaceTooLarge
from .model import FiniteModel, ModelDataPair, check_same_theta
from .partition import Partition, all_partitions, is_function_of
from .sufficiency import check_ground_set, likelihood_partition

# Bound on |X| for the two enumerations that need one, read at call time:
# enumerate_ancillaries filters all Bell(|X|) partitions (Bell(12) is ~4.2M),
# and the table of balanced splits tests 2^(|X|-1) blocks.
MAX_SPACE = 12


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
    check_ground_set(model, partition)
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


def _check_space(n: int) -> None:
    if n > MAX_SPACE:
        raise SpaceTooLarge(f"|X| = {n} exceeds enumeration bound {MAX_SPACE}")


def _balanced_splits(model: FiniteModel) -> list[Partition]:
    """Every ancillary with at most two blocks, in restricted-growth order.

    Each is a split {A, X \\ A} whose block A holds point 0, so the trivial
    partition comes first. The test is in integers: with D the common
    denominator, a block B is balanced iff the sum over B of
    D*f_theta(x) - D*f_theta1(x) is 0 for every theta. Only 2^(|X|-1)
    candidates are visited, not Bell(|X|) partitions, and |X| above
    MAX_SPACE raises SpaceTooLarge before any row is read.
    """
    n = model.n_points
    _check_space(n)
    first, *others = model.rows
    diffs = [tuple(row[x] - first[x] for row in others) for x in range(n)]
    # A mask is the set X \ A, bit b standing for point |X|-1-b, so
    # ascending masks are restricted-growth order. X is balanced, so A is
    # balanced iff the set bits are: totals[mask] sums their differences.
    zero = tuple(0 for _ in others)
    totals = [zero]
    splits = [Partition.trivial(n)]
    for mask in range(1, 1 << (n - 1)):
        low = mask & -mask
        diff = diffs[n - low.bit_length()]
        total = tuple(a + b for a, b in zip(totals[mask ^ low], diff))
        totals.append(total)
        if total == zero:
            splits.append(
                Partition(tuple(mask >> (n - 1 - x) & 1 for x in range(n)))
            )
    return splits


def enumerate_ancillaries(model: FiniteModel) -> list[Partition]:
    """All ancillary partitions of the sample space, in canonical order;
    |X| above MAX_SPACE raises SpaceTooLarge before any is generated."""
    _check_space(model.n_points)
    return [
        p for p in all_partitions(model.n_points) if is_ancillary(model, p)
    ]


def maximal_ancillaries(model: FiniteModel) -> list[Partition]:
    """Refinement-maximal ancillaries: no other ancillary strictly refines them."""
    ancillaries = enumerate_ancillaries(model)
    out = []
    for a in ancillaries:
        if not any(b != a and b.refines(a) for b in ancillaries):
            out.append(a)
    return out


def laminal_ancillary(model: FiniteModel) -> Partition:
    """The finest ancillary that is a function of every maximal ancillary.

    It always exists and is the join of the maximal ancillaries. A union of
    blocks of an ancillary has parameter-free mass, so each block of the
    join is balanced and the join is ancillary; and any statistic that is a
    function of every maximal ancillary is a function of their join.
    """
    maximal = maximal_ancillaries(model)
    return functools.reduce(Partition.join, maximal)


def ancillary_catalog(model: FiniteModel) -> AncillaryCatalog:
    return AncillaryCatalog(
        tuple(enumerate_ancillaries(model)),
        tuple(maximal_ancillaries(model)),
        laminal_ancillary(model),
    )


def _conditional(pair: ModelDataPair, ancillary: Partition) -> ModelDataPair:
    """The pair given the ancillary block of its observed point, for a
    partition its caller has proved ancillary or built to be one."""
    model = pair.model
    block = ancillary.blocks[ancillary.labels[pair.observed]]
    labels = tuple(model.sample_labels[x] for x in block)
    # f(x) / mass(B) is den * f(x) over den * mass(B), the block's row sum,
    # which is the same for every parameter since the partition is ancillary
    rows = tuple(tuple(row[x] for x in block) for row in model.rows)
    return ModelDataPair(
        FiniteModel(model.theta_labels, labels, sum(rows[0]), rows),
        block.index(pair.observed),
    )


def _c_step(
    parent: ModelDataPair,
    ancillary: Partition,
    which: str,
    point: Callable[[int], int],
) -> CWitness:
    """The C step that conditions ``parent`` on ``ancillary``, carrying
    each point x of the observed block to ``point(x)`` in the child, for a
    partition its caller has proved ancillary or built to be one. It calls
    no oracle and checks nothing: the one C-step builder."""
    block = ancillary.blocks[ancillary.labels[parent.observed]]
    conditional = _conditional(parent, ancillary)
    return CWitness(which, ancillary, conditional, tuple(map(point, block)))


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


def _column_embedding(
    columns: Sequence[tuple],
    observed: int,
    into: Sequence[tuple],
    into_observed: int,
) -> Optional[list[int]]:
    """The C oracle's column match, an embedding and not an isomorphism
    test: injective phi with columns[x] == into[phi[x]] and phi[observed]
    == into_observed, or None; equal columns of ``into`` go in index order."""
    if columns[observed] != into[into_observed]:
        return None
    free: dict[tuple, list[int]] = {}
    for x, column in enumerate(into):
        if x != into_observed:
            free.setdefault(column, []).append(x)
    phi = [into_observed] * len(columns)
    for x, column in enumerate(columns):
        if x != observed:
            bucket = free.get(column)
            if not bucket:
                return None
            phi[x] = bucket.pop(0)
    return phi


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
    # not, their k differ and _column_embedding fails on them.
    ga = into[parent.observed][0] or 1
    gb = columns[child.observed][0] or 1
    g = math.gcd(ga, gb)
    p, q = ga // g, gb // g
    if any(gy % q for gy, _ in columns):
        return None
    scaled = [(p * gy // q, k) for gy, k in columns]
    phi = _column_embedding(scaled, child.observed, into, parent.observed)
    if phi is None:
        return None
    image = {x: y for y, x in enumerate(phi)}
    ancillary = Partition.from_labels([x in image for x in range(source.n_points)])
    if durbin and not is_function_of(ancillary, likelihood_partition(source)):
        return None
    return _c_step(parent, ancillary, which, image.__getitem__)


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
