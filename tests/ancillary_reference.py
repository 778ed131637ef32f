"""Brute-force laminal ancillary, for tests only.

``brute_force_laminal`` searches every ancillary for the finest one that is
a function of every maximal ancillary, as the library did before it took
the join of the maximal ancillaries. When no candidate is finest it reports
the antichain of refinement-minimal candidates instead; the differential
test checks that this never happens.

``balanced_blocks`` lists the blocks with parameter-free mass that hold a
point, by summing ``Fraction`` probabilities over every subset; the library
finds them as the two-block ancillaries of ``_balanced_splits``.
``conditional_pairs`` conditions a pair on each of those splits.
"""

from __future__ import annotations

import itertools
from typing import Optional

from lp_lab.ancillarity import (
    _balanced_splits,
    _conditional,
    enumerate_ancillaries,
    maximal_ancillaries,
)
from lp_lab.model import FiniteModel, ModelDataPair
from lp_lab.partition import Partition, is_function_of


def brute_force_laminal(
    model: FiniteModel,
) -> tuple[Optional[Partition], Optional[list[Partition]]]:
    """(laminal, None) if a finest candidate exists, else (None, antichain)."""
    ancillaries = enumerate_ancillaries(model)
    maximal = maximal_ancillaries(model)
    candidates = [
        a for a in ancillaries if all(is_function_of(a, m) for m in maximal)
    ]
    finest = [a for a in candidates if all(a.refines(b) for b in candidates)]
    if len(finest) == 1:
        return finest[0], None
    minimal = [
        a
        for a in candidates
        if not any(b != a and b.refines(a) for b in candidates)
    ]
    return None, minimal


def balanced_blocks(model: FiniteModel, point: int) -> list[tuple[int, ...]]:
    """Every block B holding ``point`` whose mass is free of the parameter,
    as an ascending tuple.

    B is balanced iff {B, X \\ B} is ancillary. Each B comes once, in the
    restricted-growth order of {B, X \\ B}, so B = X comes first. No bound
    on |X| applies: all 2^(|X|-1) label strings are visited.
    """
    out = []
    for rest in itertools.product((0, 1), repeat=model.n_points - 1):
        labels = (0,) + rest
        block = tuple(x for x, b in enumerate(labels) if b == labels[point])
        masses = {sum(row[x] for x in block) for row in model.probs}
        if len(masses) == 1:
            out.append(block)
    return out


def conditional_pairs(pair: ModelDataPair) -> list[tuple[Partition, ModelDataPair]]:
    """All one-step conditionals of a pair, one per balanced block B that
    holds the observed point, each with its ancillary {B, X \\ B}.

    The ancillaries are the splits of ``_balanced_splits``, whose blocks the
    C-transitivity search compares too, and the list is in their
    restricted-growth order. Among all ancillaries having B as the observed
    point's block, {B, X \\ B} comes first in that order, so the distinct
    conditionals appear in the same order as when conditioning on every
    ancillary partition in turn.
    2^(|X|-1) blocks are tested, so |X| above MAX_SPACE raises
    SpaceTooLarge.
    """
    return [(a, _conditional(pair, a)) for a in _balanced_splits(pair.model)]
