"""Exhaustive search substrate: deterministic enumeration of small models
on rational grids, and counterexample searches for the relation algebra."""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .ancillarity import CWitness, _balanced_splits, _c_step, c_related
from .errors import LpLabError, SpaceTooLarge
from .model import FiniteModel, ModelDataPair
from .relations import RelationKind, l_class_pairs, l_related, related


@dataclass(frozen=True)
class SearchBounds:
    theta_size: int = 2
    max_space: int = 6
    max_denominator: int = 6

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value < 1:
                raise LpLabError(
                    f"search bound {field.name} must be at least 1, got {value}"
                )


# Row combinations a grid holds up to each (size, den) stratum, an upper
# bound on its canonical models. The default (2, 6, 6) grid holds 376,461
# combinations for 1,208 models; past this bound enumerate_models refuses
# the grid at once, so the grids that search accepts stay fixed.
MAX_COMBINATIONS = 500_000


def _sorted_columns(
    remaining: tuple[int, ...], parts: int, least: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Non-decreasing sequences of `parts` integer columns, none below
    `least`, whose entries sum to `remaining` row by row. With `least` the
    least nonzero column, (0, ..., 0, 1), no column is zero."""
    if parts == 1:
        if remaining >= least:
            yield (remaining,)
        return
    # every later first entry is at least head, so parts * head fits
    for head in range(least[0], remaining[0] // parts + 1):
        for rest in itertools.product(*(range(r + 1) for r in remaining[1:])):
            column = (head, *rest)
            if column < least:
                continue
            left = tuple(r - c for r, c in zip(remaining, column))
            for tail in _sorted_columns(left, parts - 1, column):
                yield (column, *tail)


def enumerate_models(
    theta_size: int = 2,
    max_space: int = 6,
    max_denominator: int = 6,
) -> Iterator[FiniteModel]:
    """All validated canonical models on the rational grid, each once.

    Order is deterministic: by sample-space size, then by the least common
    denominator of the entries, then lexicographically by row matrix. Each
    model appears exactly once, at the minimal denominator expressing it.
    A canonical model's columns are nonzero and sorted, so each (size,
    den) stratum generates the non-decreasing sequences of nonzero integer
    columns whose rows sum to den; a sequence is kept iff the gcd of den
    and its entries is 1. Bounds below 1 raise LpLabError, as in
    SearchBounds. Before a stratum is generated, its row combinations,
    C(den + size - 1, size - 1) ** theta_size, are added to those of the
    strata before it; past MAX_COMBINATIONS it raises SpaceTooLarge, so a
    search that finds its answer early still returns it.
    """
    SearchBounds(theta_size, max_space, max_denominator)
    thetas = tuple(f"t{i + 1}" for i in range(theta_size))
    unit = (0,) * (theta_size - 1) + (1,)
    combinations = 0
    for size in range(1, max_space + 1):
        points = tuple(f"x{i + 1}" for i in range(size))
        for den in range(1, max_denominator + 1):
            combinations += math.comb(den + size - 1, size - 1) ** theta_size
            if combinations > MAX_COMBINATIONS:
                raise SpaceTooLarge(
                    f"search grid exceeds enumeration bound {MAX_COMBINATIONS} "
                    f"row combinations at |X| = {size}, denominator {den}"
                )
            stratum = sorted(
                tuple(zip(*columns))
                for columns in _sorted_columns((den,) * theta_size, size, unit)
                if math.gcd(den, *itertools.chain(*columns)) == 1
            )
            for rows in stratum:
                yield FiniteModel(thetas, points, den, rows)


def enumerate_pairs(
    theta_size: int = 2,
    max_space: int = 6,
    max_denominator: int = 6,
) -> Iterator[ModelDataPair]:
    """Canonical model-data pairs over enumerate_models, deduplicated.

    Each model is canonical already, and its isomorphisms permute equal
    columns only, so its distinct canonical pairs are those observed at
    the first point of each run of equal columns.
    """
    for model in enumerate_models(theta_size, max_space, max_denominator):
        columns = model.scaled_columns
        for x in range(model.n_points):
            if x == 0 or columns[x] != columns[x - 1]:
                yield ModelDataPair(model, x)


@dataclass(frozen=True)
class TransitivityCounterexample:
    """A verified triple breaking transitivity of the one-step relation C."""

    p1: ModelDataPair
    p2: ModelDataPair
    p3: ModelDataPair
    witness_12: CWitness
    witness_23: CWitness


def search_c_transitivity_counterexample(
    bounds: SearchBounds = SearchBounds(),
) -> Optional[TransitivityCounterexample]:
    """First triple (p1, p2, p3) with C(p1,p2), C(p2,p3) but not C(p1,p3).

    p1 and p3 are taken among the conditionals of a scanned pair p2 = (M, x),
    one per balanced block holding x, so the two positive claims hold by
    construction, and _c_step builds their witnesses. The negative claim is
    decided by a lemma. For a block B let cols(B) be the multiset of M's
    integer columns ``scaled_columns`` over B, and m_B their common sum.
    For balanced blocks A and B holding x, the pairs given A and given B
    are C-related iff one of cols(A) and cols(B) contains the other, and
    isomorphic iff the two are equal; nested blocks are one case of
    containment. Proof: a witness conditions the pair given A on a block
    B' within A holding x to a copy of the pair given B. x keeps its
    column, so col(x) / m_B' = col(x) / m_B, m_B' = m_B and cols(B') =
    cols(B). Conversely, if cols(B) is within cols(A), map x to x and the
    other points of B to points of A with equal columns; the image has sum
    m_B under every parameter, so it is balanced.

    So each model's balanced splits are tabulated once, with the column
    multisets of their blocks; a model with fewer than three splits is
    skipped (every point's blocks are X and at most one other). At each
    point x the blocks holding x are scanned in pairs, in the
    restricted-growth order of their splits, up to the first pair neither of
    whose multisets contains the other. A repeated multiset needs no
    dedupe: had a later copy an incomparable partner, so would its first
    occurrence, earlier in the scan. No conditional is built before that
    pair, and one oracle call confirms its negative. ``bounds.max_space``
    caps |X| of the scanned models; the split table refuses models above
    MAX_SPACE points.
    """
    for model in enumerate_models(*dataclasses.astuple(bounds)):
        splits = _balanced_splits(model)
        if len(splits) < 3:
            continue
        columns = model.scaled_columns
        multisets = [
            [Counter(columns[x] for x in block) for block in split.blocks]
            for split in splits
        ]
        for x in range(model.n_points):
            held = [(s, m[s.labels[x]]) for s, m in zip(splits, multisets)]
            for (sa, a), (sb, b) in itertools.combinations(held, 2):
                if a <= b or b <= a:
                    continue
                p2 = ModelDataPair(model, x)
                w12 = _c_step(p2, sa, "second", sa.blocks[sa.labels[x]].index)
                w23 = _c_step(p2, sb, "first", sb.blocks[sb.labels[x]].index)
                pa, pb = w12.conditional, w23.conditional
                assert c_related(pa, pb) is None
                return TransitivityCounterexample(pa, p2, pb, w12, w23)
    return None


@dataclass(frozen=True)
class ProperContainmentWitness:
    """A pair in L but in neither S nor C, with the proportionality constant."""

    p1: ModelDataPair
    p2: ModelDataPair
    likelihood_ratio: Fraction


def check_l_minus_sc(
    p1: ModelDataPair, p2: ModelDataPair
) -> Optional[ProperContainmentWitness]:
    """Verify a candidate for L \\ (S union C) by the exact oracles, or None."""
    c = l_related(p1, p2)
    if c is None or related(p1, p2, RelationKind.S_OR_C) is not None:
        return None
    return ProperContainmentWitness(p1, p2, c)


def search_l_minus_sc(
    bounds: SearchBounds = SearchBounds(theta_size=2, max_space=2, max_denominator=4),
) -> Optional[ProperContainmentWitness]:
    """First enumerated pair of pairs in L but outside S and C.

    Negatives are decided exactly by the S and C oracles, so a returned
    witness is fully verified.
    """
    pairs = list(enumerate_pairs(*dataclasses.astuple(bounds)))
    for i, j in l_class_pairs(pairs):
        witness = check_l_minus_sc(pairs[i], pairs[j])
        if witness is not None:
            return witness
    return None
