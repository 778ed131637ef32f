"""Exhaustive search substrate: deterministic enumeration of small models
on rational grids, and counterexample searches for the relation algebra."""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .ancillarity import CWitness, c_related, conditional_pairs
from .errors import LpLabError
from .model import (
    FiniteModel,
    ModelDataPair,
    canonical_form,
    canonical_model,
)
from .relations import l_related
from .sufficiency import s_related


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


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def enumerate_models(
    theta_size: int = 2,
    max_space: int = 6,
    max_denominator: int = 6,
) -> Iterator[FiniteModel]:
    """All validated canonical models on the rational grid, deduplicated.

    Order is deterministic: by sample-space size, then by the least common
    denominator of the entries, then lexicographically by row matrix. Each
    model appears exactly once, at the minimal denominator expressing it.
    Rows are integer compositions of the denominator, so they are
    nonnegative and stochastic by construction; a combination is kept iff
    the gcd of the denominator and its entries is 1 and every point is
    reachable. Bounds below 1 raise LpLabError, as in SearchBounds.
    """
    SearchBounds(theta_size, max_space, max_denominator)
    thetas = tuple(f"t{i + 1}" for i in range(theta_size))
    for size in range(1, max_space + 1):
        points = tuple(f"x{i + 1}" for i in range(size))
        for den in range(1, max_denominator + 1):
            rows = list(_compositions(den, size))
            seen: set[FiniteModel] = set()
            for combo in itertools.product(rows, repeat=theta_size):
                if math.gcd(den, *itertools.chain(*combo)) != 1:
                    continue
                if not all(map(any, zip(*combo))):
                    continue
                model = FiniteModel(thetas, points, den, combo)
                canon = canonical_model(model)
                if canon not in seen:
                    seen.add(canon)
                    yield canon


def enumerate_pairs(
    theta_size: int = 2,
    max_space: int = 6,
    max_denominator: int = 6,
) -> Iterator[ModelDataPair]:
    """Canonical model-data pairs over enumerate_models, deduplicated."""
    seen: set[ModelDataPair] = set()
    for model in enumerate_models(theta_size, max_space, max_denominator):
        for x in range(model.n_points):
            pair = canonical_form(ModelDataPair(model, x))
            if pair not in seen:
                seen.add(pair)
                yield pair


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

    p1 and p3 are taken among the conditionals of a scanned pair p2, one
    per balanced block holding its observed point, so the two positive
    claims hold by construction (and are re-verified by the oracle); the
    negative claim is decided exactly by the C oracle, which enumerates
    nothing. ``bounds.max_space`` caps |X| of the scanned models;
    conditional_pairs refuses models above DEFAULT_MAX_SPACE points.
    """
    for model in enumerate_models(
        bounds.theta_size, bounds.max_space, bounds.max_denominator
    ):
        for x in range(model.n_points):
            p2 = ModelDataPair(model, x)
            conditionals = []
            seen: set[ModelDataPair] = set()
            for _, cond in conditional_pairs(p2):
                key = canonical_form(cond)
                if key not in seen:
                    seen.add(key)
                    conditionals.append(cond)
            for i, pa in enumerate(conditionals):
                for pb in conditionals[i + 1 :]:
                    if c_related(pa, pb) is not None:
                        continue
                    w12 = c_related(pa, p2)
                    w23 = c_related(p2, pb)
                    assert w12 is not None and w23 is not None
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
    if c is None:
        return None
    if s_related(p1, p2) is not None:
        return None
    if c_related(p1, p2) is not None:
        return None
    return ProperContainmentWitness(p1, p2, c)


def search_l_minus_sc(
    bounds: SearchBounds = SearchBounds(theta_size=2, max_space=2, max_denominator=4),
) -> Optional[ProperContainmentWitness]:
    """First enumerated pair of pairs in L but outside S and C.

    Negatives are decided exactly by the S and C oracles, so a returned
    witness is fully verified.
    """
    pairs = list(
        enumerate_pairs(
            bounds.theta_size, bounds.max_space, bounds.max_denominator
        )
    )
    for i, p1 in enumerate(pairs):
        for p2 in pairs[i + 1 :]:
            witness = check_l_minus_sc(p1, p2)
            if witness is not None:
                return witness
    return None
