"""Canonical forms, grid enumeration and the C-transitivity search against
their first integer versions.

The library builds a canonical form from its sorting permutation
``canonical_order``, generates each grid model's sorted columns once, and
lists a model's pairs without canonical forms; ``canonical_reference``
keeps the versions that permuted the rows by a sorted index order and
then looked up the observed index, walked every grid combination
building two models for each, and deduplicated the canonical forms of
all pairs. Inputs: an
enumerated universe and seeded random pairs, each also as a permuted copy
and with the observed point's column repeated, eight grid bounds for the
model enumeration, the default bounds among them, four for the pair
enumeration and nine for the search: four of them exhausted and the
default bounds among them.
"""

import random

import pytest

import canonical_reference as ref
from lp_lab.model import FiniteModel, ModelDataPair, canonical_form
from lp_lab.search import (
    SearchBounds,
    enumerate_models,
    enumerate_pairs,
    search_c_transitivity_counterexample,
)
from random_models import random_pair, relabelled_copy


def _repeated(pair: ModelDataPair, x: int) -> ModelDataPair:
    """Point x split into two points with equal columns, observed kept."""
    model = pair.model
    rows = tuple(
        tuple(2 * v for v in row[:x]) + (row[x], row[x])
        + tuple(2 * v for v in row[x + 1 :])
        for row in model.rows
    )
    labels = model.sample_labels[: x + 1] + ("twin",) + model.sample_labels[x + 1 :]
    copy = FiniteModel(model.theta_labels, labels, 2 * model.den, rows)
    return ModelDataPair(copy, pair.observed + (pair.observed > x))


def _variants(rng: random.Random, pair: ModelDataPair) -> list[ModelDataPair]:
    return [
        pair,
        relabelled_copy(rng, pair),
        _repeated(pair, pair.observed),
        relabelled_copy(rng, _repeated(pair, 0)),
    ]


def _universe_and_random_pairs() -> list[ModelDataPair]:
    rng = random.Random(0)
    pairs = list(enumerate_pairs(2, 4, 4))
    pairs += [random_pair(random.Random(seed)) for seed in range(100)]
    return [v for pair in pairs for v in _variants(rng, pair)]


def test_canonical_forms_match_reference():
    pairs = _universe_and_random_pairs()
    repeated = 0
    for pair in pairs:
        got, want = canonical_form(pair), ref.canonical_form(pair)
        assert got == want
        assert got.model.sample_labels == want.model.sample_labels
        assert got.model == ref.canonical_model(pair.model)
        columns = got.model.scaled_columns
        repeated += columns.count(columns[got.observed]) > 1
    assert len(pairs) > 1000 and repeated > len(pairs) // 4


@pytest.mark.parametrize(
    "bounds",
    [
        (2, 4, 4), (3, 3, 3), (2, 3, 6), (1, 5, 5), (4, 3, 2), (2, 5, 5),
        (3, 4, 4), (2, 6, 6),
    ],
)
def test_enumerate_models_matches_reference(bounds):
    got = list(enumerate_models(*bounds))
    assert got == list(ref.enumerate_models(*bounds))
    assert len(set(got)) == len(got)


@pytest.mark.parametrize("bounds", [(2, 4, 4), (3, 3, 3), (2, 3, 6), (1, 5, 5)])
def test_enumerate_pairs_matches_reference(bounds):
    assert list(enumerate_pairs(*bounds)) == list(ref.enumerate_pairs(*bounds))


@pytest.mark.parametrize(
    "bounds",
    [
        (3, 3, 3), (2, 3, 4), (2, 4, 4), (3, 4, 3), (2, 5, 3),
        (4, 3, 2), (3, 4, 2), (2, 2, 6), (2, 6, 6),
    ],
)
def test_c_transitivity_search_matches_reference(bounds):
    got = search_c_transitivity_counterexample(SearchBounds(*bounds))
    want = ref.search_c_transitivity_counterexample(SearchBounds(*bounds))
    assert got == want
    if want is not None:
        assert (got.witness_12, got.witness_23) == (want.witness_12, want.witness_23)
