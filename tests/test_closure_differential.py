"""Closure, the relation-law audit and conditional_pairs against all-pairs
and Bell-enumeration references.

The library decides one-step edges only between pairs with equal
l_class_key, and lists conditionals from balanced blocks; the references
decide every pair and condition on every ancillary partition.
"""

import random

import pytest

from closure_reference import (
    all_pairs_closure,
    all_pairs_properties_report,
    enumerated_conditional_pairs,
)
from model_reference import proportional
from lp_lab import relations
from lp_lab.ancillarity import balanced_blocks, conditional_pairs
from lp_lab.model import ModelDataPair, canonical_form
from lp_lab.relations import (
    RelationKind,
    Universe,
    birnbaumize,
    closure,
    efm_parent,
    l_class_key,
    l_related,
    relation_properties_report,
)
from lp_lab.search import enumerate_models, enumerate_pairs

MIXED_L_PAIRS = 6
MIXTURE_L_PAIRS = 8


@pytest.fixture(scope="module")
def grid():
    return Universe.of(list(enumerate_pairs(2, 3, 3)))


def _l_pairs(pairs):
    return [
        (a, b)
        for i, a in enumerate(pairs)
        for b in pairs[i + 1 :]
        if l_related(a, b) is not None
    ]


@pytest.fixture(scope="module")
def augmented(grid):
    """Sampled L-related grid pairs with their Birnbaum and EFM mixtures."""
    sample = random.Random(1986).sample(_l_pairs(grid.members), MIXED_L_PAIRS)
    members = []
    for a, b in sample:
        _, e1, e2 = birnbaumize(a, b)
        members += [a, b, e1, e2, efm_parent(a, b).parent]
    return Universe.of(members)


def test_l_class_key_decides_l(grid):
    members = grid.members
    for a in members:
        for b in members:
            same = l_class_key(a) == l_class_key(b)
            reference = proportional(
                a.model.column(a.observed), b.model.column(b.observed)
            )
            assert same == (reference is not None), (a, b)


@pytest.mark.parametrize("kind", list(RelationKind), ids=lambda k: k.value)
@pytest.mark.parametrize("which", ["grid", "augmented"])
def test_closure_matches_all_pairs(kind, which, request):
    universe = request.getfixturevalue(which)
    result = closure(universe, kind)
    classes, edges = all_pairs_closure(universe, kind)
    assert result.classes == classes
    assert [(e.i, e.j, e.kind) for e in result.edges] == [
        (e.i, e.j, e.kind) for e in edges
    ]
    assert result.edges == edges


@pytest.mark.parametrize("kind", list(RelationKind), ids=lambda k: k.value)
@pytest.mark.parametrize("which", ["grid", "augmented"])
def test_properties_report_matches_all_pairs(kind, which, request):
    universe = request.getfixturevalue(which)
    report = relation_properties_report(universe, kind)
    assert report == all_pairs_properties_report(universe, kind)


def test_closure_consults_oracle_within_l_classes_only(grid, monkeypatch):
    calls = []
    oracle = relations.related

    def counted(p1, p2, kind):
        calls.append((p1, p2))
        return oracle(p1, p2, kind)

    monkeypatch.setattr(relations, "related", counted)
    closure(grid, RelationKind.S_OR_C)
    assert calls
    assert all(l_class_key(a) == l_class_key(b) for a, b in calls)
    assert len(calls) == len(_l_pairs(grid.members))


def _first_blocks(listed, observed):
    """The entries whose observed block has not occurred earlier."""
    out, seen = [], set()
    for ancillary, conditional in listed:
        block = ancillary.block_of(observed)
        if block not in seen:
            seen.add(block)
            out.append((ancillary, conditional))
    return out


def _distinct_conditionals(listed):
    out, seen = [], set()
    for _, conditional in listed:
        key = canonical_form(conditional)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return out


def _agree(pair):
    listed = conditional_pairs(pair)
    reference = enumerated_conditional_pairs(pair)
    assert listed == _first_blocks(reference, pair.observed), pair
    blocks = balanced_blocks(pair.model, pair.observed)
    assert blocks == [a.block_of(pair.observed) for a, _ in listed]
    assert _distinct_conditionals(listed) == _distinct_conditionals(reference)


def test_conditional_pairs_match_enumeration_on_grid_models():
    checked = 0
    for model in enumerate_models(2, 3, 3):
        for x in range(model.n_points):
            _agree(ModelDataPair(model, x))
            checked += 1
    assert checked > 50


def test_conditional_pairs_match_enumeration_on_mixtures():
    pairs = list(enumerate_pairs(2, 4, 3))
    l_pairs = [
        (a, b)
        for a, b in _l_pairs(pairs)
        if 5 <= a.model.n_points + b.model.n_points <= 8
    ]
    sample = random.Random(1970).sample(l_pairs, MIXTURE_L_PAIRS)
    sizes = set()
    for a, b in sample:
        _, e1, e2 = birnbaumize(a, b)
        for parent in (e1, e2, efm_parent(a, b).parent):
            _agree(parent)
            sizes.add(parent.model.n_points)
    assert max(sizes) == 8
