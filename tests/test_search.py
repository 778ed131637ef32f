import itertools
from fractions import Fraction

import pytest

from lp_lab.ancillarity import c_related
from lp_lab.errors import LpLabError
from lp_lab.model import (
    ModelDataPair,
    canonical_form,
    canonical_model,
    validate_model,
)
from lp_lab.relations import l_related
from lp_lab.search import (
    SearchBounds,
    check_l_minus_sc,
    enumerate_models,
    enumerate_pairs,
    search_c_transitivity_counterexample,
    search_l_minus_sc,
)
from lp_lab.sufficiency import s_related

F = Fraction


def test_enumerate_models_point_mass():
    models = list(enumerate_models(theta_size=1, max_space=1, max_denominator=3))
    assert len(models) == 1
    assert models[0].probs == ((F(1),),)


def test_enumerate_models_against_brute_force():
    # independent oracle: direct product over the grid {k/2}, no reuse of
    # the enumerator's composition/lcm machinery
    grid = [F(0), F(1, 2), F(1)]
    seen = set()
    for r1 in itertools.product(grid, repeat=2):
        for r2 in itertools.product(grid, repeat=2):
            if sum(r1) != 1 or sum(r2) != 1:
                continue
            if any(r1[x] == 0 and r2[x] == 0 for x in range(2)):
                continue
            model = validate_model(["t1", "t2"], ["x1", "x2"], [r1, r2])
            seen.add(canonical_model(model))
    enumerated = [
        m
        for m in enumerate_models(theta_size=2, max_space=2, max_denominator=2)
        if m.n_points == 2
    ]
    assert len(enumerated) == len(set(enumerated)) == len(seen)
    assert set(enumerated) == seen


def test_enumerate_models_contains_fix_b(fb):
    target = canonical_model(fb)
    assert target in set(enumerate_models(2, 2, 4))


def test_enumerate_pairs_are_canonical_and_unique():
    pairs = list(enumerate_pairs(2, 2, 3))
    assert len(set(pairs)) == len(pairs)
    assert all(canonical_form(p) == p for p in pairs)


def test_transitivity_counterexample_verifies():
    found = search_c_transitivity_counterexample()
    assert found is not None
    assert c_related(found.p1, found.p2) is not None
    assert c_related(found.p2, found.p3) is not None
    assert c_related(found.p1, found.p3) is None


FROZEN_TRIPLE = (
    (("1/2", "1/2"), ("1/2", "1/2"), "x1"),
    (("1/4", "1/4", "1/2"), ("1/4", "1/4", "1/2"), "x1"),
    (("1/3", "2/3"), ("1/3", "2/3"), "x1"),
)


def _frozen_pair(rows_t1, rows_t2, observed):
    labels = [f"x{i + 1}" for i in range(len(rows_t1))]
    model = validate_model(["t1", "t2"], labels, [rows_t1, rows_t2])
    return ModelDataPair(model, labels.index(observed))


def test_transitivity_counterexample_regression_fixture():
    # first verified triple in deterministic order under default bounds
    found = search_c_transitivity_counterexample()
    expected = tuple(_frozen_pair(*spec) for spec in FROZEN_TRIPLE)
    assert canonical_form(found.p1) == canonical_form(expected[0])
    assert canonical_form(found.p2) == canonical_form(expected[1])
    assert canonical_form(found.p3) == canonical_form(expected[2])


def test_fix_d_conditionals_are_not_a_counterexample(fd):
    from lp_lab.ancillarity import condition_on_block
    from lp_lab.partition import Partition

    pair = ModelDataPair(fd, 0)
    c1 = condition_on_block(pair, Partition.of(4, [[0, 1], [2, 3]]))
    c2 = condition_on_block(pair, Partition.of(4, [[0, 3], [1, 2]]))
    assert c_related(c1, c2) is not None  # isomorphic conditionals


def test_check_l_minus_sc_fixture(fb, fc, at):
    witness = check_l_minus_sc(at(fb, "y2"), at(fc, "z1"))
    assert witness is not None
    assert witness.likelihood_ratio == F(3, 2)
    assert check_l_minus_sc(at(fb, "y1"), at(fb, "y1")) is None  # S holds


def test_search_l_minus_sc_returns_verified_witness():
    witness = search_l_minus_sc(SearchBounds(2, 2, 4))
    assert witness is not None
    assert l_related(witness.p1, witness.p2) == witness.likelihood_ratio
    assert s_related(witness.p1, witness.p2) is None
    assert c_related(witness.p1, witness.p2) is None


@pytest.mark.parametrize("field", ["theta_size", "max_space", "max_denominator"])
def test_search_bounds_reject_empty_grid(field):
    assert SearchBounds(**{field: 1}) is not None
    with pytest.raises(LpLabError, match=f"search bound {field} must be"):
        SearchBounds(**{field: 0})
    # the grid itself checks no signs or labels, so it refuses such bounds
    with pytest.raises(LpLabError, match=f"search bound {field} must be"):
        next(enumerate_models(**{field: 0}))
