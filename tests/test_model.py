import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lp_lab.errors import (
    DuplicateLabel,
    LengthMismatch,
    NegativeEntry,
    NonStochasticRow,
    UnreachablePoint,
)
from lp_lab.generate import random_pair
from lp_lab.model import (
    ModelDataPair,
    canonical_form,
    likelihood_vector,
    pair_at,
    pairs_isomorphic,
    parse_rational,
    format_rational,
    validate_model,
)
from model_reference import proportional

F = Fraction


def test_validate_accepts_exact_rows():
    m = validate_model(["t1", "t2"], ["a", "b"], [["1/2", "1/2"], ["1/4", "3/4"]])
    assert m.probs == ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))


def test_validate_rejects_non_stochastic_row():
    with pytest.raises(NonStochasticRow):
        validate_model(["t1"], ["a", "b"], [["1/2", "1/3"]])


def test_validate_rejects_all_zero_column():
    with pytest.raises(UnreachablePoint):
        validate_model(
            ["t1", "t2"],
            ["a", "b", "c"],
            [["1/2", "1/2", "0"], ["1/4", "3/4", "0"]],
        )


def test_validate_rejects_negative_entry():
    with pytest.raises(NegativeEntry):
        validate_model(["t1"], ["a", "b"], [["3/2", "-1/2"]])


def test_validate_rejects_duplicate_labels():
    with pytest.raises(DuplicateLabel):
        validate_model(["t1", "t1"], ["a"], [["1"], ["1"]])
    with pytest.raises(DuplicateLabel):
        validate_model(["t1"], ["a", "a"], [["1/2", "1/2"]])


def test_validate_rejects_floats():
    with pytest.raises(TypeError):
        validate_model(["t1"], ["a", "b"], [[0.5, 0.5]])


def test_rational_round_trip():
    for text in ["3/2", "-7/3", "0", "12"]:
        assert format_rational(parse_rational(text)) == text


def test_likelihood_vector_fixtures(fa, fb):
    assert likelihood_vector(pair_at(fb, "y1")) == (F(1, 2), F(1, 4))
    assert likelihood_vector(pair_at(fa, "x3")) == (F(1, 2), F(3, 4))


def test_likelihood_vector_one_point_model():
    m = validate_model(["t1", "t2"], ["only"], [["1"], ["1"]])
    assert likelihood_vector(ModelDataPair(m, 0)) == (F(1), F(1))


def test_proportional_examples():
    assert proportional([F(1, 2), F(3, 4)], [F(1, 3), F(1, 2)]) == F(3, 2)
    v = [F(1, 5), F(2, 5)]
    assert proportional(v, v) == 1
    assert proportional([F(1, 2), F(1, 4)], [F(1, 3), F(1, 2)]) is None


def test_proportional_zero_patterns_must_match():
    assert proportional([F(0), F(1)], [F(1, 2), F(1, 2)]) is None
    assert proportional([F(0), F(1)], [F(0), F(1, 2)]) == 2


def test_proportional_length_mismatch():
    with pytest.raises(LengthMismatch):
        proportional([F(1)], [F(1, 2), F(1, 2)])


def test_isomorphic_to_self_is_identity(fb):
    p = pair_at(fb, "y1")
    assert pairs_isomorphic(p, p) == (0, 1)


def test_isomorphic_column_swap(fb):
    swapped = validate_model(
        ["t1", "t2"], ["y2", "y1"], [["1/2", "1/2"], ["3/4", "1/4"]]
    )
    phi = pairs_isomorphic(pair_at(fb, "y1"), pair_at(swapped, "y1"))
    assert phi == (1, 0)


def test_not_isomorphic_different_probabilities(fb, fc):
    assert pairs_isomorphic(pair_at(fb, "y1"), pair_at(fc, "z1")) is None


def test_canonical_form_orders_columns(fb):
    canon = canonical_form(pair_at(fb, "y1"))
    assert canon.model.column(0) == (F(1, 2), F(1, 4))
    assert canon.model.column(1) == (F(1, 2), F(3, 4))
    assert canon.observed == 0


def test_canonical_form_idempotent(fb, fa):
    for pair in [pair_at(fb, "y2"), pair_at(fa, "x1")]:
        assert canonical_form(canonical_form(pair)) == canonical_form(pair)


def _permuted(pair, order):
    model = pair.model
    rows = tuple(tuple(row[x] for x in order) for row in model.probs)
    permuted = validate_model(
        model.theta_labels,
        [model.sample_labels[x] for x in order],
        rows,
    )
    return ModelDataPair(permuted, order.index(pair.observed))


def test_canonical_form_permutation_invariant(fa):
    pair = pair_at(fa, "x2")
    assert canonical_form(_permuted(pair, [2, 0, 1])) == canonical_form(pair)


@st.composite
def pairs(draw, theta_size=2, max_space=3, denominator=6):
    seed = draw(st.integers(0, 10**6))
    size = draw(st.integers(1, max_space))
    rng = random.Random(seed)
    return random_pair(rng, theta_size, size, denominator)


@settings(max_examples=60, deadline=None)
@given(pairs(), pairs())
def test_canonical_equality_iff_isomorphic(p1, p2):
    same = canonical_form(p1) == canonical_form(p2)
    assert same == (pairs_isomorphic(p1, p2) is not None)


@settings(max_examples=60, deadline=None)
@given(pairs(), pairs())
def test_proportional_inverts(p1, p2):
    v1, v2 = likelihood_vector(p1), likelihood_vector(p2)
    if len(v1) != len(v2):
        return
    c = proportional(v1, v2)
    if c is None:
        assert proportional(v2, v1) is None
    else:
        assert proportional(v2, v1) == 1 / c


@settings(max_examples=40, deadline=None)
@given(pairs())
def test_isomorphism_is_reflexive_and_symmetric(p):
    phi = pairs_isomorphic(p, p)
    assert phi is not None
    shuffled = _permuted(p, list(reversed(range(p.model.n_points))))
    forward = pairs_isomorphic(p, shuffled)
    backward = pairs_isomorphic(shuffled, p)
    assert forward is not None and backward is not None
