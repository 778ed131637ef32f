import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lp_lab import model as model_module
from lp_lab.errors import (
    DuplicateLabel,
    LengthMismatch,
    MalformedRational,
    NegativeEntry,
    NonStochasticRow,
    UnreachablePoint,
)
from lp_lab.model import (
    FiniteModel,
    ModelDataPair,
    canonical_form,
    pair_at,
    pairs_isomorphic,
    parse_rational,
    format_rational,
    validate_model,
)
from lp_lab.search import enumerate_models
from lp_lab.sufficiency import reduce_to_mss, s_related
import model_reference
from model_reference import column, likelihood_vector, proportional
from random_models import random_pair

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


def test_validate_rejects_empty_spaces():
    with pytest.raises(DuplicateLabel, match="nonempty"):
        validate_model([], ["a"], [])
    with pytest.raises(DuplicateLabel, match="nonempty"):
        validate_model(["t1"], [], [[]])


def test_observed_index_must_be_a_sample_point(fa):
    for index in (-1, fa.n_points):
        with pytest.raises(LengthMismatch):
            ModelDataPair(fa, index)
    assert ModelDataPair(fa, fa.n_points - 1).observed_label == "x3"


def test_validate_rejects_floats():
    with pytest.raises(TypeError):
        validate_model(["t1"], ["a", "b"], [[0.5, 0.5]])


def test_rational_round_trip():
    for text in ["3/2", "-7/3", "0", "12"]:
        assert format_rational(parse_rational(text)) == text


def test_parse_rational_refuses_exponents_not_decimals():
    # Fraction would expand "1e99999999" to 10**99999999 before any check
    for text in ["1e-1", "5E-1"]:
        with pytest.raises(MalformedRational, match="exponents are not accepted"):
            parse_rational(text)
    assert parse_rational("0.5") == F(1, 2)


def test_parse_rational_passes_exact_values_through():
    # str() refuses ints of more than 4,300 digits, so exact values must not
    # be spelled out and read back
    big = F(10**5000, 3)
    assert parse_rational(big) is big
    assert parse_rational(10**5000) == 10**5000
    assert parse_rational(-3) == -3


def test_error_messages_describe_long_numbers():
    # an entry is quoted while its repr has at most _QUOTED characters, and
    # a rational while its numerator and denominator have at most _QUOTED
    # digits; longer ones are described, not spelled out
    n = model_module._QUOTED
    with pytest.raises(MalformedRational) as caught:
        parse_rational("x" * (n - 2))
    assert str(caught.value) == f"{'x' * (n - 2)!r} is not a rational number"
    with pytest.raises(MalformedRational) as caught:
        parse_rational("x" * (n - 1))
    assert str(caught.value) == (
        f"an entry of {n + 1} characters is not a rational number"
    )
    with pytest.raises(MalformedRational) as caught:
        parse_rational("1e" + "1" * n)
    assert str(caught.value) == (
        f"an entry of {n + 4} characters is not a rational number: "
        "exponents are not accepted"
    )
    long = f"a rational with a numerator or denominator of over {n} digits"
    with pytest.raises(NegativeEntry) as caught:
        validate_model(["t1"], ["a", "b"], [[f"-1/{10**n - 1}", "1"]])
    assert str(caught.value) == f"f[t1](a) = -1/{10**n - 1} < 0"
    with pytest.raises(NegativeEntry) as caught:
        validate_model(["t1"], ["a", "b"], [[f"-{10**n}/3", "1"]])
    assert str(caught.value) == f"f[t1](a) = {long} < 0"
    with pytest.raises(NonStochasticRow) as caught:
        validate_model(["t1"], ["a", "b"], [[f"1/{10**n - 1}", "0"]])
    assert str(caught.value) == f"row for t1 sums to 1/{10**n - 1}, not 1"
    with pytest.raises(NonStochasticRow) as caught:
        validate_model(["t1"], ["a", "b"], [[f"1/{10**n}", "0"]])
    assert str(caught.value) == f"row for t1 sums to {long}, not 1"


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


def test_canonical_order_puts_the_observed_point_first_among_equal_columns():
    # columns (1,1) at 0, 2 and 3 between (0,2) at 1 and (2,0) at 4: the
    # observed point leads its run, the other equal points keep index order
    rows = ((1, 0, 1, 1, 2), (1, 2, 1, 1, 0))
    m = FiniteModel(("t1", "t2"), ("a", "b", "c", "d", "e"), 5, rows)
    pair = ModelDataPair(m, 2)
    assert pair.canonical_order == (1, 2, 0, 3, 4)
    assert pair.canonical.observed == 1
    assert ModelDataPair(m, 3).canonical_order == (1, 3, 0, 2, 4)
    assert ModelDataPair(m, 4).canonical_order == (1, 0, 2, 3, 4)
    assert pairs_isomorphic(pair, ModelDataPair(m, 0)) == (2, 1, 0, 3, 4)


def test_isomorphism_refuses_other_sizes_and_denominators_first(fb):
    # no canonical order or form is built when the sizes or denominators
    # differ
    p = pair_at(fb, "y1")
    thetas = fb.theta_labels
    three = FiniteModel(thetas, ("a", "b", "c"), 4, ((1, 1, 2), (1, 2, 1)))
    over_eight = FiniteModel(thetas, ("a", "b"), 8, ((3, 5), (1, 7)))
    for other in (ModelDataPair(three, 0), ModelDataPair(over_eight, 0)):
        assert pairs_isomorphic(p, other) is None
        for built in ("canonical_order", "canonical"):
            assert built not in vars(p) and built not in vars(other)


def test_canonical_form_orders_columns(fb):
    canon = canonical_form(pair_at(fb, "y1"))
    assert column(canon.model, 0) == (F(1, 2), F(1, 4))
    assert column(canon.model, 1) == (F(1, 2), F(3, 4))
    assert canon.observed == 0


def test_canonical_form_idempotent(fb, fa):
    for pair in [pair_at(fb, "y2"), pair_at(fa, "x1")]:
        assert canonical_form(canonical_form(pair)) == canonical_form(pair)


def test_canonical_form_is_built_once(fb, monkeypatch):
    # every build of a canonical form asks once for its generic labels
    built = []
    original = model_module._generic_labels
    monkeypatch.setattr(
        model_module, "_generic_labels", lambda n: built.append(n) or original(n)
    )
    pair = pair_at(fb, "y2")
    first = canonical_form(pair)
    assert canonical_form(pair) is first
    assert pair.canonical is first
    assert built == [fb.n_points]
    # an equal pair built apart holds an equal canonical form of its own
    assert canonical_form(pair_at(fb, "y2")) == first


def test_s_related_builds_no_canonical_form(monkeypatch):
    # equal-sized reductions over one denominator are compared by their
    # columns in canonical order: neither canonical model is built, whether
    # they are isomorphic or not
    built = []
    original = model_module._generic_labels
    monkeypatch.setattr(
        model_module, "_generic_labels", lambda n: built.append(n) or original(n)
    )
    a = validate_model(["t1", "t2"], ["a", "b", "c"], [["1/4", "1/4", "1/2"], ["1/2", "1/4", "1/4"]])
    b = validate_model(["t1", "t2"], ["a", "b", "c"], [["1/4", "1/4", "1/2"], ["1/4", "1/2", "1/4"]])
    c = validate_model(["t1", "t2"], ["a", "b", "c"], [["1/2", "1/4", "1/4"], ["0", "1/4", "3/4"]])
    moved = validate_model(["t1", "t2"], ["u", "v", "w"], [["1/2", "1/4", "1/4"], ["1/4", "1/2", "1/4"]])
    # the observed point at another canonical index, then other columns
    for p1, p2 in [(pair_at(a, "a"), pair_at(b, "a")), (pair_at(a, "a"), pair_at(c, "c"))]:
        r1, r2 = reduce_to_mss(p1).reduced.model, reduce_to_mss(p2).reduced.model
        assert (r1.n_points, r1.den) == (r2.n_points, r2.den) == (3, 4)
        assert s_related(p1, p2) is None
    witness = s_related(pair_at(b, "c"), pair_at(moved, "u"))
    assert witness is not None and witness.bijection == (2, 1, 0)
    assert s_related(pair_at(b, "a"), pair_at(moved, "w")) is not None
    assert built == []


def _fields_hash(model):
    return hash((model.theta_labels, model.sample_labels, model.den, model.rows))


def test_hash_is_the_fields_hash_computed_once():
    models = list(enumerate_models(2, 3, 3))
    for model in models:
        assert "_hash" not in model.__dict__
        assert hash(model) == _fields_hash(model)
        assert model.__dict__["_hash"] == _fields_hash(model)
        # equal models built apart, over a doubled denominator and from
        # Fraction entries, hash equal
        doubled = FiniteModel(
            model.theta_labels,
            model.sample_labels,
            2 * model.den,
            tuple(tuple(2 * v for v in row) for row in model.rows),
        )
        spelled = validate_model(
            model.theta_labels, model.sample_labels, model.probs
        )
        for twin in (doubled, spelled):
            assert twin == model and twin is not model
            assert hash(twin) == hash(model)
    assert len({hash(m) for m in models}) == len(models)


def test_model_of_lists_never_hashes():
    model = FiniteModel(["t1", "t2"], ["a", "b"], 2, [[1, 1], [2, 0]])
    for _ in range(2):
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            hash(model)
        assert "_hash" not in model.__dict__
    with pytest.raises(TypeError):
        hash(ModelDataPair(model, 0))


def test_pickle_carries_no_hash(fb):
    # a str hash differs between processes, so the cached one must not travel
    hash(fb)
    copy = pickle.loads(pickle.dumps(fb))
    assert "_hash" not in copy.__dict__
    assert copy == fb and hash(copy) == hash(fb) == _fields_hash(copy)
    assert "_hash" in fb.__dict__


class _Label(str):
    """A str subclass: equal to its str, but not exactly a str."""


@pytest.mark.parametrize(
    "theta, space, expected",
    [
        (("t1",), ("a", "b"), True),
        ((1,), ("a", "b"), False),
        (("t1",), ("a", True), False),
        (("t1",), (Fraction(1), "b"), False),
        (("t1",), ("a", _Label("b")), False),
        ([_Label("t1")], ["a", "b"], False),
    ],
)
def test_labels_are_str_is_exact_and_per_instance(theta, space, expected):
    model = FiniteModel(theta, space, 2, ((1, 1),))
    assert "labels_are_str" not in model.__dict__
    assert model.labels_are_str is expected
    assert model.__dict__["labels_are_str"] is expected


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
    # against the Fraction column match, not the library's own decision
    same = canonical_form(p1) == canonical_form(p2)
    assert same == (model_reference.pairs_isomorphic(p1, p2) is not None)


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
