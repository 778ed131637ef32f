"""The integer model core against the Fraction reference.

The library parses entries into integers over a common denominator, keys
proportionality by the ``(g, k)`` split of ``FiniteModel.likelihoods``,
keys canonical forms and isomorphisms by integer columns, enumerates the
grid as integer compositions, and builds conditionals, mixtures and
reductions from their parent's integers; the exact factorization of each
reduction is checked here. ``model_reference`` keeps the same functions
written on ``Fraction`` values. Inputs: hypothesis-drawn model entries in
many spellings, an enumerated universe with Birnbaum and EFM mixtures and
their conditionals, and four grid bounds.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import model_reference as ref
from lp_lab.model import (
    FiniteModel,
    ModelDataPair,
    canonical_form,
    canonical_model,
    pairs_isomorphic,
    validate_model,
)
from lp_lab.ancillarity import conditional_pairs
from lp_lab.relations import (
    birnbaumize,
    efm_parent,
    l_class_key,
    l_related,
)
from lp_lab.search import enumerate_models, enumerate_pairs
from lp_lab.sufficiency import likelihood_partition, reduce_to_mss

MIXED_L_PAIRS = 12

# Spellings parse_rational accepts or rejects; the integer parser must
# agree on every one.
ODD_ENTRIES = [
    "0.5", "1e-1", " 1/2 ", "+1/2", "2/4", "1/0", "0/0", "-1/2", "1/-2",
    "١/٢", "١", "½", "²", "1_0/20", "", "/", "1/", "/2", "1//2", "1 /2",
    "00/02", "0", "1", "2", "-0", "1.0", "x", "1/2/3", "9" * 5000,
    1, 0, -1, 2, Fraction(1, 2), Fraction(-1, 3), 0.5, True, None,
]


def _spell(rng_choice, k: int, den: int):
    """k/den in one of several spellings parse_rational accepts."""
    value = Fraction(k, den)
    how = rng_choice(["plain", "reduced", "doubled", "padded", "signed",
                      "fraction", "int", "arabic"])
    if how == "plain":
        return f"{k}/{den}"
    if how == "reduced":
        return f"{value.numerator}/{value.denominator}"
    if how == "doubled":
        return f"{2 * k}/{2 * den}"
    if how == "padded":
        return f" {k}/{den}\t"
    if how == "signed":
        return f"+{k}/{den}"
    if how == "fraction":
        return value
    if how == "int" and value.denominator == 1:
        return value.numerator
    arabic = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
    return f"{k}/{den}".translate(arabic)


@st.composite
def candidate_rows(draw):
    """Rows of spelled entries: stochastic grid rows, sometimes broken."""
    n_theta = draw(st.integers(1, 3))
    n_points = draw(st.integers(1, 4))
    rows = []
    for _ in range(n_theta):
        den = draw(st.integers(1, 12))
        cuts = sorted(
            draw(st.lists(st.integers(0, den), min_size=n_points - 1,
                          max_size=n_points - 1))
        )
        parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
        rows.append(
            [_spell(lambda xs: draw(st.sampled_from(xs)), k, den) for k in parts]
        )
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n_theta - 1))
        j = draw(st.integers(0, n_points - 1))
        rows[i][j] = draw(
            st.one_of(
                st.sampled_from(ODD_ENTRIES),
                st.integers(-3, 3),
                st.text(alphabet="0123456789/+-. e_١٢", max_size=6),
            )
        )
    if draw(st.booleans()) and draw(st.booleans()):
        rows[0] = rows[0][:-1]  # a short row
    return n_theta, n_points, rows


def _outcome(validate, thetas, points, rows):
    try:
        return validate(thetas, points, rows)
    except Exception as exc:  # the type and message must agree too
        return type(exc), str(exc)


def _same_model(model: FiniteModel, expected: FiniteModel) -> None:
    assert model == expected
    assert model.theta_labels == expected.theta_labels
    assert model.sample_labels == expected.sample_labels
    assert model.probs == expected.probs
    assert all(type(v) is Fraction for row in model.probs for v in row)
    # the stored integers are those the lcm of the entries' denominators gives
    derived = ref.fraction_model(
        model.theta_labels, model.sample_labels, model.probs
    )
    assert (model.den, model.rows) == (derived.den, derived.rows)
    assert hash(model) == hash(derived)


@settings(max_examples=400, deadline=None)
@given(candidate_rows())
def test_validate_model_matches_fraction_parser(candidate):
    n_theta, n_points, rows = candidate
    thetas = [f"t{i}" for i in range(n_theta)]
    points = [f"x{i}" for i in range(n_points)]
    got = _outcome(validate_model, thetas, points, rows)
    want = _outcome(ref.validate_model, thetas, points, rows)
    if isinstance(want, FiniteModel):
        _same_model(got, want)
    else:
        assert got == want


@pytest.mark.parametrize("entry", ODD_ENTRIES, ids=repr)
def test_validate_model_odd_entries(entry):
    for rows in ([[entry]], [[entry, "1/2"]], [["1/2", entry], ["1", "0"]]):
        points = [f"x{i}" for i in range(len(rows[0]))]
        thetas = [f"t{i}" for i in range(len(rows))]
        got = _outcome(validate_model, thetas, points, rows)
        want = _outcome(ref.validate_model, thetas, points, rows)
        if isinstance(want, FiniteModel):
            _same_model(got, want)
        else:
            assert got == want


def test_validate_model_spellings_of_one_model():
    expected = ref.validate_model(["t1"], ["a", "b"], [["1/3", "2/3"]])
    for row in (["2/6", "4/6"], [" 1/3", "+2/3 "], ["١/٣", "٢/٣"],
                [Fraction(1, 3), "0002/0003"]):
        _same_model(validate_model(["t1"], ["a", "b"], [row]), expected)


@pytest.fixture(scope="module")
def universe():
    return list(enumerate_pairs(2, 3, 3))


@pytest.fixture(scope="module")
def mixed_l_pairs(universe):
    """L-related pairs of the universe sampled for mixing."""
    l_pairs = [
        (a, b)
        for i, a in enumerate(universe)
        for b in universe[i + 1 :]
        if ref.l_class_key(a) == ref.l_class_key(b)
    ]
    return random.Random(1949).sample(l_pairs, MIXED_L_PAIRS)


@pytest.fixture(scope="module")
def pairs(universe, mixed_l_pairs):
    """The (2, 3, 3) universe, Birnbaum and EFM mixtures of sampled L-related
    pairs from it, their conditionals, and relabeled copies."""
    out = list(universe)
    for a, b in mixed_l_pairs:
        _, e1, e2 = birnbaumize(a, b)
        for mixed in (e1, e2, efm_parent(a, b).parent):
            out.append(mixed)
            out += [cond for _, cond in conditional_pairs(mixed)]
    rng = random.Random(1962)
    for pair in rng.sample(out, 40):
        order = list(range(pair.model.n_points))
        rng.shuffle(order)
        model = FiniteModel(
            pair.model.theta_labels,
            tuple(f"s{x}" for x in order),
            pair.model.den,
            tuple(tuple(row[x] for x in order) for row in pair.model.rows),
        )
        out.append(ModelDataPair(model, order.index(pair.observed)))
    return out


def test_model_equality_matches_fraction_equality(pairs):
    models = [p.model for p in pairs]
    models.append(FiniteModel(("t1",), ("a",), 1, ((1,),)))
    models.append(FiniteModel(("t1",), ("a",), 3, ((3,),)))
    # not stochastic, so equal integer rows over different denominators
    models.append(FiniteModel(("t1",), ("a",), 2, ((1,),)))
    models.append(FiniteModel(("t1",), ("a",), 3, ((1,),)))
    for a in models:
        for b in models:
            plain = (a.theta_labels, a.sample_labels, a.probs) == (
                b.theta_labels, b.sample_labels, b.probs
            )
            assert (a == b) == plain
            if plain:
                assert hash(a) == hash(b)


def test_common_factor_is_divided_out():
    model = FiniteModel(("t1", "t2"), ("a", "b"), 4, ((2, 2), (0, 4)))
    lowest = FiniteModel(("t1", "t2"), ("a", "b"), 2, ((1, 1), (0, 2)))
    assert (model.den, model.rows) == (2, ((1, 1), (0, 2)))
    assert model == lowest
    assert hash(model) == hash(lowest)


def _same_pair(got: ModelDataPair, want: ModelDataPair) -> None:
    assert got.observed == want.observed
    _same_model(got.model, want.model)


def test_conditionals_match_reference(pairs):
    count = 0
    for pair in pairs:
        for ancillary, conditional in conditional_pairs(pair):
            _same_pair(conditional, ref.condition_on_block(pair, ancillary))
            count += 1
    assert count > len(pairs)


def test_mixtures_match_reference(mixed_l_pairs):
    half = Fraction(1, 2)
    for a, b in mixed_l_pairs:
        mixture, _, _ = birnbaumize(a, b)
        _same_model(mixture, ref.mixture_model(a, b, half, half))
        c = ref.proportional(a.model.column(a.observed), b.model.column(b.observed))
        want = ref.mixture_model(a, b, 1 / (1 + c), c / (1 + c))
        _same_model(efm_parent(a, b).parent.model, want)


def test_mss_reductions_match_reference(pairs):
    for pair in pairs:
        got = reduce_to_mss(pair).reduced
        partition = ref.likelihood_partition(pair.model)
        want = ref.statistic_induced_model(pair.model, partition)
        _same_pair(got, ModelDataPair(want, partition.block_index_of(pair.observed)))


def test_mss_factorization_is_exact(pairs):
    for pair in pairs:
        reduction = reduce_to_mss(pair)
        g, h = reduction.reduced.model.probs, reduction.theta_free_factor
        block_map = reduction.block_map
        for i, row in enumerate(pair.model.probs):
            for x, value in enumerate(row):
                assert value == g[i][block_map[x]] * h[x]
        for b in range(reduction.reduced.model.n_points):
            assert sum(v for v, c in zip(h, block_map) if c == b) == 1


def test_likelihoods_decompose_columns(pairs):
    shared = 0
    for model in {p.model for p in pairs}:
        likelihoods = model.likelihoods
        for column, (g, k) in zip(model.scaled_columns, likelihoods):
            assert tuple(g * v for v in k) == column
            assert g > 0 and math.gcd(*k) == 1
        columns = model.columns()
        for x, (_, kx) in enumerate(likelihoods):
            for y, (_, ky) in enumerate(likelihoods):
                proportional = ref.proportional(columns[x], columns[y])
                assert (kx == ky) == (proportional is not None)
                shared += x != y and kx == ky
    assert shared > 0


def test_likelihood_partition_matches_reference(pairs):
    for pair in pairs:
        assert likelihood_partition(pair.model) == ref.likelihood_partition(
            pair.model
        )


def test_l_class_key_equality_matches_reference(pairs):
    keys = [l_class_key(p) for p in pairs]
    ref_keys = [ref.l_class_key(p) for p in pairs]
    for i in range(len(pairs)):
        for j in range(len(pairs)):
            assert (keys[i] == keys[j]) == (ref_keys[i] == ref_keys[j])


def test_l_related_matches_reference(pairs):
    # points no parameter reaches, which validate_model would refuse, in
    # models over two denominators: all-zero likelihoods are related, c = 1
    thetas = ("t1", "t2")
    zero = [
        ModelDataPair(FiniteModel(thetas, ("a", "b"), 1, ((1, 0), (1, 0))), 1),
        ModelDataPair(
            FiniteModel(thetas, ("a", "b", "c"), 2, ((1, 1, 0), (2, 0, 0))), 2
        ),
    ]
    assert l_related(*zero) == 1
    everything = pairs + zero
    positive = 0
    for a in everything:
        for b in everything:
            c = l_related(a, b)
            assert c == ref.proportional(
                a.model.column(a.observed), b.model.column(b.observed)
            )
            assert type(c) is Fraction or c is None
            positive += c is not None
    assert len(everything) < positive < len(everything) ** 2


def test_canonical_forms_match_reference(pairs):
    for pair in pairs:
        got, want = canonical_form(pair), ref.canonical_form(pair)
        assert got.observed == want.observed
        _same_model(got.model, want.model)
        _same_model(canonical_model(pair.model), ref.canonical_model(pair.model))


def test_pairs_isomorphic_matches_reference(pairs):
    positive = 0
    for a in pairs:
        for b in pairs:
            phi = pairs_isomorphic(a, b)
            assert phi == ref.pairs_isomorphic(a, b)
            positive += phi is not None
    assert len(pairs) < positive < len(pairs) ** 2


@pytest.mark.parametrize("bounds", [(1, 3, 3), (2, 3, 4), (2, 4, 4), (3, 3, 3)])
def test_enumerate_models_matches_reference(bounds):
    got = list(enumerate_models(*bounds))
    want = list(ref.enumerate_models(*bounds))
    assert len(got) == len(want)
    for model, expected in zip(got, want):
        _same_model(model, expected)
