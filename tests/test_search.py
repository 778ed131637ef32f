import itertools
from collections import Counter
from fractions import Fraction

import pytest

from lp_lab import search
from lp_lab.ancillarity import (
    MAX_SPACE,
    c_related,
    verify_c_witness,
)
from lp_lab.errors import LpLabError, SpaceTooLarge
from lp_lab.model import ModelDataPair, canonical_form, validate_model
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
from ancillary_reference import conditional_pairs
from model_reference import canonical_model

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


def test_check_l_minus_sc_refuses_pairs_in_s_or_in_c():
    # in L and S but not C: x1 and x2 of the second model have one likelihood
    s_only = (
        _frozen_pair(("0", "1"), ("1", "0"), "x1"),
        _frozen_pair(("0", "0", "1"), ("1/2", "1/2", "0"), "x1"),
    )
    # in L and C but not S: {x3} has mass 1/2 under both parameters
    c_only = (
        _frozen_pair(("1",), ("1",), "x1"),
        _frozen_pair(("0", "1/2", "1/2"), ("1/2", "0", "1/2"), "x3"),
    )
    for (p1, p2), s_holds in ((s_only, True), (c_only, False)):
        assert l_related(p1, p2) is not None
        assert (s_related(p1, p2) is not None) is s_holds
        assert (c_related(p1, p2) is not None) is not s_holds
        assert check_l_minus_sc(p1, p2) is None
        assert check_l_minus_sc(p2, p1) is None


def test_search_l_minus_sc_returns_verified_witness():
    witness = search_l_minus_sc(SearchBounds(2, 2, 4))
    assert witness is not None
    assert l_related(witness.p1, witness.p2) == witness.likelihood_ratio
    assert s_related(witness.p1, witness.p2) is None
    assert c_related(witness.p1, witness.p2) is None


def _all_pairs_l_minus_sc(bounds):
    pairs = list(enumerate_pairs(*bounds))
    for p1, p2 in itertools.combinations(pairs, 2):
        witness = check_l_minus_sc(p1, p2)
        if witness is not None:
            return witness
    return None


@pytest.mark.parametrize("bounds", [(2, 2, 4), (2, 2, 1), (2, 3, 2), (1, 6, 6)])
def test_search_l_minus_sc_matches_all_pairs_scan(bounds):
    # the search checks L-class peers only; a pair across classes is not in
    # L, so the first witness of the scan of every pair stays the first
    want = _all_pairs_l_minus_sc(bounds)
    assert search_l_minus_sc(SearchBounds(*bounds)) == want
    assert (want is None) is (bounds in {(2, 2, 1), (1, 6, 6)})


@pytest.mark.parametrize("field", ["theta_size", "max_space", "max_denominator"])
def test_search_bounds_reject_empty_grid(field):
    assert SearchBounds(**{field: 1}) is not None
    with pytest.raises(LpLabError, match=f"search bound {field} must be"):
        SearchBounds(**{field: 0})
    # the grid itself checks no signs or labels, so it refuses such bounds
    with pytest.raises(LpLabError, match=f"search bound {field} must be"):
        next(enumerate_models(**{field: 0}))


def _strata(theta_size, max_space, max_denominator):
    """(size, den, row combinations) of each stratum, in grid order, with
    rows counted by brute force over all tuples of entries."""
    out = []
    for size in range(1, max_space + 1):
        for den in range(1, max_denominator + 1):
            rows = sum(
                sum(entries) == den
                for entries in itertools.product(range(den + 1), repeat=size)
            )
            out.append((size, den, rows**theta_size))
    return out


def test_default_grid_is_within_the_enumeration_bound():
    total = sum(n for _, _, n in _strata(2, 6, 6))
    assert total == 376_461 <= search.MAX_COMBINATIONS


@pytest.mark.parametrize("bounds", [(2, 3, 3), (1, 4, 5), (3, 2, 4)])
def test_enumeration_bound_refuses_the_stratum_past_it(monkeypatch, bounds):
    strata = _strata(*bounds)
    total = sum(n for _, _, n in strata)
    models = list(enumerate_models(*bounds))
    monkeypatch.setattr(search, "MAX_COMBINATIONS", total)
    assert list(enumerate_models(*bounds)) == models
    # one fewer refuses the last stratum before its columns are generated,
    # after every model of the strata before it
    size, den, _ = strata[-1]
    built = []
    sorted_columns = search._sorted_columns

    def spy(remaining, parts, least):
        # the recursion's calls have fewer parts than their stratum's size,
        # so only a stratum's own first call records (size, den)
        built.append((parts, remaining[0]))
        return sorted_columns(remaining, parts, least)

    monkeypatch.setattr(search, "_sorted_columns", spy)
    monkeypatch.setattr(search, "MAX_COMBINATIONS", total - 1)
    yielded = []
    with pytest.raises(SpaceTooLarge) as refused:
        yielded.extend(enumerate_models(*bounds))
    assert str(refused.value) == (
        f"search grid exceeds enumeration bound {total - 1} row combinations "
        f"at |X| = {size}, denominator {den}"
    )
    assert (size, den) not in built
    assert {(s, d) for s, d, _ in strata[:-1]} <= set(built)
    assert yielded == [m for m in models if (m.n_points, m.den) != (size, den)]
    assert len(yielded) < len(models)


@pytest.mark.parametrize("bounds", [(2, 4, 4), (3, 3, 3)])
def test_nested_balanced_blocks_give_c_related_conditionals(bounds):
    # the lemma the search decides C by: two conditionals of one pair are
    # C-related iff one block's column multiset contains the other's, and
    # isomorphic iff the two are equal; nested blocks are one case of it
    kinds = Counter()
    for model in enumerate_models(*bounds):
        columns = model.scaled_columns
        for x in range(model.n_points):
            found = []
            for a, cond in conditional_pairs(ModelDataPair(model, x)):
                block = a.blocks[a.labels[x]]
                found.append((set(block), Counter(columns[y] for y in block), cond))
            for (a, ma, pa), (b, mb, pb) in itertools.combinations(found, 2):
                witness = c_related(pa, pb)
                if a <= b or b <= a:
                    kinds["nested"] += 1
                elif ma <= mb or mb <= ma:
                    kinds["contained"] += 1
                else:
                    kinds["incomparable"] += 1
                    assert witness is None, (model, x, a, b)
                    continue
                assert witness is not None, (model, x, a, b)
                assert verify_c_witness(pa, pb, witness)
                assert (canonical_form(pa) == canonical_form(pb)) is (ma == mb)
    assert kinds["nested"] > 50 and kinds["contained"] > 0
    # an incomparable pair is a counterexample: (2, 4, 4) has one, and the
    # search exhausts (3, 3, 3)
    found = search_c_transitivity_counterexample(SearchBounds(*bounds))
    assert (kinds["incomparable"] > 0) is (found is not None) is (bounds == (2, 4, 4))


def test_c_transitivity_search_skips_only_related_pairs(monkeypatch):
    # in a parameter-free uniform model every two conditionals are uniform
    # and C-related, also where their blocks are not nested: at x3 the
    # blocks {x1, x2, x3} and {x3, x4} give them; their column multisets
    # are contained, so no conditional is built and no oracle is asked
    uniform = _frozen_pair(("1/4",) * 4, ("1/4",) * 4, "x1").model
    monkeypatch.setattr(search, "enumerate_models", lambda *bounds: iter([uniform]))

    def unexpected(*args):
        raise AssertionError("conditional built for comparable blocks")

    monkeypatch.setattr(search, "_c_step", unexpected)
    monkeypatch.setattr(search, "c_related", unexpected)
    assert search_c_transitivity_counterexample() is None


@pytest.mark.parametrize("bounds", [SearchBounds(2, 3, 4), SearchBounds()])
def test_c_transitivity_search_builds_its_positive_steps(monkeypatch, bounds):
    # both positive steps are built from the splits whose column multisets
    # the scan compared; the oracle is asked for the negative only
    calls = []
    oracle = search.c_related

    def counted(*args, **kwargs):
        calls.append(args)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(search, "c_related", counted)
    found = search_c_transitivity_counterexample(bounds)
    assert found is not None
    assert calls == [(found.p1, found.p3)]
    assert verify_c_witness(found.p1, found.p2, found.witness_12)
    assert verify_c_witness(found.p2, found.p3, found.witness_23)


class _SizeOnly:
    """A model of 13 points whose rows cannot be read, so reading them to
    tabulate its balanced splits fails the test."""

    n_points = MAX_SPACE + 1

    @property
    def rows(self):
        raise AssertionError("balanced splits tabulated above the bound")


@pytest.mark.parametrize(
    "model",
    [_frozen_pair(("1/13",) * 13, ("1/13",) * 13, "x1").model, _SizeOnly()],
)
def test_c_transitivity_search_refuses_large_space(monkeypatch, model):
    monkeypatch.setattr(search, "enumerate_models", lambda *bounds: iter([model]))
    with pytest.raises(SpaceTooLarge) as refused:
        search_c_transitivity_counterexample()
    assert str(refused.value) == "|X| = 13 exceeds enumeration bound 12"
