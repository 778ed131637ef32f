"""The C and Durbin-C oracles against the exhaustive reference.

Inputs: every ordered pair of a small enumerated universe, and Birnbaum and
EFM mixtures of L-related pairs from it against their own conditionals.
Every positive answer is re-checked with verify_c_witness, under the
Durbin restriction for Durbin-C; a C certificate between pairs that are
not Durbin-C related must fail that re-check.
"""

import random

import pytest

from ancillary_reference import conditional_pairs
from c_reference import exhaustive_c_related
from lp_lab.ancillarity import c_related, verify_c_witness
from lp_lab.model import canonical_form
from lp_lab.relations import birnbaumize, efm_parent, l_related
from lp_lab.search import enumerate_pairs

MIXED_L_PAIRS = 24


@pytest.fixture(scope="module")
def universe():
    return list(enumerate_pairs(2, 3, 3))


def _agree(p1, p2, durbin):
    witness = c_related(p1, p2, durbin=durbin)
    reference = exhaustive_c_related(p1, p2, durbin=durbin)
    assert (witness is None) == (reference is None), (p1, p2, durbin)
    if witness is not None:
        assert verify_c_witness(p1, p2, witness, durbin=durbin), (p1, p2, durbin)
    elif durbin:
        # a C certificate between pairs that are not Durbin-C related
        plain = c_related(p1, p2)
        if plain is not None:
            assert not verify_c_witness(p1, p2, plain, durbin=True), (p1, p2)
    return witness is not None


@pytest.mark.parametrize("durbin", [False, True])
def test_c_matches_exhaustive_on_universe(universe, durbin):
    assert len(universe) == 56
    positive = sum(_agree(a, b, durbin) for a in universe for b in universe)
    assert len(universe) <= positive < len(universe) ** 2


@pytest.mark.parametrize("durbin", [False, True])
def test_c_matches_exhaustive_on_mixture_conditionals(universe, durbin):
    l_pairs = [
        (a, b)
        for i, a in enumerate(universe)
        for b in universe[i + 1 :]
        if l_related(a, b) is not None
    ]
    sample = random.Random(1962).sample(l_pairs, MIXED_L_PAIRS)
    checked = positive = 0
    for a, b in sample:
        _, e1, e2 = birnbaumize(a, b)
        for parent in (e1, e2, efm_parent(a, b).parent):
            seen = set()
            for _, cond in conditional_pairs(parent):
                key = canonical_form(cond)
                if key in seen:
                    continue
                seen.add(key)
                checked += 1
                positive += _agree(parent, cond, durbin)
    assert checked > 100
    assert 0 < positive <= checked
