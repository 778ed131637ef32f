import dataclasses
import random
from fractions import Fraction

import pytest

from lp_lab.ancillarity import (
    DEFAULT_MAX_SPACE,
    CWitness,
    ancillary_catalog,
    balanced_blocks,
    c_related,
    condition_on_block,
    conditional_pairs,
    enumerate_ancillaries,
    is_ancillary,
    laminal_ancillary,
    maximal_ancillaries,
    verify_c_witness,
)
from lp_lab.errors import GroundSetMismatch, NotAncillary, SpaceTooLarge
from lp_lab.generate import random_pair
from lp_lab.model import FiniteModel, ModelDataPair, validate_model
from lp_lab.partition import Partition
from lp_lab.relations import birnbaumize, l_related
from lp_lab.sufficiency import likelihood_partition

F = Fraction


def test_is_ancillary_fixtures(fd):
    assert is_ancillary(fd, Partition.of(4, [[0, 1], [2, 3]]))
    assert not is_ancillary(fd, Partition.of(4, [[0, 2], [1, 3]]))
    assert is_ancillary(fd, Partition.trivial(4))


def test_enumerate_ancillaries_fix_d(fd):
    found = enumerate_ancillaries(fd)
    assert set(found) == {
        Partition.trivial(4),
        Partition.of(4, [[0, 1], [2, 3]]),
        Partition.of(4, [[0, 3], [1, 2]]),
    }


def test_enumerate_ancillaries_fix_b(fb):
    assert enumerate_ancillaries(fb) == [Partition.trivial(2)]


def test_enumerate_ancillaries_one_point():
    m = validate_model(["t1"], ["o"], [["1"]])
    assert enumerate_ancillaries(m) == [Partition.trivial(1)]


def test_space_too_large(fd):
    with pytest.raises(SpaceTooLarge):
        enumerate_ancillaries(fd, max_space=3)


def test_balanced_blocks_fix_d(fd):
    # restricted-growth order of {B, X \ B}: 0000, 0011, 0110
    assert balanced_blocks(fd, 0) == [{0, 1, 2, 3}, {0, 1}, {0, 3}]
    assert balanced_blocks(fd, 2) == [{0, 1, 2, 3}, {2, 3}, {1, 2}]
    assert balanced_blocks(validate_model(["t1"], ["o"], [["1"]]), 0) == [{0}]


def test_conditional_pairs_refuse_large_space(seven_point_l_pairs):
    p1, p2 = seven_point_l_pairs
    _, e1, _ = birnbaumize(p1, p2)
    assert e1.model.n_points == 14 > DEFAULT_MAX_SPACE
    # balanced_blocks itself has no bound: X comes first, and the copy of
    # the first component is among the balanced blocks
    blocks = balanced_blocks(e1.model, e1.observed)
    assert blocks[0] == set(range(14)) and set(range(7)) in blocks
    with pytest.raises(SpaceTooLarge):
        conditional_pairs(e1)
    assert len(conditional_pairs(p1)) == len(balanced_blocks(p1.model, 0))


def test_maximal_ancillaries(fd, fb):
    assert set(maximal_ancillaries(fd)) == {
        Partition.of(4, [[0, 1], [2, 3]]),
        Partition.of(4, [[0, 3], [1, 2]]),
    }
    assert maximal_ancillaries(fb) == [Partition.trivial(2)]


def test_maximal_for_theta_constant_model():
    m = validate_model(
        ["t1", "t2"],
        ["a", "b"],
        [["1/3", "2/3"], ["1/3", "2/3"]],
    )
    assert maximal_ancillaries(m) == [Partition.discrete(2)]
    assert laminal_ancillary(m) == Partition.discrete(2)


def test_laminal_ancillary(fd, fb):
    assert laminal_ancillary(fd) == Partition.trivial(4)
    assert laminal_ancillary(fb) == Partition.trivial(2)


def test_catalog_invariants(fd):
    catalog = ancillary_catalog(fd)
    for a in catalog.all:
        assert is_ancillary(fd, a)
    for m in catalog.maximal:
        assert m.refines(catalog.laminal)
    assert is_ancillary(fd, catalog.laminal)


def test_condition_on_block_fix_d(fd):
    pair = ModelDataPair(fd, 0)
    cond = condition_on_block(pair, Partition.of(4, [[0, 1], [2, 3]]))
    assert cond.model.probs == ((F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)))
    assert cond.observed == 0
    other = condition_on_block(pair, Partition.of(4, [[0, 3], [1, 2]]))
    assert other.model.probs == ((F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)))
    assert other.model.sample_labels == ("1", "4")


def test_condition_on_trivial_is_identity(fb):
    pair = ModelDataPair(fb, 1)
    cond = condition_on_block(pair, Partition.trivial(2))
    assert cond == pair


def test_condition_requires_ancillary(fd):
    with pytest.raises(NotAncillary):
        condition_on_block(ModelDataPair(fd, 0), Partition.of(4, [[0, 2], [1, 3]]))


@pytest.mark.parametrize("size", [2, 5])
def test_partition_of_another_ground_set_is_refused(fd, size):
    other = Partition.trivial(size)
    with pytest.raises(GroundSetMismatch):
        is_ancillary(fd, other)
    with pytest.raises(GroundSetMismatch):
        condition_on_block(ModelDataPair(fd, 0), other)


@pytest.mark.parametrize("size", [2, 5])
def test_verify_c_witness_rejects_another_ground_set(fb, size):
    pair = ModelDataPair(fb, 0)
    _, embedded, _ = birnbaumize(pair, pair)
    witness = c_related(pair, embedded)
    assert verify_c_witness(pair, embedded, witness)
    forged = dataclasses.replace(witness, ancillary=Partition.trivial(size))
    assert not verify_c_witness(pair, embedded, forged)


def test_verify_c_witness_rejects_forged_certificates(fb, fc, fd, at):
    # a parent field that names neither argument
    pair = at(fb, "y2")
    _, embedded, _ = birnbaumize(pair, at(fc, "z1"))
    witness = c_related(pair, embedded)
    assert verify_c_witness(pair, embedded, witness)
    for bogus in ("bogus", "First", ""):
        forged = dataclasses.replace(witness, parent=bogus)
        assert not verify_c_witness(pair, embedded, forged)
    # a partition with parameter-dependent block masses, recorded with the
    # rows its block would give; the child copies them
    parent = ModelDataPair(fd, 0)
    rows = ((1, 1), (2, 2))
    child = ModelDataPair(FiniteModel(fd.theta_labels, ("1", "3"), 2, rows), 0)
    not_ancillary = Partition.of(4, [[0, 2], [1, 3]])
    assert not is_ancillary(fd, not_ancillary)
    forged = CWitness("first", not_ancillary, child, (0, 1))
    assert not verify_c_witness(parent, child, forged)
    # a bijection that matches every column but moves the observed point
    twins = validate_model(
        ["t1", "t2"], ["a", "b", "c"], [["1/4", "1/4", "1/2"], ["1/8", "1/8", "3/4"]]
    )
    pair = ModelDataPair(twins, 0)
    witness = c_related(pair, pair)
    assert witness.bijection == (0, 1, 2) and verify_c_witness(pair, pair, witness)
    moved = dataclasses.replace(witness, bijection=(1, 0, 2))
    assert not verify_c_witness(pair, pair, moved)


def test_c_related_by_construction(fd):
    pair = ModelDataPair(fd, 0)
    ancillary = Partition.of(4, [[0, 1], [2, 3]])
    cond = condition_on_block(pair, ancillary)
    witness = c_related(pair, cond)
    assert witness is not None
    assert verify_c_witness(pair, cond, witness)


def test_c_related_reflexive(fb):
    pair = ModelDataPair(fb, 0)
    witness = c_related(pair, pair)
    assert witness is not None
    assert witness.ancillary == Partition.trivial(2)


def test_c_related_absent(fb, fc, at):
    assert c_related(at(fb, "y2"), at(fc, "z1")) is None


def test_c_related_above_enumeration_bound(seven_point_l_pairs):
    p1, p2 = seven_point_l_pairs
    _, e1, e2 = birnbaumize(p1, p2)
    assert e1.model.n_points == 14 > DEFAULT_MAX_SPACE
    with pytest.raises(SpaceTooLarge):
        enumerate_ancillaries(e1.model)
    for pair, embedded in ((p1, e1), (p2, e2)):
        witness = c_related(pair, embedded)
        assert witness is not None
        assert witness.parent == "second"
        assert verify_c_witness(pair, embedded, witness)
        # the MSS of the mixture merges the two observations across the
        # component indicator, so the Durbin restriction rejects the step
        assert c_related(pair, embedded, durbin=True) is None
    assert c_related(p1, e2) is None


def test_c_implies_l_random():
    rng = random.Random(3)
    pairs = [random_pair(rng, 2, rng.randint(2, 3), 6) for _ in range(15)]
    for p1 in pairs:
        for p2 in pairs:
            if c_related(p1, p2) is not None:
                assert l_related(p1, p2) is not None


def test_c_symmetric_random():
    rng = random.Random(5)
    pairs = [random_pair(rng, 2, rng.randint(2, 3), 6) for _ in range(12)]
    for p1 in pairs:
        for p2 in pairs:
            assert (c_related(p1, p2) is None) == (c_related(p2, p1) is None)


def test_durbin_reflexive(fb):
    pair = ModelDataPair(fb, 0)
    assert c_related(pair, pair, durbin=True) is not None


def test_durbin_rejects_non_mss_ancillary(fd):
    # the MSS partition of FIX-D is {13|24}; {12|34} straddles its blocks
    pair = ModelDataPair(fd, 0)
    mss = likelihood_partition(fd)
    ancillary = Partition.of(4, [[0, 1], [2, 3]])
    assert not ancillary.refines(mss) and not mss.refines(ancillary)
    cond = condition_on_block(pair, ancillary)
    assert c_related(pair, cond) is not None
    assert c_related(pair, cond, durbin=True) is None


def test_durbin_subset_of_c():
    rng = random.Random(9)
    pairs = [random_pair(rng, 2, rng.randint(2, 3), 6) for _ in range(12)]
    for p1 in pairs:
        for p2 in pairs:
            if c_related(p1, p2, durbin=True) is not None:
                assert c_related(p1, p2) is not None
