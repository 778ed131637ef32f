import pytest

import partition_reference as reference
from lp_lab.errors import GroundSetMismatch, LpLabError
from lp_lab.partition import Partition, all_partitions, is_function_of


def test_bell_counts():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        assert sum(1 for _ in all_partitions(n)) == bell


def test_enumeration_starts_trivial_ends_discrete():
    parts = list(all_partitions(3))
    assert parts[0] == Partition.trivial(3)
    assert parts[-1] == Partition.discrete(3)
    assert len(set(parts)) == len(parts)


def test_of_validates():
    with pytest.raises(LpLabError):
        Partition.of(3, [[0, 1]])
    with pytest.raises(LpLabError):
        Partition.of(3, [[0, 1], [1, 2]])
    with pytest.raises(LpLabError):
        Partition.of(2, [[0, 1], []])


def test_refines_and_function_of():
    coarse = Partition.of(4, [[0, 1], [2, 3]])
    other = Partition.of(4, [[0, 3], [1, 2]])
    assert is_function_of(coarse, Partition.discrete(4))
    assert is_function_of(Partition.trivial(4), other)
    assert not is_function_of(coarse, other)


def test_join():
    a = Partition.of(4, [[0, 1], [2, 3]])
    b = Partition.of(4, [[0, 3], [1, 2]])
    assert a.join(b) == Partition.trivial(4)
    assert a.join(a) == a
    assert a.join(Partition.discrete(4)) == a


def test_ground_set_mismatch():
    with pytest.raises(GroundSetMismatch):
        Partition.trivial(3).refines(Partition.trivial(4))


def test_from_labels_groups_equal_values():
    p = Partition.from_labels(["a", "b", "a", "c"])
    assert p == Partition.of(4, [[0, 2], [1], [3]])


def test_of_refuses_repeated_point_in_a_block():
    with pytest.raises(LpLabError, match="repeats a point"):
        Partition.of(4, [[0, 0, 1], [2, 3]])
    with pytest.raises(LpLabError, match="repeats a point"):
        Partition.of(1, [[0, 0]])


@pytest.mark.parametrize(
    "labels", [(1,), (1, 0), (0, 2, 1), (0, 0, 2), (0, -1)], ids=str
)
def test_constructor_refuses_non_restricted_growth(labels):
    with pytest.raises(LpLabError, match="restricted-growth"):
        Partition(labels)


def test_constructor_refuses_a_list():
    with pytest.raises(LpLabError, match="restricted-growth"):
        Partition([0, 1])


def test_labels_are_the_restricted_growth_string():
    p = Partition.of(5, [[3, 1], [4, 0], [2]])
    assert p.labels == (0, 1, 2, 1, 0)
    assert p.blocks == ((0, 4), (1, 3), (2,))
    assert p.size == 5
    assert p == Partition((0, 1, 2, 1, 0))
    assert hash(p) == hash(Partition((0, 1, 2, 1, 0)))
    assert Partition(()).blocks == ()


@pytest.mark.parametrize("x", [-1, 3])
def test_block_index_of_outside_ground_set(x):
    with pytest.raises(GroundSetMismatch, match="not in ground set of size 3"):
        reference.Partition.trivial(3).block_index_of(x)


# Differential tests against the frozenset Partition of partition_reference.


def _ref_of(p):
    return reference.Partition.of(p.size, p.blocks)


@pytest.mark.parametrize("n", range(8))
def test_single_partitions_match_reference(n):
    ours = list(all_partitions(n))
    refs = list(reference.all_partitions(n))
    assert len(ours) == len(refs)
    for p, r in zip(ours, refs):
        assert tuple(frozenset(b) for b in p.blocks) == r.blocks
        assert all(list(b) == sorted(b) for b in p.blocks)
        assert p.size == r.size == n
        for x in range(n):
            assert p.labels[x] == r.block_index_of(x)
        assert Partition.of(n, r.blocks) == p
        # the same blocks listed in reverse, each block reversed
        assert Partition.of(n, [b[::-1] for b in p.blocks[::-1]]) == p
        keys = [f"k{(7 * b) % 11}" for b in p.labels]
        assert Partition.from_labels(keys) == p
        assert _ref_of(p) == reference.Partition.from_labels(keys)


@pytest.mark.parametrize("n", range(1, 6))
def test_partition_pairs_match_reference(n):
    ours = list(all_partitions(n))
    refs = [_ref_of(p) for p in ours]
    for p, rp in zip(ours, refs):
        for q, rq in zip(ours, refs):
            assert p.refines(q) == rp.refines(rq)
            assert is_function_of(p, q) == reference.is_function_of(rp, rq)
            assert _ref_of(p.join(q)) == rp.join(rq)


@pytest.mark.parametrize(
    "size, blocks",
    [
        (3, [[0, 1]]),
        (3, [[0, 1], [1, 2]]),
        (2, [[0, 1], []]),
        (3, [[0, 1], [2, 3]]),
        (2, [[0, 5], [1]]),
        (0, [[0]]),
        (3, [[2], [0, 1], [1]]),
    ],
)
def test_of_errors_match_reference(size, blocks):
    with pytest.raises(LpLabError) as ours:
        Partition.of(size, blocks)
    with pytest.raises(LpLabError) as theirs:
        reference.Partition.of(size, blocks)
    assert str(ours.value) == str(theirs.value)
