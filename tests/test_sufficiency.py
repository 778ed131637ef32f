import math
import random
from fractions import Fraction

import pytest

from lp_lab.errors import ParameterSpaceMismatch
from lp_lab.generate import random_pair
from lp_lab.model import ModelDataPair, pairs_isomorphic, validate_model
from lp_lab.partition import Partition, all_partitions
from lp_lab.sufficiency import (
    MSS_CACHE_SIZE,
    is_sufficient,
    likelihood_partition,
    reduce_to_mss,
    s_related,
    statistic_induced_model,
)

F = Fraction


def test_likelihood_partition_fixtures(fa, fb, fd):
    assert likelihood_partition(fa) == Partition.of(3, [[0, 1], [2]])
    assert likelihood_partition(fd) == Partition.of(4, [[0, 2], [1, 3]])
    assert likelihood_partition(fb) == Partition.discrete(2)


def test_is_sufficient(fa, fb):
    assert is_sufficient(fa, Partition.of(3, [[0, 1], [2]]))
    assert is_sufficient(fb, Partition.discrete(2))
    assert not is_sufficient(fb, Partition.trivial(2))


def test_reduce_fix_a(fa, at):
    reduction = reduce_to_mss(at(fa, "x1"))
    reduced = reduction.reduced
    assert reduced.model.probs == (
        (F(1, 2), F(1, 2)),
        (F(1, 4), F(3, 4)),
    )
    assert reduction.block_map == (0, 0, 1)
    assert reduction.theta_free_factor[0] == F(1, 3)
    assert reduced.observed == 0


def test_reduce_already_minimal(fb, at):
    reduction = reduce_to_mss(at(fb, "y1"))
    assert pairs_isomorphic(reduction.reduced, at(fb, "y1")) is not None


def test_reduce_idempotent(fa, at):
    once = reduce_to_mss(at(fa, "x1")).reduced
    twice = reduce_to_mss(once).reduced
    assert pairs_isomorphic(once, twice) is not None


def test_s_related_fixtures(fa, fb, fc, at):
    assert s_related(at(fa, "x1"), at(fb, "y1")) is not None
    p = at(fa, "x2")
    assert s_related(p, p) is not None
    assert s_related(at(fb, "y2"), at(fc, "z1")) is None


def test_s_related_parameter_space_mismatch(fb):
    other = validate_model(["u1", "u2"], ["y1", "y2"], [["1/2", "1/2"], ["1/4", "3/4"]])
    with pytest.raises(ParameterSpaceMismatch):
        s_related(ModelDataPair(fb, 0), ModelDataPair(other, 0))


def test_statistic_induced_model(fd):
    g = statistic_induced_model(fd, Partition.of(4, [[0, 1], [2, 3]]))
    assert g.probs == ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    trivial = statistic_induced_model(fd, Partition.trivial(4))
    assert trivial.probs == ((F(1),), (F(1),))
    identity = statistic_induced_model(fd, Partition.discrete(4))
    assert identity.probs == fd.probs


def test_factorization_identity_random():
    rng = random.Random(7)
    for _ in range(50):
        pair = random_pair(rng, 2, rng.randint(2, 4), 12)
        reduction = reduce_to_mss(pair)
        g = reduction.reduced.model
        for i, row in enumerate(pair.model.probs):
            for x, value in enumerate(row):
                block = reduction.block_map[x]
                assert value == g.probs[i][block] * reduction.theta_free_factor[x]


def test_likelihood_partition_is_coarsest_sufficient():
    rng = random.Random(11)
    for _ in range(20):
        model = random_pair(rng, 2, 4, 6).model
        mss = likelihood_partition(model)
        for partition in all_partitions(model.n_points):
            if is_sufficient(model, partition):
                assert partition.refines(mss)


def test_s_implies_l_random():
    from lp_lab.relations import l_related

    rng = random.Random(13)
    pairs = [random_pair(rng, 2, rng.randint(2, 3), 6) for _ in range(20)]
    for p1 in pairs:
        for p2 in pairs:
            if s_related(p1, p2) is not None:
                assert l_related(p1, p2) is not None


def test_reduce_to_mss_cache_evicts():
    # one-parameter two-point models k/n, (n-k)/n are pairwise distinct
    pairs = [
        ModelDataPair(
            validate_model(["t1"], ["a", "b"], [[f"{k}/{n}", f"{n - k}/{n}"]]),
            0,
        )
        for n in range(2, 60)
        for k in range(1, n)
        if math.gcd(k, n) == 1
    ]
    assert len(pairs) > MSS_CACHE_SIZE
    reduce_to_mss.cache_clear()
    for pair in pairs:
        reduce_to_mss(pair)
    info = reduce_to_mss.cache_info()
    assert info.maxsize == info.currsize == MSS_CACHE_SIZE
    assert info.misses == len(pairs)
    reduce_to_mss(pairs[0])  # evicted, so computed again
    assert reduce_to_mss.cache_info().misses == len(pairs) + 1
    reduce_to_mss(pairs[-1])  # still held
    assert reduce_to_mss.cache_info().hits == info.hits + 1
