import math
import random
from fractions import Fraction

import pytest

from lp_lab.errors import GroundSetMismatch, ParameterSpaceMismatch, UnreachablePoint
from lp_lab import sufficiency
from lp_lab.model import FiniteModel, ModelDataPair, pairs_isomorphic, validate_model
from lp_lab.partition import Partition, all_partitions
from lp_lab.sufficiency import (
    MSS_CACHE_SIZE,
    is_sufficient,
    likelihood_partition,
    reduce_to_mss,
    s_related,
    statistic_induced_model,
)
from random_models import random_pair

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


@pytest.mark.parametrize(
    "model, partition",
    [
        ("fa", Partition.of(2, [[0], [1]])),
        ("fa", Partition.of(2, [[0, 1]])),
        ("fb", Partition.of(3, [[0, 1], [2]])),
        ("fb", Partition.discrete(3)),
    ],
    ids=["fa-discrete-2", "fa-trivial-2", "fb-3-points", "fb-discrete-3"],
)
def test_partition_of_another_ground_set_is_refused(model, partition, request):
    model = request.getfixturevalue(model)
    with pytest.raises(GroundSetMismatch):
        statistic_induced_model(model, partition)
    with pytest.raises(GroundSetMismatch):
        is_sufficient(model, partition)


def test_reduce_unreachable_point_is_refused():
    # built directly: validate_model would refuse the all-zero column
    model = FiniteModel(("t1", "t2"), ("a", "b", "c"), 2, ((1, 1, 0), (2, 0, 0)))
    with pytest.raises(UnreachablePoint, match=r"block \[2\] has zero mass"):
        reduce_to_mss(ModelDataPair(model, 0))


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
    sufficiency._quotient.cache_clear()
    for pair in pairs:
        reduce_to_mss(pair)
    info = reduce_to_mss.cache_info()
    assert info.maxsize == info.currsize == MSS_CACHE_SIZE
    assert info.misses == len(pairs)
    # each pair is of its own model, so the model cache is bounded alike
    by_model = sufficiency._quotient.cache_info()
    assert by_model.maxsize == by_model.currsize == MSS_CACHE_SIZE
    assert (by_model.hits, by_model.misses) == (0, len(pairs))
    reduce_to_mss(pairs[0])  # evicted, so computed again
    assert reduce_to_mss.cache_info().misses == len(pairs) + 1
    assert sufficiency._quotient.cache_info().misses == len(pairs) + 1
    reduce_to_mss(pairs[-1])  # still held
    assert reduce_to_mss.cache_info().hits == info.hits + 1
    assert sufficiency._quotient.cache_info().misses == len(pairs) + 1


def test_pairs_of_one_model_share_its_quotient(fd):
    reductions = [reduce_to_mss(ModelDataPair(fd, x)) for x in range(4)]
    assert [r.reduced.observed for r in reductions] == [0, 1, 0, 1]
    first = reductions[0]
    for reduction in reductions[1:]:
        assert reduction.reduced.model is first.reduced.model
        assert reduction.block_map is first.block_map
        assert reduction.theta_free_factor is first.theta_free_factor


def test_equal_models_built_apart_share_one_quotient():
    def build():
        return validate_model(
            ["t1", "t2"],
            ["a", "b", "c", "d"],
            [["1/8", "1/8", "1/4", "1/2"], ["1/4", "1/4", "1/4", "1/4"]],
        )

    first, second = build(), build()
    assert first == second and first is not second
    reduce_to_mss.cache_clear()
    sufficiency._quotient.cache_clear()
    reductions = [
        reduce_to_mss(ModelDataPair(model, x))
        for model in (first, second)
        for x in range(4)
    ]
    assert len({id(r.reduced.model) for r in reductions}) == 1
    by_model = sufficiency._quotient.cache_info()
    assert (by_model.misses, by_model.hits, by_model.currsize) == (1, 3, 1)
    # a pair of the second model equals the first model's pair at x
    by_pair = reduce_to_mss.cache_info()
    assert (by_pair.misses, by_pair.hits, by_pair.currsize) == (4, 4, 4)
