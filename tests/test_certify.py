"""The integer certificate checker: forged certificates, its independence
from the oracles, and agreement with every oracle witness on a universe.

Most forgery tests change one part of a true certificate so that only one
of the checker's checks can reject it; removing that check fails the test.
"""

import ast
import dataclasses
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

import lp_lab
from ancillary_reference import conditional_pairs
from lp_lab.ancillarity import CWitness, c_related
from lp_lab import certify
from lp_lab.certify import verify_c_witness, verify_l_witness, verify_s_witness
from lp_lab.errors import LpLabError
from lp_lab.model import FiniteModel, ModelDataPair, validate_model
from lp_lab.partition import Partition
from lp_lab.relations import (
    birnbaum_chain,
    birnbaumize,
    efm_parent,
    l_related,
    verify_chain,
)
from lp_lab.search import enumerate_pairs
from lp_lab.sufficiency import SWitness, reduce_to_mss, s_related

F = Fraction
CERTIFY = Path(lp_lab.__file__).parent / "certify.py"


def _relabeled_theta(pair):
    model = pair.model
    theta = tuple(t + "'" for t in model.theta_labels)
    return ModelDataPair(dataclasses.replace(model, theta_labels=theta), pair.observed)


def _with_zero_point(model):
    """The model with one more sample point, "z", that no parameter reaches."""
    rows = tuple(row + (0,) for row in model.rows)
    return FiniteModel(model.theta_labels, model.sample_labels + ("z",), model.den, rows)


@pytest.fixture
def mixture_pairs(fb, fc, at):
    """FIX-B y2, FIX-C z1 and the two embedded pairs of their mixture."""
    p1, p2 = at(fb, "y2"), at(fc, "z1")
    _, e1, e2 = birnbaumize(p1, p2)
    return p1, p2, e1, e2


@pytest.fixture
def self_reduction(mixture_pairs):
    """The MSS reduction of the first embedded pair of the mixture.

    Its reduced model has three points over den 24, with rows
    (6, 10, 8) and (3, 15, 6); block_map is (0, 1, 1, 2) and the factors
    are (1, 3/5, 2/5, 1); the observed block is 1.
    """
    e1 = mixture_pairs[2]
    result = reduce_to_mss(e1)
    assert result.block_map == (0, 1, 1, 2)
    assert result.theta_free_factor == (1, F(3, 5), F(2, 5), 1)
    assert result.reduced.observed == 1
    return e1, result


def _self_certificate(pair, result):
    """verify_s_witness of ``pair`` with itself, both sides ``result``."""
    phi = tuple(range(result.reduced.model.n_points))
    return verify_s_witness(pair, pair, SWitness(result, result, phi))


def _block_labels(model, block_map):
    """The reduced labels a block_map gives: "{a,b}" per block, in order."""
    blocks = {}
    for label, b in zip(model.sample_labels, block_map):
        blocks.setdefault(b, []).append(label)
    return tuple("{" + ",".join(blocks[b]) + "}" for b in sorted(blocks))


def _with_block_map(pair, result, block_map):
    """``result`` with ``block_map``, its reduced points relabeled to match,
    so that only the factorization and block sums can refuse it."""
    forged = _forged_reduced(result, labels=_block_labels(pair.model, block_map))
    return dataclasses.replace(forged, block_map=block_map)


def _forged_reduced(result, rows=None, theta=None, labels=None, observed=None):
    model = result.reduced.model
    forged = FiniteModel(
        model.theta_labels if theta is None else theta,
        model.sample_labels if labels is None else labels,
        model.den,
        model.rows if rows is None else rows,
    )
    if observed is None:
        observed = result.reduced.observed
    return dataclasses.replace(result, reduced=ModelDataPair(forged, observed))


# ---------------------------------------------------------------------------
# S certificates


def test_s_accepts_true_certificates(mixture_pairs, self_reduction):
    _, _, e1, e2 = mixture_pairs
    assert verify_s_witness(e1, e2, s_related(e1, e2))
    assert _self_certificate(*self_reduction)


@pytest.mark.parametrize("block_map", [(2, 1, 1, 0), (0, 1, 2, 2), (0, 0, 1, 2)])
def test_s_rejects_wrong_block_map(self_reduction, block_map):
    pair, result = self_reduction
    assert not _self_certificate(pair, _with_block_map(pair, result, block_map))


def test_s_rejects_block_map_that_misses_a_block(self_reduction):
    # a fourth reduced point that no sample point maps to, with a zero column
    pair, result = self_reduction
    rows = tuple(row + (0,) for row in result.reduced.model.rows)
    labels = result.reduced.model.sample_labels + ("{}",)
    assert not _self_certificate(pair, _forged_reduced(result, rows, labels=labels))


def test_s_rejects_block_map_longer_than_the_sample_space(self_reduction):
    # the extra entry names a fourth reduced point with a zero column
    pair, result = self_reduction
    rows = tuple(row + (0,) for row in result.reduced.model.rows)
    labels = result.reduced.model.sample_labels + ("{}",)
    forged = dataclasses.replace(
        _forged_reduced(result, rows, labels=labels),
        block_map=result.block_map + (3,),
    )
    assert not _self_certificate(pair, forged)


def test_s_rejects_truncated_factors(self_reduction):
    pair, result = self_reduction
    factors = result.theta_free_factor[:-1]
    assert not _self_certificate(
        pair, dataclasses.replace(result, theta_free_factor=factors)
    )


def test_s_rejects_wrong_factor(self_reduction):
    # the two factors of the merged block swapped: block sums still hold
    pair, result = self_reduction
    factors = (1, F(2, 5), F(3, 5), 1)
    assert not _self_certificate(
        pair, dataclasses.replace(result, theta_free_factor=factors)
    )


def test_s_rejects_non_positive_factor(self_reduction):
    # a point no parameter reaches, put in a block with factor 0: every
    # product and block sum holds, but its column is proportional to none
    pair, result = self_reduction
    zero_pair = ModelDataPair(_with_zero_point(pair.model), pair.observed)
    zero_in_block = dataclasses.replace(
        _with_block_map(zero_pair, result, result.block_map + (2,)),
        theta_free_factor=result.theta_free_factor + (0,),
    )
    assert not _self_certificate(zero_pair, zero_in_block)


def test_s_rejects_reduced_rows_that_are_not_block_sums(self_reduction):
    # block 0's reduced column doubled and its factor halved: the
    # factorization holds, the block sums do not
    pair, result = self_reduction
    rows = tuple((2 * row[0],) + row[1:] for row in result.reduced.model.rows)
    factors = (F(1, 2),) + result.theta_free_factor[1:]
    forged = dataclasses.replace(
        _forged_reduced(result, rows), theta_free_factor=factors
    )
    assert not _self_certificate(pair, forged)


def test_s_rejects_non_minimal_reduction(self_reduction):
    # the discrete partition: a valid factorization that splits the
    # likelihood class {1:y2, 2:z1}
    pair, _ = self_reduction
    n = pair.model.n_points
    block_map = tuple(range(n))
    labels = _block_labels(pair.model, block_map)
    model = dataclasses.replace(pair.model, sample_labels=labels)
    discrete = dataclasses.replace(
        reduce_to_mss(pair),
        reduced=ModelDataPair(model, pair.observed),
        block_map=block_map,
        theta_free_factor=(1,) * n,
    )
    assert not _self_certificate(pair, discrete)


def test_s_rejects_wrong_observed_block(self_reduction):
    # both sides name block 0; the identity bijection still carries them
    pair, result = self_reduction
    assert not _self_certificate(pair, _forged_reduced(result, observed=0))


def test_s_rejects_reduction_with_other_parameter_labels(self_reduction):
    pair, result = self_reduction
    theta = tuple(t + "'" for t in pair.model.theta_labels)
    assert not _self_certificate(pair, _forged_reduced(result, theta=theta))


def test_s_rejects_renamed_blocks(mixture_pairs):
    # the Birnbaum S step of FIX-B y2 and FIX-C z1, with its reduced
    # points renamed p, q and r on both sides: every entry still holds
    p1, p2, e1, e2 = mixture_pairs
    witness = birnbaum_chain(p1, p2).steps[1].witness
    reduced = witness.left.reduced.model
    assert reduced.sample_labels == ("{1:y1}", "{1:y2,2:z1}", "{2:z2}")
    assert verify_s_witness(e1, e2, witness)
    renamed = _forged_reduced(witness.left, labels=("p", "q", "r"))
    forged = dataclasses.replace(witness, left=renamed, right=renamed)
    assert not verify_s_witness(e1, e2, forged)


def test_s_rejects_blocks_named_out_of_order(self_reduction):
    # the merged block {1:y2,2:z1} named with its points swapped
    pair, result = self_reduction
    labels = result.reduced.model.sample_labels
    assert labels[1] == "{1:y2,2:z1}"
    swapped = (labels[0], "{2:z1,1:y2}", labels[2])
    assert _self_certificate(pair, result)
    assert not _self_certificate(pair, _forged_reduced(result, labels=swapped))


def test_s_rejects_wrong_bijection(mixture_pairs):
    # the observed block stays put; the other two reduced points swap
    _, _, e1, e2 = mixture_pairs
    witness = s_related(e1, e2)
    forged = dataclasses.replace(witness, bijection=(2, 1, 0))
    assert not verify_s_witness(e1, e2, forged)


def test_s_rejects_reduction_of_another_pair(fb, fc, at):
    p, q = at(fb, "y2"), at(fc, "z1")
    witness = s_related(p, p)
    assert verify_s_witness(p, p, witness)
    assert not verify_s_witness(p, q, witness)
    assert not verify_s_witness(q, p, witness)


def test_s_rejects_pairs_on_other_parameter_labels(fb, at):
    p = at(fb, "y2")
    q = _relabeled_theta(p)
    witness = SWitness(reduce_to_mss(p), reduce_to_mss(q), (0, 1))
    assert not verify_s_witness(p, q, witness)


@pytest.fixture
def quotient_checks(monkeypatch):
    """The number of quotient checks verify_s_witness has made so far."""
    calls = []
    check = certify._quotient_holds

    def counted(*quotient):
        calls.append(quotient)
        return check(*quotient)

    monkeypatch.setattr(certify, "_quotient_holds", counted)
    return calls


def test_s_checks_a_shared_quotient_once(mixture_pairs, quotient_checks):
    # the two observations of one mixture share its one quotient
    p1, p2, e1, e2 = mixture_pairs
    assert verify_s_witness(e1, e2, s_related(e1, e2))
    assert len(quotient_checks) == 1
    assert verify_chain(birnbaum_chain(p1, p2))
    assert len(quotient_checks) == 2


def test_s_checks_both_quotients_of_two_models(fa, at, quotient_checks):
    # FIX-A at x1, and a copy of it with its sample points renamed: two
    # models whose reduced models differ in their labels only
    p = at(fa, "x1")
    renamed = tuple(label + "'" for label in fa.sample_labels)
    q = ModelDataPair(dataclasses.replace(fa, sample_labels=renamed), p.observed)
    witness = s_related(p, q)
    assert witness.left.block_map == witness.right.block_map
    assert witness.left.theta_free_factor == witness.right.theta_free_factor
    assert verify_s_witness(p, q, witness)
    assert len(quotient_checks) == 2
    # so a wrong quotient on the right is found though the left one holds
    factors = witness.right.theta_free_factor
    forged = dataclasses.replace(
        witness.right, theta_free_factor=factors[1::-1] + factors[2:]
    )
    assert factors[0] != factors[1]
    assert not verify_s_witness(p, q, dataclasses.replace(witness, right=forged))


@pytest.fixture
def shared_witness(mixture_pairs):
    """The S certificate of the mixture's two observations, whose sides
    claim one quotient; block 1 holds both observations."""
    _, _, e1, e2 = mixture_pairs
    witness = s_related(e1, e2)
    assert witness.left == witness.right
    assert witness.bijection == (0, 1, 2)
    return e1, e2, witness


def _with_right(witness, **changes):
    right = dataclasses.replace(witness.right, **changes)
    return dataclasses.replace(witness, right=right)


def test_s_shared_quotient_rejects_a_wrong_right_observed_block(shared_witness):
    # the right side still names block 1, where the pair's point is block 0
    e1, e2, witness = shared_witness
    other = ModelDataPair(e2.model, 0)
    assert reduce_to_mss(other).reduced.observed == 0
    assert verify_s_witness(e1, e2, witness)
    assert not verify_s_witness(e1, other, witness)


def test_s_shared_quotient_rejects_a_wrong_right_block_map(shared_witness):
    e1, e2, witness = shared_witness
    right = _with_block_map(e2, witness.right, (2, 1, 1, 0))
    assert not verify_s_witness(e1, e2, dataclasses.replace(witness, right=right))


def test_s_shared_quotient_rejects_wrong_right_factors(shared_witness):
    # the two factors of the merged block swapped: block sums still hold
    e1, e2, witness = shared_witness
    factors = (1, F(2, 5), F(3, 5), 1)
    assert not verify_s_witness(e1, e2, _with_right(witness, theta_free_factor=factors))


def test_s_shared_quotient_rejects_a_wrong_right_reduced_model(shared_witness):
    # the right reduced model is the left one with blocks 0 and 2 traded:
    # the bijection that trades them carries one onto the other, but the
    # right block sums fail
    e1, e2, witness = shared_witness
    model = witness.right.reduced.model
    rows = tuple((row[2], row[1], row[0]) for row in model.rows)
    reduced = ModelDataPair(dataclasses.replace(model, rows=rows), 1)
    forged = dataclasses.replace(
        _with_right(witness, reduced=reduced), bijection=(2, 1, 0)
    )
    assert certify._carries(witness.left.reduced, reduced, (2, 1, 0))
    assert not verify_s_witness(e1, e2, forged)


# ---------------------------------------------------------------------------
# C and Durbin-C certificates


@pytest.fixture
def fd_step(fd):
    """FIX-D observed at "1" and its conditional on the block {1, 2}."""
    parent = ModelDataPair(fd, 0)
    child = ModelDataPair(
        FiniteModel(fd.theta_labels, ("1", "2"), 3, ((1, 2), (2, 1))), 0
    )
    witness = c_related(parent, child)
    assert witness.ancillary == Partition.of(4, [[0, 1], [2, 3]])
    assert verify_c_witness(parent, child, witness)
    return parent, child, witness


def test_c_rejects_ancillary_that_misses_points(fd_step):
    # one balanced block, with the points 3 and 4 left out: a partition
    # of two points, not of the parent's four
    parent, child, witness = fd_step
    forged = dataclasses.replace(witness, ancillary=Partition((0, 0)))
    assert not verify_c_witness(parent, child, forged)


def test_c_rejects_overlapping_ancillary(fd_step):
    # overlapping blocks are no Partition; counting the shared point twice
    # gives a partition of five points, not of the parent's four
    parent, child, witness = fd_step
    with pytest.raises(LpLabError, match="not disjoint"):
        Partition.of(4, [[0, 1], [1, 2, 3]])
    forged = dataclasses.replace(
        witness, ancillary=Partition.of(5, [[0, 1], [2, 3, 4]])
    )
    assert not verify_c_witness(parent, child, forged)


def test_c_rejects_other_parameter_labels(fd_step):
    parent, child, witness = fd_step
    assert not verify_c_witness(parent, _relabeled_theta(child), witness)


def test_c_rejects_child_over_another_den(fd_step):
    # the child's integer rows, over a den they do not sum to
    parent, child, witness = fd_step
    model = dataclasses.replace(child.model, den=6)
    assert not verify_c_witness(parent, ModelDataPair(model, 0), witness)


def test_c_rejects_child_with_more_points(fd_step):
    # a third child point that no parameter reaches: rows and den agree
    parent, child, witness = fd_step
    bigger = ModelDataPair(_with_zero_point(child.model), 0)
    for phi in ((0, 1, 2), (0, 1)):
        forged = dataclasses.replace(witness, bijection=phi)
        assert not verify_c_witness(parent, bigger, forged)


def test_c_rejects_non_injective_bijection():
    # the points a and b have equal columns
    twins = validate_model(
        ["t1", "t2"], ["a", "b", "c"], [["1/4", "1/4", "1/2"], ["1/8", "1/8", "3/4"]]
    )
    pair = ModelDataPair(twins, 0)
    witness = c_related(pair, pair)
    assert verify_c_witness(pair, pair, witness)
    for phi in ((0, 0, 2), (1, 0, 2)):
        forged = dataclasses.replace(witness, bijection=phi)
        assert not verify_c_witness(pair, pair, forged)


def test_c_rejects_bijection_that_mismatches_columns(fa):
    # FIX-A's three columns differ; the observed point stays put
    pair = ModelDataPair(fa, 0)
    witness = c_related(pair, pair)
    assert verify_c_witness(pair, pair, witness)
    forged = dataclasses.replace(witness, bijection=(0, 2, 1))
    assert not verify_c_witness(pair, pair, forged)


def test_durbin_rejects_ancillary_that_cuts_a_likelihood_class(mixture_pairs):
    # the component indicator of the mixture cuts {1:y2, 2:z1}
    p1, _, e1, _ = mixture_pairs
    witness = c_related(p1, e1)
    assert verify_c_witness(p1, e1, witness)
    assert not verify_c_witness(p1, e1, witness, durbin=True)


def _three_theta_parent(b_column):
    """Points a, b, c, d over three parameters, with {a, c} and {b, d}
    balanced: a = (1, 0, 2) and b the given column."""
    s, t = 3, max(b_column) + 1  # the masses of {a, c} and {b, d}
    c = (s - 1, s, s - 2)
    d = tuple(t - v for v in b_column)
    rows = tuple(zip((1, 0, 2), b_column, c, d))
    model = FiniteModel(("t1", "t2", "t3"), ("a", "b", "c", "d"), s + t, rows)
    return ModelDataPair(model, 0)


@pytest.mark.parametrize(
    "b_column, durbin_holds",
    [((1, 0, 3), True), ((2, 0, 4), False)],
    ids=["102-vs-103", "102-vs-204"],
)
def test_durbin_tests_proportionality_with_zero_entries(b_column, durbin_holds):
    # (1, 0, 2) and (1, 0, 3) agree at their first entry and in their zero
    # pattern but are not proportional; (1, 0, 2) and (2, 0, 4) are
    parent = _three_theta_parent(b_column)
    ancillary = Partition.of(4, [[0, 2], [1, 3]])
    child = next(c for a, c in conditional_pairs(parent) if a == ancillary)
    witness = CWitness("first", ancillary, child, (0, 1))
    assert verify_c_witness(parent, child, witness)
    assert verify_c_witness(parent, child, witness, durbin=True) is durbin_holds
    assert (c_related(parent, child, durbin=True) is not None) is durbin_holds


def test_durbin_keeps_an_unreached_point_in_its_own_class():
    # a zero column is proportional to no other column
    parent = _three_theta_parent((1, 0, 3))
    model = _with_zero_point(parent.model)
    parent = ModelDataPair(model, 0)
    ancillary = Partition.of(5, [[0, 2], [1, 3, 4]])
    child = next(c for a, c in conditional_pairs(parent) if a == ancillary)
    witness = CWitness("first", ancillary, child, (0, 1))
    assert verify_c_witness(parent, child, witness, durbin=True)


# ---------------------------------------------------------------------------
# L certificates


def test_l_accepts_and_rejects_c(fb, fc, at):
    p, q = at(fb, "y2"), at(fc, "z1")
    c = l_related(p, q)
    assert c == F(3, 2) and verify_l_witness(p, q, c)
    assert verify_l_witness(q, p, 1 / c)
    for wrong in (F(2, 3), F(3, 4), F(-3, 2)):
        assert not verify_l_witness(p, q, wrong)


def test_l_rejects_non_positive_c(fb, fc, at):
    # every cross-product of a zero likelihood with c = 0 holds
    unreached = ModelDataPair(_with_zero_point(fb), 2)
    assert not verify_l_witness(unreached, at(fc, "z1"), F(0))


def test_l_rejects_other_parameter_labels(fb, at):
    p = at(fb, "y2")
    assert verify_l_witness(p, p, F(1))
    assert not verify_l_witness(p, _relabeled_theta(p), F(1))


# ---------------------------------------------------------------------------
# Every oracle witness on a universe


@pytest.fixture(scope="module")
def universe():
    return list(enumerate_pairs(2, 3, 3))


def test_certify_accepts_every_oracle_witness(universe):
    counts = dict.fromkeys(("C", "DURBIN", "S", "L"), 0)
    for p1 in universe:
        for p2 in universe:
            for kind, witness, check in (
                ("C", c_related(p1, p2), verify_c_witness),
                ("DURBIN", c_related(p1, p2, durbin=True), None),
                ("S", s_related(p1, p2), verify_s_witness),
                ("L", l_related(p1, p2), verify_l_witness),
            ):
                if witness is None:
                    continue
                counts[kind] += 1
                if check is None:
                    assert verify_c_witness(p1, p2, witness, durbin=True)
                else:
                    assert check(p1, p2, witness), (kind, p1, p2)
    # every pair is related to itself, and each kind implies L
    assert len(universe) <= counts["DURBIN"] < counts["C"] < counts["L"]
    assert len(universe) < counts["S"] < counts["L"]


def test_every_mixture_chain_on_the_universe_verifies(universe):
    # their S steps relate the two embedded points of one Birnbaum mixture,
    # and their C steps condition mixtures of up to six points
    chains = 0
    for i, p1 in enumerate(universe):
        for p2 in universe[i + 1 :]:
            if l_related(p1, p2) is None:
                continue
            assert verify_chain(birnbaum_chain(p1, p2)), (p1, p2)
            assert verify_chain(efm_parent(p1, p2).chain), (p1, p2)
            chains += 2
    assert chains > 100


def _renamed_blocks(witness):
    """Each S witness that renames one reduced point of ``witness``: on the
    left, on the right, and on both sides when they claim one quotient."""
    sides = [("left",), ("right",)]
    if witness.left == witness.right:
        sides.append(("left", "right"))
    for names in sides:
        result = getattr(witness, names[0])
        labels = result.reduced.model.sample_labels
        for i, label in enumerate(labels):
            renamed = labels[:i] + (label + "'",) + labels[i + 1 :]
            forged = _forged_reduced(result, labels=renamed)
            yield dataclasses.replace(witness, **dict.fromkeys(names, forged))


def test_certify_rejects_every_renamed_block(universe):
    # the Birnbaum S step of every L-related pair and, where S holds, the
    # pair's own S witness: each verifies, and no rename of one block does
    pairs = renames = 0
    for i, p1 in enumerate(universe):
        for p2 in universe[i + 1 :]:
            if l_related(p1, p2) is None:
                continue
            pairs += 1
            chain = birnbaum_chain(p1, p2)
            _, e1, e2, _ = chain.nodes
            certificates = [(e1, e2, chain.steps[1].witness)]
            witness = s_related(p1, p2)
            if witness is not None:
                certificates.append((p1, p2, witness))
            for q1, q2, witness in certificates:
                assert verify_s_witness(q1, q2, witness)
                for forged in _renamed_blocks(witness):
                    assert not verify_s_witness(q1, q2, forged), (p1, p2)
                    renames += 1
    # 939 Birnbaum reduced points, renamed on each side and on both, and
    # 161 renames of the S witnesses that s_related returns
    assert pairs == 299
    assert renames == 3 * 939 + 161


def test_certify_rejects_s_certificates_of_unrelated_pairs(universe):
    # any bijection between the true reductions of two L-related pairs
    # that S does not relate
    rejected = 0
    for i, p1 in enumerate(universe):
        for p2 in universe[i + 1 :]:
            if l_related(p1, p2) is None or s_related(p1, p2) is not None:
                continue
            r1, r2 = reduce_to_mss(p1), reduce_to_mss(p2)
            size = r1.reduced.model.n_points
            for phi in itertools.permutations(range(size)):
                assert not verify_s_witness(p1, p2, SWitness(r1, r2, phi))
                rejected += 1
    assert rejected > 0


def test_certify_rejects_c_certificates_of_unrelated_pairs(universe):
    # every true conditional of p1, with any bijection onto a p2 that C
    # does not relate to p1
    rejected = 0
    for p1 in universe:
        conditionals = conditional_pairs(p1)
        for p2 in universe:
            if c_related(p1, p2) is not None:
                continue
            for ancillary, cond in conditionals:
                if cond.model.n_points != p2.model.n_points:
                    continue
                for phi in itertools.permutations(range(cond.model.n_points)):
                    witness = CWitness("first", ancillary, cond, phi)
                    assert not verify_c_witness(p1, p2, witness)
                    rejected += 1
    assert rejected > 0


# ---------------------------------------------------------------------------
# Independence from the oracles


ALLOWED_IMPORTS = {(0, "__future__"), (0, "math"), (0, "fractions"), (1, "model"), (1, "partition")}
FORBIDDEN_NAMES = {
    "likelihoods", "probs", "_conditional", "balanced_blocks", "reduce_to_mss",
}


def _names(tree: ast.AST) -> set[str]:
    """Every identifier the module binds, reads or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.arg, ast.keyword)):
            names.add(node.arg)
    return names


def test_certify_imports_only_the_model_partition_and_arithmetic():
    tree = ast.parse(CERTIFY.read_text(encoding="utf-8"))
    imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports.update((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imports.add((node.level, node.module))
    assert (1, "model") in imports
    assert imports <= ALLOWED_IMPORTS


def test_certify_names_no_oracle_and_no_likelihood_decomposition():
    names = _names(ast.parse(CERTIFY.read_text(encoding="utf-8")))
    assert {"verify_c_witness", "verify_s_witness", "rows", "den"} <= names
    assert not names & FORBIDDEN_NAMES
    assert not [name for name in names if name.endswith("_related")]
