import random
from fractions import Fraction

import pytest

from lp_lab.errors import (
    DegenerateHypothesis,
    GroundSetMismatch,
    LpLabError,
    NotAncillary,
    UnknownTheta,
)
from lp_lab.evidence import (
    Direction,
    Prior,
    bayes_factor,
    check_model_ancillary,
    check_model_mss,
    check_prior_conflict,
    evidence_direction,
    evidence_report,
    posterior,
    prior_predictive,
    rb_estimate,
    rb_strength,
    relative_belief,
)
from lp_lab.generate import random_pair, random_prior
from lp_lab.model import ModelDataPair, likelihood_vector, validate_model
from lp_lab.partition import Partition

F = Fraction


def test_prior_requires_positive_weights_summing_to_one():
    with pytest.raises(LpLabError):
        Prior.of(["t1", "t2"], ["1", "0"])
    with pytest.raises(LpLabError):
        Prior.of(["t1", "t2"], ["1/2", "1/3"])


def test_prior_predictive_fix_b(fb, fe):
    assert prior_predictive(fb, fe) == (F(3, 8), F(5, 8))


def test_prior_predictive_theta_constant_model():
    m = validate_model(
        ["t1", "t2"], ["a", "b"], [["1/3", "2/3"], ["1/3", "2/3"]]
    )
    assert prior_predictive(m, Prior.uniform(["t1", "t2"])) == (F(1, 3), F(2, 3))


def test_posterior_fixtures(fb, fe, at):
    assert posterior(at(fb, "y1"), fe) == (F(2, 3), F(1, 3))
    assert posterior(at(fb, "y2"), fe) == (F(2, 5), F(3, 5))


def test_posterior_no_information():
    m = validate_model(
        ["t1", "t2"], ["a", "b"], [["1/3", "2/3"], ["1/3", "2/3"]]
    )
    prior = Prior.of(["t1", "t2"], ["1/4", "3/4"])
    assert posterior(ModelDataPair(m, 0), prior) == prior.weights


def test_relative_belief_fixtures(fb, fe, at):
    assert relative_belief(at(fb, "y1"), fe) == (F(4, 3), F(2, 3))
    assert relative_belief(at(fb, "y2"), fe) == (F(4, 5), F(6, 5))


def test_rb_conservation_identity(fb, fe, at):
    rb = relative_belief(at(fb, "y1"), fe)
    assert sum(w * r for w, r in zip(fe.weights, rb)) == 1


def test_bayes_factor_fixtures(fb, fe, at):
    assert bayes_factor(at(fb, "y1"), fe, ["t1"]) == 2
    with pytest.raises(DegenerateHypothesis):
        bayes_factor(at(fb, "y1"), fe, ["t1", "t2"])


def test_bayes_factor_one_for_theta_constant():
    m = validate_model(
        ["t1", "t2"], ["a", "b"], [["1/3", "2/3"], ["1/3", "2/3"]]
    )
    assert bayes_factor(ModelDataPair(m, 0), Prior.uniform(["t1", "t2"]), ["t1"]) == 1


def test_bayes_factor_infinite():
    m = validate_model(["t1", "t2"], ["a", "b"], [["1", "0"], ["0", "1"]])
    assert bayes_factor(ModelDataPair(m, 0), Prior.uniform(["t1", "t2"]), ["t1"]) is None


def test_evidence_direction(fb, fe, at):
    assert evidence_direction(at(fb, "y1"), fe, ["t1"]) is Direction.FOR
    assert evidence_direction(at(fb, "y1"), fe, ["t2"]) is Direction.AGAINST
    assert evidence_direction(at(fb, "y1"), fe, ["t1", "t2"]) is Direction.NEUTRAL


def test_rb_estimate(fb, fe, at):
    assert rb_estimate(at(fb, "y1"), fe) == {"t1"}
    assert rb_estimate(at(fb, "y2"), fe) == {"t2"}


def test_rb_estimate_ties_kept():
    m = validate_model(
        ["t1", "t2"], ["a", "b"], [["1/3", "2/3"], ["1/3", "2/3"]]
    )
    assert rb_estimate(ModelDataPair(m, 0), Prior.uniform(["t1", "t2"])) == {"t1", "t2"}


def test_rb_strength(fb, fe, at):
    assert rb_strength(at(fb, "y1"), fe, "t2") == F(1, 3)
    assert rb_strength(at(fb, "y1"), fe, "t1") == 1
    with pytest.raises(UnknownTheta):
        rb_strength(at(fb, "y1"), fe, "t9")


def test_check_model_mss(fa, at):
    assert check_model_mss(at(fa, "x1")) == F(1, 3)
    assert check_model_mss(at(fa, "x2")) == 1
    assert check_model_mss(at(fa, "x3")) == 1


def test_check_model_ancillary(fd):
    p = check_model_ancillary(
        ModelDataPair(fd, 0), Partition.of(4, [[0, 1], [2, 3]])
    )
    assert p == 1
    assert check_model_ancillary(ModelDataPair(fd, 0), Partition.trivial(4)) == 1
    with pytest.raises(NotAncillary):
        check_model_ancillary(ModelDataPair(fd, 0), Partition.of(4, [[0, 2], [1, 3]]))


@pytest.mark.parametrize("size", [2, 5])
def test_check_model_ancillary_refuses_another_ground_set(fd, size):
    with pytest.raises(GroundSetMismatch):
        check_model_ancillary(ModelDataPair(fd, 0), Partition.trivial(size))


def test_check_model_ancillary_tail():
    m = validate_model(
        ["t1", "t2"],
        ["a", "b", "c"],
        [["1/6", "1/3", "1/2"], ["1/6", "1/3", "1/2"]],
    )
    p = check_model_ancillary(ModelDataPair(m, 0), Partition.discrete(3))
    assert p == F(1, 6)


def test_check_prior_conflict(fb, fe, at):
    assert check_prior_conflict(at(fb, "y1"), fe) == F(3, 8)
    assert check_prior_conflict(at(fb, "y2"), fe) == 1


def test_check_prior_conflict_one_point_model():
    m = validate_model(["t1", "t2"], ["o"], [["1"], ["1"]])
    assert check_prior_conflict(ModelDataPair(m, 0), Prior.uniform(["t1", "t2"])) == 1


def test_conservation_and_coherence_random():
    rng = random.Random(42)
    for _ in range(200):
        pair = random_pair(rng, rng.randint(2, 3), rng.randint(2, 4), 12)
        prior = random_prior(rng, pair.model.theta_labels)
        rb = relative_belief(pair, prior)
        post = posterior(pair, prior)
        m = prior_predictive(pair.model, prior)[pair.observed]
        assert sum(w * r for w, r in zip(prior.weights, rb)) == 1
        assert rb == tuple(f / m for f in likelihood_vector(pair))
        for i, label in enumerate(prior.theta_labels):
            bf = bayes_factor(pair, prior, [label])
            delta_rb = rb[i] - 1
            delta_p = post[i] - prior.weights[i]
            delta_bf = 1 if bf is None else bf - 1
            assert (delta_rb > 0) == (delta_p > 0) == (delta_bf > 0)
            assert (delta_rb == 0) == (delta_p == 0) == (delta_bf == 0)


def test_evidence_report_round_up(fb, fe, at):
    report = evidence_report(at(fb, "y1"), fe, [["t1"]])
    assert report.prior_predictive_at_data == F(3, 8)
    assert report.estimate == ("t1",)
    record = report.hypotheses[0]
    assert record.bayes_factor == 2
    assert record.direction is Direction.FOR
    assert record.strength == 1
