import random
from fractions import Fraction

import pytest

from lp_lab.errors import (
    DegenerateHypothesis,
    DuplicateLabel,
    GroundSetMismatch,
    LpLabError,
    NotAncillary,
    ParameterSpaceMismatch,
    UnknownTheta,
    UnreachablePoint,
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
from lp_lab.model import FiniteModel, ModelDataPair, validate_model
from lp_lab.partition import Partition
from lp_lab.relations import (
    RelationKind,
    Universe,
    birnbaum_chain,
    efm_parent,
    l_class_pairs,
    related,
)
from lp_lab.search import enumerate_pairs
from evidence_reference import uniform_prior
from model_reference import likelihood_vector
from random_models import random_pair, random_prior

F = Fraction


def test_prior_requires_positive_weights_summing_to_one():
    with pytest.raises(LpLabError, match="strictly positive"):
        Prior.of(["t1", "t2"], ["1", "0"])
    with pytest.raises(LpLabError, match="strictly positive"):
        Prior.of(["t1", "t2"], ["-1", "2"])
    with pytest.raises(LpLabError, match="sum to exactly 1"):
        Prior.of(["t1", "t2"], ["1/2", "1/3"])
    with pytest.raises(LpLabError, match="sum to exactly 1"):
        Prior((), ())


def test_prior_scaled_holds_weights_over_their_least_common_denominator():
    assert Prior.of(["t1", "t2", "t3"], ["1/6", "2/6", "1/2"]).scaled == (
        6,
        (1, 2, 3),
    )
    assert Prior(("t1",), (1,)).scaled == (1, (1,))


@pytest.mark.parametrize("weight", [0.5, "1/2", None])
def test_prior_refuses_weights_that_are_not_int_or_fraction(weight):
    with pytest.raises(TypeError, match="floating point"):
        Prior(("t1", "t2"), (weight, weight))
    with pytest.raises(TypeError, match="floating point"):
        Prior(("t1", "t2"), (F(1, 2), weight))


def test_prior_of_refuses_floats_as_parse_rational_does():
    with pytest.raises(TypeError, match="floating point"):
        Prior.of(["t1", "t2"], [0.5, 0.5])


def test_integer_weight_gives_fractions():
    m = validate_model(["t1"], ["a", "b"], [["1/3", "2/3"]])
    report = evidence_report(ModelDataPair(m, 0), Prior(("t1",), (1,)))
    assert repr(report.posterior) == "(Fraction(1, 1),)"
    assert repr(report.rb) == "(Fraction(1, 1),)"
    assert repr(report.prior_predictive_at_data) == "Fraction(1, 3)"


def test_prior_refuses_duplicate_labels():
    with pytest.raises(DuplicateLabel, match="duplicate parameter labels"):
        Prior(("t1", "t1"), (F(1, 2), F(1, 2)))
    with pytest.raises(DuplicateLabel, match="duplicate parameter labels"):
        Prior.of(["t1", "t2", "t1"], ["1/3", "1/3", "1/3"])


def test_prior_errors_keep_their_order():
    # lengths, then labels, then weight types, then positivity
    with pytest.raises(ParameterSpaceMismatch):
        Prior(("t1", "t1"), (0.5,))
    with pytest.raises(DuplicateLabel):
        Prior(("t1", "t1"), (0.5, 0.5))
    with pytest.raises(TypeError):
        Prior(("t1", "t2"), (F(-1), 0.5))
    with pytest.raises(LpLabError, match="strictly positive"):
        Prior.of(["t1", "t2"], ["0", "1/2"])


def test_prior_predictive_fix_b(fb, fe):
    assert prior_predictive(fb, fe) == (F(3, 8), F(5, 8))


def test_prior_predictive_theta_constant_model():
    m = validate_model(
        ["t1", "t2"], ["a", "b"], [["1/3", "2/3"], ["1/3", "2/3"]]
    )
    assert prior_predictive(m, uniform_prior(["t1", "t2"])) == (F(1, 3), F(2, 3))


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
    assert bayes_factor(ModelDataPair(m, 0), uniform_prior(["t1", "t2"]), ["t1"]) == 1


def test_bayes_factor_infinite():
    m = validate_model(["t1", "t2"], ["a", "b"], [["1", "0"], ["0", "1"]])
    assert bayes_factor(ModelDataPair(m, 0), uniform_prior(["t1", "t2"]), ["t1"]) is None


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
    assert rb_estimate(ModelDataPair(m, 0), uniform_prior(["t1", "t2"])) == {"t1", "t2"}


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


@pytest.mark.parametrize("rows", [((1, 1, 0), (1, 1, 0)), ((1, 1, 0), (2, 0, 0))])
def test_model_checks_refuse_an_unreachable_point(rows):
    # a model built without validate_model may give a point zero mass under
    # every parameter; both checks meet it in the model the statistic
    # induces, before ancillarity is tested
    m = FiniteModel(("t1", "t2"), ("a", "b", "c"), 2, rows)
    with pytest.raises(UnreachablePoint):
        check_model_mss(ModelDataPair(m, 0))
    with pytest.raises(UnreachablePoint):
        check_model_ancillary(ModelDataPair(m, 0), Partition.discrete(3))


def test_check_prior_conflict(fb, fe, at):
    assert check_prior_conflict(at(fb, "y1"), fe) == F(3, 8)
    assert check_prior_conflict(at(fb, "y2"), fe) == 1


def test_check_prior_conflict_one_point_model():
    m = validate_model(["t1", "t2"], ["o"], [["1"], ["1"]])
    assert check_prior_conflict(ModelDataPair(m, 0), uniform_prior(["t1", "t2"])) == 1


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


def test_which_checks_respect_which_relation_on_the_2_3_3_grid():
    """Two lemmas, and how far each check follows S, C, Durbin-C and L.

    - ``check_prior_conflict`` reads only the prior predictive of the
      minimal sufficient statistic. S-related pairs have isomorphic
      reductions, with the observed classes matched, so the check is
      S-invariant.
    - ``check_model_mss`` reads the conditional of the data given the MSS.
      A Durbin block is a union of likelihood classes, and conditioning on
      it leaves that conditional unchanged, so the check is
      Durbin-C-invariant.

    Over the 56 members of the (2,3,3) grid, with the prior (1/3, 2/3),
    each row counts the related pairs i < j of one L class and in how many
    the two p-values are equal. The prior-conflict check follows S and
    breaks C; the MSS model check follows Durbin-C and breaks S; neither
    follows L. The lemmas hold on any universe; the counts are facts of
    this grid only.
    """
    grid = Universe.of(enumerate_pairs(2, 3, 3)).members
    assert len(grid) == 56
    prior = Prior.of(["t1", "t2"], ["1/3", "2/3"])
    conflict = [check_prior_conflict(p, prior) for p in grid]
    model = [check_model_mss(p) for p in grid]
    table = {}
    for kind in (RelationKind.S, RelationKind.C, RelationKind.DURBIN_C, RelationKind.L):
        pairs = [
            (i, j)
            for i, j in l_class_pairs(grid)
            if related(grid[i], grid[j], kind) is not None
        ]
        table[kind.value] = (
            len(pairs),
            sum(conflict[i] == conflict[j] for i, j in pairs),
            sum(model[i] == model[j] for i, j in pairs),
        )
    assert table == {
        "S": (44, 44, 30),
        "C": (20, 10, 19),
        "DURBIN": (15, 5, 15),
        "L": (299, 91, 260),
    }


def test_which_link_of_birnbaums_chain_breaks_which_check():
    """Mayo's objection, link by link, over the 299 L-related pairs i < j
    of the (2,3,3) grid with the prior (1/3, 2/3): in how many links each
    value changes, as (prior-conflict p-value, MSS model-check p-value,
    posterior).

    The prior-conflict check changes only at C links, since it is
    S-invariant; the MSS model check changes at Birnbaum's S link too,
    between two observations of one mixture that share their reduction;
    the posterior never changes along a chain, as L says it must not. The
    counts are facts of this grid only.
    """
    grid = Universe.of(enumerate_pairs(2, 3, 3)).members
    prior = Prior.of(["t1", "t2"], ["1/3", "2/3"])

    def values(pair):
        return (
            check_prior_conflict(pair, prior),
            check_model_mss(pair),
            posterior(pair, prior),
        )

    links = {
        "birnbaum C to (1,x1)": [0, 0, 0],
        "birnbaum S": [0, 0, 0],
        "birnbaum C from (2,x2)": [0, 0, 0],
        "efm p1 to parent": [0, 0, 0],
        "efm parent to p2": [0, 0, 0],
        "chain ends": [0, 0, 0],
    }
    pairs = list(l_class_pairs(grid))
    for i, j in pairs:
        p1, p2 = grid[i], grid[j]
        birnbaum = birnbaum_chain(p1, p2).nodes
        efm = efm_parent(p1, p2).chain.nodes
        steps = [*zip(birnbaum, birnbaum[1:]), *zip(efm, efm[1:]), (p1, p2)]
        for name, (a, b) in zip(links, steps):
            for k, (u, v) in enumerate(zip(values(a), values(b))):
                links[name][k] += u != v
    assert len(pairs) == 299
    assert links == {
        "birnbaum C to (1,x1)": [174, 100, 0],
        "birnbaum S": [0, 225, 0],
        "birnbaum C from (2,x2)": [177, 158, 0],
        "efm p1 to parent": [178, 39, 0],
        "efm parent to p2": [186, 39, 0],
        "chain ends": [208, 39, 0],
    }
