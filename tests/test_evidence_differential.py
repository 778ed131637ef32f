"""The evidence calculus against the field-by-field reference.

Inputs: every pair of two enumerated universes (two and three parameter
values), under a uniform and a skewed prior, with every nonempty hypothesis;
the prior predictive and both MSS model checks over the same pairs, and
the ancillary check at every partition of each pair's sample space and
at partitions of other sizes.
Values are compared by equality and by repr, so a Fraction turning into an
int (which would render differently in --machine output) is caught too.
"""

import itertools
from fractions import Fraction

import pytest

import evidence_reference as ref
from lp_lab import evidence
from lp_lab.errors import (
    DegenerateHypothesis,
    EmptyHypothesis,
    GroundSetMismatch,
    LpLabError,
    NotAncillary,
    ParameterSpaceMismatch,
    UnknownTheta,
)
from lp_lab.evidence import Prior, evidence_report
from lp_lab.partition import Partition, all_partitions
from lp_lab.search import enumerate_pairs

# (theta_size, max_space, max_denominator) -> pairs in the universe
UNIVERSES = {(2, 3, 3): 56, (3, 3, 2): 98}


def _priors(labels):
    n = len(labels)
    skewed = [Fraction(k, n * (n + 1) // 2) for k in range(1, n + 1)]
    return [ref.uniform_prior(labels), Prior.of(labels, skewed)]


def _hypotheses(labels):
    return [
        list(subset)
        for size in range(1, len(labels) + 1)
        for subset in itertools.combinations(labels, size)
    ]


def _cases(bounds):
    pairs = list(enumerate_pairs(*bounds))
    assert len(pairs) == UNIVERSES[bounds]
    for pair in pairs:
        for prior in _priors(pair.model.theta_labels):
            yield pair, prior


def _same(got, want):
    assert got == want
    assert repr(got) == repr(want)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LpLabError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("bounds", UNIVERSES)
def test_report_matches_reference(bounds):
    for pair, prior in _cases(bounds):
        hypotheses = _hypotheses(prior.theta_labels)
        report = evidence_report(pair, prior, hypotheses)
        _same(report, ref.reference_report(pair, prior, hypotheses))


@pytest.mark.parametrize("bounds", UNIVERSES)
def test_standalone_functions_match_reference(bounds):
    for pair, prior in _cases(bounds):
        for name in ("posterior", "relative_belief", "rb_estimate"):
            _same(
                getattr(evidence, name)(pair, prior),
                getattr(ref, name)(pair, prior),
            )
        for theta in prior.theta_labels:
            _same(
                evidence.rb_strength(pair, prior, theta),
                ref.rb_strength(pair, prior, theta),
            )
        for hypothesis in _hypotheses(prior.theta_labels):
            for name in ("bayes_factor", "evidence_direction"):
                _same(
                    _outcome(getattr(evidence, name), pair, prior, hypothesis),
                    _outcome(getattr(ref, name), pair, prior, hypothesis),
                )


@pytest.mark.parametrize("bounds", UNIVERSES)
def test_model_checks_match_reference(bounds):
    for pair, prior in _cases(bounds):
        _same(
            evidence.prior_predictive(pair.model, prior),
            ref.prior_predictive(pair.model, prior),
        )
        _same(
            evidence.check_prior_conflict(pair, prior),
            ref.check_prior_conflict(pair, prior),
        )
        _same(evidence.check_model_mss(pair), ref.check_model_mss(pair))


@pytest.mark.parametrize("bounds", UNIVERSES)
def test_ancillary_check_matches_reference(bounds):
    # every partition of the sample space, and partitions of other sizes,
    # which are refused before ancillarity is tested
    outcomes = set()
    for pair in enumerate_pairs(*bounds):
        n = pair.model.n_points
        others = [Partition.discrete(n - 1), Partition.trivial(n + 1)]
        for partition in [*all_partitions(n), *others]:
            got = _outcome(evidence.check_model_ancillary, pair, partition)
            _same(got, _outcome(ref.check_model_ancillary, pair, partition))
            outcomes.add(got[0] if isinstance(got, tuple) else Fraction)
    assert outcomes == {Fraction, NotAncillary, GroundSetMismatch}


def test_errors_match_reference():
    pairs = list(enumerate_pairs(2, 3, 3))[:8]
    for pair in pairs:
        labels = pair.model.theta_labels
        prior = ref.uniform_prior(labels)
        foreign = ref.uniform_prior(["u", "v"])
        whole = list(labels)
        for hypothesis in (["zz"], [labels[0], "zz"], [], whole):
            for name in ("bayes_factor", "evidence_direction"):
                _same(
                    _outcome(getattr(evidence, name), pair, prior, hypothesis),
                    _outcome(getattr(ref, name), pair, prior, hypothesis),
                )
            _same(
                _outcome(evidence_report, pair, prior, [hypothesis]),
                _outcome(ref.reference_report, pair, prior, [hypothesis]),
            )
        _same(
            _outcome(evidence.rb_strength, pair, prior, "zz"),
            _outcome(ref.rb_strength, pair, prior, "zz"),
        )
        # an unknown label is refused before the parameter spaces are compared
        _same(
            _outcome(evidence.rb_strength, pair, foreign, "zz"),
            _outcome(ref.rb_strength, pair, foreign, "zz"),
        )
        assert _outcome(evidence.rb_strength, pair, foreign, "zz")[0] is UnknownTheta
        for name in ("posterior", "relative_belief", "rb_estimate"):
            _same(
                _outcome(getattr(evidence, name), pair, foreign),
                _outcome(getattr(ref, name), pair, foreign),
            )
        _same(
            _outcome(evidence_report, pair, foreign, [whole]),
            _outcome(ref.reference_report, pair, foreign, [whole]),
        )
        _same(
            _outcome(evidence.prior_predictive, pair.model, foreign),
            _outcome(ref.prior_predictive, pair.model, foreign),
        )
        _same(
            _outcome(evidence.check_prior_conflict, pair, foreign),
            _outcome(ref.check_prior_conflict, pair, foreign),
        )


def test_error_cases_raise_the_documented_errors():
    pair = next(enumerate_pairs(2, 3, 3))
    labels = list(pair.model.theta_labels)
    prior = ref.uniform_prior(labels)
    with pytest.raises(UnknownTheta):
        evidence_report(pair, prior, [["zz"]])
    with pytest.raises(UnknownTheta):
        evidence.rb_strength(pair, prior, "zz")
    with pytest.raises(EmptyHypothesis):
        evidence_report(pair, prior, [[]])
    for degenerate in ([], labels):
        with pytest.raises(DegenerateHypothesis):
            evidence.bayes_factor(pair, prior, degenerate)
    whole = evidence_report(pair, prior, [labels]).hypotheses[0]
    assert whole.bayes_factor is None and whole.posterior_probability == 1
    with pytest.raises(ParameterSpaceMismatch):
        evidence_report(pair, ref.uniform_prior(["u", "v"]))
