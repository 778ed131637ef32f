"""Field-by-field reference for the evidence calculus, for tests only.

Each function recomputes the posterior from the prior predictive, and
`reference_report` builds every field of an EvidenceReport by calling the
standalone functions again for each hypothesis. The library derives the
whole report from one posterior; differential tests compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from lp_lab.errors import (
    DegenerateHypothesis,
    EmptyHypothesis,
    ParameterSpaceMismatch,
    UnknownTheta,
)
from lp_lab.evidence import (
    Direction,
    EvidenceReport,
    HypothesisRecord,
    Prior,
)
from lp_lab.model import FiniteModel, ModelDataPair


def _check_match(model: FiniteModel, prior: Prior) -> None:
    if model.theta_labels != prior.theta_labels:
        raise ParameterSpaceMismatch(
            f"{model.theta_labels} vs {prior.theta_labels}"
        )


def prior_predictive(
    model: FiniteModel, prior: Prior
) -> tuple[Fraction, ...]:
    _check_match(model, prior)
    return tuple(
        sum(w * row[x] for w, row in zip(prior.weights, model.probs))
        for x in range(model.n_points)
    )


def posterior(pair: ModelDataPair, prior: Prior) -> tuple[Fraction, ...]:
    _check_match(pair.model, prior)
    m = prior_predictive(pair.model, prior)[pair.observed]
    return tuple(
        w * row[pair.observed] / m
        for w, row in zip(prior.weights, pair.model.probs)
    )


def relative_belief(
    pair: ModelDataPair, prior: Prior
) -> tuple[Fraction, ...]:
    post = posterior(pair, prior)
    return tuple(p / w for p, w in zip(post, prior.weights))


def _hypothesis_indices(prior: Prior, hypothesis: Sequence[str]) -> list[int]:
    indices = []
    for label in hypothesis:
        if label not in prior.theta_labels:
            raise UnknownTheta(f"unknown parameter label {label!r}")
        indices.append(prior.theta_labels.index(label))
    return sorted(set(indices))


def bayes_factor(
    pair: ModelDataPair, prior: Prior, hypothesis: Sequence[str]
) -> Optional[Fraction]:
    indices = _hypothesis_indices(prior, hypothesis)
    if not indices or len(indices) == len(prior.theta_labels):
        raise DegenerateHypothesis(
            "hypothesis must be a nonempty proper subset of the parameter space"
        )
    post = posterior(pair, prior)
    p_a = sum(prior.weights[i] for i in indices)
    q_a = sum(post[i] for i in indices)
    if q_a == 1:
        return None
    return (q_a / (1 - q_a)) / (p_a / (1 - p_a))


def evidence_direction(
    pair: ModelDataPair, prior: Prior, hypothesis: Sequence[str]
) -> Direction:
    indices = _hypothesis_indices(prior, hypothesis)
    if not indices:
        raise EmptyHypothesis("hypothesis must be nonempty")
    post = posterior(pair, prior)
    p_a = sum(prior.weights[i] for i in indices)
    q_a = sum(post[i] for i in indices)
    if q_a > p_a:
        return Direction.FOR
    if q_a < p_a:
        return Direction.AGAINST
    return Direction.NEUTRAL


def rb_estimate(pair: ModelDataPair, prior: Prior) -> set[str]:
    rb = relative_belief(pair, prior)
    best = max(rb)
    return {
        label for label, value in zip(prior.theta_labels, rb) if value == best
    }


def rb_strength(
    pair: ModelDataPair, prior: Prior, theta0: str
) -> Fraction:
    if theta0 not in prior.theta_labels:
        raise UnknownTheta(f"unknown parameter label {theta0!r}")
    rb = relative_belief(pair, prior)
    post = posterior(pair, prior)
    cutoff = rb[prior.theta_labels.index(theta0)]
    return sum(
        (p for p, value in zip(post, rb) if value <= cutoff),
        Fraction(0),
    )


def reference_report(
    pair: ModelDataPair,
    prior: Prior,
    hypotheses: Sequence[Sequence[str]] = (),
) -> EvidenceReport:
    m = prior_predictive(pair.model, prior)[pair.observed]
    post = posterior(pair, prior)
    rb = relative_belief(pair, prior)
    records = []
    for hypothesis in hypotheses:
        indices = _hypothesis_indices(prior, hypothesis)
        labels = tuple(prior.theta_labels[i] for i in indices)
        p_a = sum(prior.weights[i] for i in indices)
        q_a = sum(post[i] for i in indices)
        proper = 0 < len(indices) < len(prior.theta_labels)
        records.append(
            HypothesisRecord(
                labels,
                p_a,
                q_a,
                bayes_factor(pair, prior, labels) if proper else None,
                evidence_direction(pair, prior, labels),
                rb_strength(pair, prior, labels[0])
                if len(labels) == 1
                else None,
            )
        )
    return EvidenceReport(
        m,
        post,
        rb,
        tuple(sorted(rb_estimate(pair, prior))),
        tuple(records),
    )
