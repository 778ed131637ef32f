"""Relative-belief evidence calculus on finite models: posterior, relative
belief ratio, Bayes factor, direction and strength of evidence, plus model
checking and prior-data conflict checking. All quantities are exact."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .ancillarity import block_masses
from .errors import (
    DegenerateHypothesis,
    EmptyHypothesis,
    LpLabError,
    NotAncillary,
    ParameterSpaceMismatch,
    UnknownTheta,
)
from .model import (
    FiniteModel,
    ModelDataPair,
    check_same_theta,
    parse_rational,
)
from .partition import Partition
from .sufficiency import reduce_to_mss


@dataclass(frozen=True)
class Prior:
    """Strictly positive prior weights on a parameter space, summing to 1."""

    theta_labels: tuple[str, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.theta_labels) != len(self.weights):
            raise ParameterSpaceMismatch(
                f"{len(self.theta_labels)} labels, {len(self.weights)} weights"
            )
        if any(w <= 0 for w in self.weights):
            raise LpLabError("prior weights must be strictly positive")
        if sum(self.weights) != 1:
            raise LpLabError("prior weights must sum to exactly 1")

    @staticmethod
    def of(theta_labels: Sequence[str], weights: Sequence) -> "Prior":
        return Prior(
            tuple(str(t) for t in theta_labels),
            tuple(parse_rational(w) for w in weights),
        )

    @staticmethod
    def uniform(theta_labels: Sequence[str]) -> "Prior":
        n = len(theta_labels)
        return Prior.of(theta_labels, [Fraction(1, n)] * n)

    def index_of(self, label: str) -> int:
        """Position of a parameter label; UnknownTheta if it is not one."""
        if label not in self.theta_labels:
            raise UnknownTheta(f"unknown parameter label {label!r}")
        return self.theta_labels.index(label)


class Direction(enum.Enum):
    FOR = "for"
    AGAINST = "against"
    NEUTRAL = "neutral"


def _joint(model: FiniteModel, prior: Prior, x: int) -> list[Fraction]:
    """pi(theta) f_theta(x) for each theta; the entries sum to m(x)."""
    den = model.den
    return [w * Fraction(row[x], den) for w, row in zip(prior.weights, model.rows)]


def _bayes(
    pair: ModelDataPair, prior: Prior
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """m(x_obs) and the posterior, from the column of the observed point."""
    check_same_theta(pair.model.theta_labels, prior.theta_labels)
    joint = _joint(pair.model, prior, pair.observed)
    m = sum(joint)
    return m, tuple(j / m for j in joint)


def _ratios(post: Sequence[Fraction], prior: Prior) -> tuple[Fraction, ...]:
    return tuple(p / w for p, w in zip(post, prior.weights))


def _masses(
    post: Sequence[Fraction], prior: Prior, indices: Sequence[int]
) -> tuple[Fraction, Fraction]:
    """Prior and posterior probability of the hypothesis at ``indices``."""
    return (
        sum(prior.weights[i] for i in indices),
        sum(post[i] for i in indices),
    )


def _odds_ratio(p_a: Fraction, q_a: Fraction) -> Optional[Fraction]:
    if q_a == 1:
        return None
    return (q_a / (1 - q_a)) / (p_a / (1 - p_a))


def _direction(p_a: Fraction, q_a: Fraction) -> Direction:
    if q_a > p_a:
        return Direction.FOR
    if q_a < p_a:
        return Direction.AGAINST
    return Direction.NEUTRAL


def _tail(
    probs: Sequence[Fraction], scores: Sequence[Fraction], cutoff: Fraction
) -> Fraction:
    """Total probability of the outcomes scoring no more than ``cutoff``."""
    return sum(
        (p for p, score in zip(probs, scores) if score <= cutoff), Fraction(0)
    )


def _estimate(labels: Sequence[str], rb: Sequence[Fraction]) -> set[str]:
    best = max(rb)
    return {label for label, value in zip(labels, rb) if value == best}


def prior_predictive(
    model: FiniteModel, prior: Prior
) -> tuple[Fraction, ...]:
    """m(x) = sum_theta pi(theta) f_theta(x); entries sum to 1."""
    check_same_theta(model.theta_labels, prior.theta_labels)
    return tuple(
        sum(_joint(model, prior, x)) for x in range(model.n_points)
    )


def posterior(pair: ModelDataPair, prior: Prior) -> tuple[Fraction, ...]:
    """pi(theta | x) over the parameter space; sums to 1 exactly."""
    return _bayes(pair, prior)[1]


def relative_belief(
    pair: ModelDataPair, prior: Prior
) -> tuple[Fraction, ...]:
    """RB(theta | x) = posterior / prior = f_theta(x) / m(x)."""
    return _ratios(posterior(pair, prior), prior)


def _hypothesis_indices(prior: Prior, hypothesis: Sequence[str]) -> list[int]:
    return sorted({prior.index_of(label) for label in hypothesis})


def bayes_factor(
    pair: ModelDataPair, prior: Prior, hypothesis: Sequence[str]
) -> Optional[Fraction]:
    """Posterior odds over prior odds of the hypothesis.

    Returns None when the posterior odds are infinite (the complement has
    posterior probability zero).
    """
    indices = _hypothesis_indices(prior, hypothesis)
    if not indices or len(indices) == len(prior.theta_labels):
        raise DegenerateHypothesis(
            "hypothesis must be a nonempty proper subset of the parameter space"
        )
    return _odds_ratio(*_masses(posterior(pair, prior), prior, indices))


def evidence_direction(
    pair: ModelDataPair, prior: Prior, hypothesis: Sequence[str]
) -> Direction:
    """Exact three-way comparison of posterior and prior probability."""
    indices = _hypothesis_indices(prior, hypothesis)
    if not indices:
        raise EmptyHypothesis("hypothesis must be nonempty")
    return _direction(*_masses(posterior(pair, prior), prior, indices))


def rb_estimate(pair: ModelDataPair, prior: Prior) -> set[str]:
    """Parameter values maximizing the relative belief ratio; ties kept."""
    return _estimate(prior.theta_labels, relative_belief(pair, prior))


def rb_strength(
    pair: ModelDataPair, prior: Prior, theta0: str
) -> Fraction:
    """Posterior probability of {theta : RB(theta|x) <= RB(theta0|x)}.

    Small values mean the evidence for theta0 is weak even when its
    relative belief ratio exceeds 1.
    """
    index = prior.index_of(theta0)
    post = posterior(pair, prior)
    rb = _ratios(post, prior)
    return _tail(post, rb, rb[index])


def check_model_mss(pair: ModelDataPair) -> Fraction:
    """Exact tail probability of the data given the minimal sufficient value.

    The conditional distribution within the observed MSS block is
    parameter-free (carried by the reduction's theta-free factors); the
    returned value sums the conditional probabilities no larger than the
    observed one.
    """
    reduction = reduce_to_mss(pair)
    factors, block_map = reduction.theta_free_factor, reduction.block_map
    b = block_map[pair.observed]
    q = [h for h, block in zip(factors, block_map) if block == b]
    return _tail(q, q, factors[pair.observed])


def check_model_ancillary(
    pair: ModelDataPair, ancillary: Partition
) -> Fraction:
    """Exact tail probability of the ancillary at its observed value."""
    masses = block_masses(pair.model, ancillary)
    if masses is None:
        raise NotAncillary("partition has parameter-dependent block masses")
    return _tail(masses, masses, masses[ancillary.block_index_of(pair.observed)])


def check_prior_conflict(pair: ModelDataPair, prior: Prior) -> Fraction:
    """Tail probability of the prior predictive of the MSS at its observed
    value; small values signal prior-data conflict."""
    reduction = reduce_to_mss(pair)
    reduced = reduction.reduced
    m = prior_predictive(reduced.model, prior)
    return _tail(m, m, m[reduced.observed])


@dataclass(frozen=True)
class HypothesisRecord:
    hypothesis: tuple[str, ...]
    prior_probability: Fraction
    posterior_probability: Fraction
    bayes_factor: Optional[Fraction]
    direction: Direction
    strength: Optional[Fraction]


@dataclass(frozen=True)
class EvidenceReport:
    prior_predictive_at_data: Fraction
    posterior: tuple[Fraction, ...]
    rb: tuple[Fraction, ...]
    estimate: tuple[str, ...]
    hypotheses: tuple[HypothesisRecord, ...]

    def strength(self, index: int) -> Fraction:
        """rb_strength of the parameter value at ``index``."""
        return _tail(self.posterior, self.rb, self.rb[index])


def evidence_report(
    pair: ModelDataPair,
    prior: Prior,
    hypotheses: Sequence[Sequence[str]] = (),
) -> EvidenceReport:
    """Full evidence summary for a pair, a prior and optional hypotheses.

    The posterior is computed once; every other field is derived from it.
    """
    m, post = _bayes(pair, prior)
    rb = _ratios(post, prior)
    records = []
    for hypothesis in hypotheses:
        indices = _hypothesis_indices(prior, hypothesis)
        if not indices:
            raise EmptyHypothesis("hypothesis must be nonempty")
        p_a, q_a = _masses(post, prior, indices)
        proper = len(indices) < len(prior.theta_labels)
        records.append(
            HypothesisRecord(
                tuple(prior.theta_labels[i] for i in indices),
                p_a,
                q_a,
                _odds_ratio(p_a, q_a) if proper else None,
                _direction(p_a, q_a),
                _tail(post, rb, rb[indices[0]]) if len(indices) == 1 else None,
            )
        )
    return EvidenceReport(
        m,
        post,
        rb,
        tuple(sorted(_estimate(prior.theta_labels, rb))),
        tuple(records),
    )
