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

    def index_of(self, label: str) -> int:
        """Position of a parameter label; UnknownTheta if it is not one."""
        if label not in self.theta_labels:
            raise UnknownTheta(f"unknown parameter label {label!r}")
        return self.theta_labels.index(label)


class Direction(enum.Enum):
    FOR = "for"
    AGAINST = "against"
    NEUTRAL = "neutral"


def _tail(
    probs: Sequence[Fraction], scores: Sequence[Fraction], cutoff: Fraction
) -> Fraction:
    """Total probability of the outcomes scoring no more than ``cutoff``."""
    return sum(
        (p for p, score in zip(probs, scores) if score <= cutoff), Fraction(0)
    )


def _hypothesis_indices(prior: Prior, hypothesis: Sequence[str]) -> list[int]:
    return sorted({prior.index_of(label) for label in hypothesis})


def prior_predictive(
    model: FiniteModel, prior: Prior
) -> tuple[Fraction, ...]:
    """m(x) = sum_theta pi(theta) f_theta(x); entries sum to 1."""
    check_same_theta(model.theta_labels, prior.theta_labels)
    return tuple(
        g * sum(w * v for w, v in zip(prior.weights, k)) / model.den
        for g, k in model.likelihoods
    )


def posterior(pair: ModelDataPair, prior: Prior) -> tuple[Fraction, ...]:
    """pi(theta | x) over the parameter space; sums to 1 exactly."""
    return evidence_report(pair, prior).posterior


def relative_belief(
    pair: ModelDataPair, prior: Prior
) -> tuple[Fraction, ...]:
    """RB(theta | x) = posterior / prior = f_theta(x) / m(x)."""
    return evidence_report(pair, prior).rb


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
    return evidence_report(pair, prior, [hypothesis]).hypotheses[0].bayes_factor


def evidence_direction(
    pair: ModelDataPair, prior: Prior, hypothesis: Sequence[str]
) -> Direction:
    """Exact three-way comparison of posterior and prior probability."""
    # the hypothesis is checked before the parameter spaces are compared
    if not _hypothesis_indices(prior, hypothesis):
        raise EmptyHypothesis("hypothesis must be nonempty")
    return evidence_report(pair, prior, [hypothesis]).hypotheses[0].direction


def rb_estimate(pair: ModelDataPair, prior: Prior) -> set[str]:
    """Parameter values maximizing the relative belief ratio; ties kept."""
    return set(evidence_report(pair, prior).estimate)


def rb_strength(
    pair: ModelDataPair, prior: Prior, theta0: str
) -> Fraction:
    """Posterior probability of {theta : RB(theta|x) <= RB(theta0|x)}.

    Small values mean the evidence for theta0 is weak even when its
    relative belief ratio exceeds 1.
    """
    index = prior.index_of(theta0)
    return evidence_report(pair, prior).strength(index)


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
    return _tail(masses, masses, masses[ancillary.labels[pair.observed]])


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

    Each evidence formula is written here once; the functions above read
    their answer from the report. The posterior is proportional to pi * k,
    with ``(g, k)`` the likelihood of the observed point, and
    m(x_obs) = g * sum(pi * k) / D. Every other field is derived from the
    posterior.
    """
    check_same_theta(pair.model.theta_labels, prior.theta_labels)
    g, k = pair.model.likelihoods[pair.observed]
    joint = [w * v for w, v in zip(prior.weights, k)]
    total = sum(joint)
    m = g * total / pair.model.den
    post = tuple(j / total for j in joint)
    rb = tuple(p / w for p, w in zip(post, prior.weights))
    records = []
    for hypothesis in hypotheses:
        indices = _hypothesis_indices(prior, hypothesis)
        if not indices:
            raise EmptyHypothesis("hypothesis must be nonempty")
        p_a = sum(prior.weights[i] for i in indices)
        q_a = sum(post[i] for i in indices)
        # q_a == 1 when the complement has posterior probability 0, as the
        # whole space's complement has: the posterior odds are infinite
        factor = None if q_a == 1 else (q_a / (1 - q_a)) / (p_a / (1 - p_a))
        direction = (
            Direction.FOR if q_a > p_a
            else Direction.AGAINST if q_a < p_a
            else Direction.NEUTRAL
        )
        records.append(
            HypothesisRecord(
                tuple(prior.theta_labels[i] for i in indices),
                p_a,
                q_a,
                factor,
                direction,
                _tail(post, rb, rb[indices[0]]) if len(indices) == 1 else None,
            )
        )
    best = max(rb)
    estimate = (t for t, value in zip(prior.theta_labels, rb) if value == best)
    return EvidenceReport(m, post, rb, tuple(sorted(estimate)), tuple(records))
