"""Relative-belief evidence calculus on finite models: posterior, relative
belief ratio, Bayes factor, direction and strength of evidence, plus model
checking and prior-data conflict checking. All quantities are exact.

Every formula is evaluated in integers and each reported value is built
once as a ``Fraction``. A prior is held as ``Prior.scaled = (W, a)``, its
weights over their least common denominator (pi_i = a_i / W), and the
observed point's likelihood as ``(g, k)`` from ``FiniteModel.likelihoods``
(f_i(x) = g * k_i / D). With joint_i = a_i * k_i and T = sum(joint):

- the posterior is joint_i / T and RB_i = W * k_i / T, so the relative
  belief estimate is the argmax of k;
- m(x) = g * T / (D * W);
- for a hypothesis A with a_A = sum of a_i and J_A = sum of joint_i over
  A, the prior and posterior probabilities are a_A / W and J_A / T, the
  Bayes factor is J_A * (W - a_A) / ((T - J_A) * a_A), and the evidence
  is for A iff J_A * W > a_A * T;
- each strength or tail probability, the ancillary check's included, is
  one integer sum over one denominator.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    DegenerateHypothesis,
    DuplicateLabel,
    EmptyHypothesis,
    LpLabError,
    NotAncillary,
    ParameterSpaceMismatch,
    UnknownTheta,
)
from .model import (
    FiniteModel,
    ModelDataPair,
    _parse_entry,
    check_same_theta,
)
from .partition import Partition
from .sufficiency import reduce_to_mss, statistic_induced_model


@dataclass(frozen=True)
class Prior:
    """Strictly positive prior weights on a parameter space, summing to 1.

    Each weight is an ``int`` or a ``Fraction``; ``scaled`` holds them as
    integers over their least common denominator.
    """

    theta_labels: tuple[str, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.theta_labels) != len(self.weights):
            raise ParameterSpaceMismatch(
                f"{len(self.theta_labels)} labels, {len(self.weights)} weights"
            )
        if len(set(self.theta_labels)) != len(self.theta_labels):
            raise DuplicateLabel(
                f"duplicate parameter labels in {self.theta_labels}"
            )
        if not all(isinstance(w, (int, Fraction)) for w in self.weights):
            raise TypeError(
                "prior weights must be int or Fraction: "
                "floating point probabilities are not accepted"
            )
        total, scaled = self.scaled
        if any(v <= 0 for v in scaled):
            raise LpLabError("prior weights must be strictly positive")
        if sum(scaled) != total:
            raise LpLabError("prior weights must sum to exactly 1")

    @functools.cached_property
    def scaled(self) -> tuple[int, tuple[int, ...]]:
        """``(W, a)`` with ``weights[i] == a[i] / W``, W the least common
        denominator of the weights."""
        total = math.lcm(*(w.denominator for w in self.weights))
        return total, tuple(
            w.numerator * (total // w.denominator) for w in self.weights
        )

    @staticmethod
    def of(theta_labels: Sequence[str], weights: Sequence) -> "Prior":
        return Prior(
            tuple(str(t) for t in theta_labels),
            tuple(Fraction(*_parse_entry(w)) for w in weights),
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


def _hypothesis_indices(prior: Prior, hypothesis: Sequence[str]) -> list[int]:
    return sorted({prior.index_of(label) for label in hypothesis})


def _predictive_masses(
    model: FiniteModel, prior: Prior
) -> tuple[list[int], int]:
    """``(s, D * W)`` with m(x) = s[x] / (D * W) for each sample point x."""
    check_same_theta(model.theta_labels, prior.theta_labels)
    total, scaled = prior.scaled
    masses = [
        sum(map(operator.mul, scaled, column))
        for column in model.scaled_columns
    ]
    return masses, model.den * total


def prior_predictive(
    model: FiniteModel, prior: Prior
) -> tuple[Fraction, ...]:
    """m(x) = sum_theta pi(theta) f_theta(x); entries sum to 1."""
    masses, scale = _predictive_masses(model, prior)
    return tuple(Fraction(s, scale) for s in masses)


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
    relative belief ratio exceeds 1. The label is checked first; the value
    is the strength of the hypothesis {theta0} in ``evidence_report``.
    """
    prior.index_of(theta0)
    return evidence_report(pair, prior, [[theta0]]).hypotheses[0].strength


def check_model_mss(pair: ModelDataPair) -> Fraction:
    """Exact tail probability of the data given the minimal sufficient value.

    The conditional distribution within the observed MSS block is
    parameter-free: h(x) = g(x) / (sum of g over the block), with g(x)
    the gcd of x's column in ``model.likelihoods``. The returned value
    sums the conditional probabilities no larger than the observed one.
    """
    block_map = reduce_to_mss(pair).block_map
    b = block_map[pair.observed]
    likelihoods = pair.model.likelihoods
    gcds = [g for (g, _), block in zip(likelihoods, block_map) if block == b]
    cutoff = likelihoods[pair.observed][0]
    return Fraction(sum(g for g in gcds if g <= cutoff), sum(gcds))


def check_model_ancillary(
    pair: ModelDataPair, ancillary: Partition
) -> Fraction:
    """Exact tail probability of the ancillary at its observed value.

    The partition is ancillary iff the rows of the model it induces,
    ``statistic_induced_model``, are equal; the tail sums that row's
    entries no larger than the observed block's, over the induced ``den``.
    """
    induced = statistic_induced_model(pair.model, ancillary)
    row = induced.rows[0]
    if any(other != row for other in induced.rows):
        raise NotAncillary("partition has parameter-dependent block masses")
    cutoff = row[ancillary.labels[pair.observed]]
    return Fraction(sum(v for v in row if v <= cutoff), induced.den)


def check_prior_conflict(pair: ModelDataPair, prior: Prior) -> Fraction:
    """Tail probability of the prior predictive of the MSS at its observed
    value; small values signal prior-data conflict."""
    reduced = reduce_to_mss(pair).reduced
    masses, scale = _predictive_masses(reduced.model, prior)
    cutoff = masses[reduced.observed]
    return Fraction(sum(s for s in masses if s <= cutoff), scale)


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


def evidence_report(
    pair: ModelDataPair,
    prior: Prior,
    hypotheses: Sequence[Sequence[str]] = (),
) -> EvidenceReport:
    """Full evidence summary for a pair, a prior and optional hypotheses.

    Each evidence formula is written here once; the functions above read
    their answer from the report. With ``(g, k)`` the likelihood of the
    observed point, ``(W, a)`` the scaled prior, joint_i = a_i * k_i and
    T = sum(joint): m(x_obs) = g * T / (D * W), the posterior is
    joint_i / T, RB_i = W * k_i / T and the estimate is the argmax of k.
    For a hypothesis A, with a_A and J_A the sums of a and joint over A,
    BF = J_A * (W - a_A) / ((T - J_A) * a_A), the direction compares
    J_A * W with a_A * T, and the strength of a single value i is the sum
    of joint_j over k_j <= k_i, over T.
    """
    check_same_theta(pair.model.theta_labels, prior.theta_labels)
    total_prior, scaled = prior.scaled
    g, k = pair.model.likelihoods[pair.observed]
    joint = list(map(operator.mul, scaled, k))
    total = sum(joint)
    m = Fraction(g * total, pair.model.den * total_prior)
    post = tuple(Fraction(j, total) for j in joint)
    rb = tuple(Fraction(total_prior * v, total) for v in k)
    records = []
    for hypothesis in hypotheses:
        indices = _hypothesis_indices(prior, hypothesis)
        if not indices:
            raise EmptyHypothesis("hypothesis must be nonempty")
        a_a = sum(scaled[i] for i in indices)
        j_a = sum(joint[i] for i in indices)
        # j_a == total when the complement has posterior probability 0, as
        # the whole space's complement has: the posterior odds are infinite
        factor = (
            None if j_a == total
            else Fraction(j_a * (total_prior - a_a), (total - j_a) * a_a)
        )
        lhs, rhs = j_a * total_prior, a_a * total
        direction = (
            Direction.FOR if lhs > rhs
            else Direction.AGAINST if lhs < rhs
            else Direction.NEUTRAL
        )
        strength = None
        if len(indices) == 1:
            cutoff = k[indices[0]]
            tail = sum(j for j, v in zip(joint, k) if v <= cutoff)
            strength = Fraction(tail, total)
        records.append(
            HypothesisRecord(
                tuple(prior.theta_labels[i] for i in indices),
                Fraction(a_a, total_prior),
                Fraction(j_a, total),
                factor,
                direction,
                strength,
            )
        )
    best = max(k)
    estimate = (t for t, v in zip(prior.theta_labels, k) if v == best)
    return EvidenceReport(m, post, rb, tuple(sorted(estimate)), tuple(records))
