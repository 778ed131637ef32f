"""Seeded generators of random models, priors and related pairs, for tests
only.

Used by the property and acceptance tests; all randomness flows through an
explicit ``random.Random`` instance, so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from lp_lab.errors import ModelValidationError
from lp_lab.evidence import Prior
from lp_lab.model import FiniteModel, ModelDataPair, validate_model
from lp_lab.relations import l_class_key
from model_reference import likelihood_vector


def _random_composition(
    rng: random.Random, total: int, parts: int, positive: bool = False
) -> list[int]:
    if positive:
        if parts > total:
            raise ValueError("cannot make positive parts")
        cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    else:
        cuts = sorted(rng.choices(range(total + 1), k=parts - 1))
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def random_model(
    rng: random.Random,
    theta_size: int = 2,
    space_size: int = 3,
    denominator: int = 12,
) -> FiniteModel:
    """A validated random model with entries k/denominator."""
    thetas = [f"t{i + 1}" for i in range(theta_size)]
    points = [f"x{i + 1}" for i in range(space_size)]
    while True:
        rows = [
            [
                Fraction(k, denominator)
                for k in _random_composition(rng, denominator, space_size)
            ]
            for _ in range(theta_size)
        ]
        try:
            return validate_model(thetas, points, rows)
        except ModelValidationError:
            continue


def random_pair(
    rng: random.Random,
    theta_size: int = 2,
    space_size: int = 3,
    denominator: int = 12,
) -> ModelDataPair:
    model = random_model(rng, theta_size, space_size, denominator)
    return ModelDataPair(model, rng.randrange(space_size))


def random_prior(
    rng: random.Random, theta_labels, denominator: int = 12
) -> Prior:
    parts = _random_composition(
        rng, denominator, len(theta_labels), positive=True
    )
    return Prior.of(
        theta_labels, [Fraction(k, denominator) for k in parts]
    )


def random_l_related_pair(
    rng: random.Random,
    theta_size: int = 2,
    max_space: int = 3,
    denominator: int = 12,
) -> tuple[ModelDataPair, ModelDataPair]:
    """Two pairs with proportional likelihood vectors.

    Strategies, chosen at random: embed the likelihood column scaled by
    1/k into a fresh model and fill the remaining mass from the grid;
    permute the sample space (an isomorphic copy); or split the observed
    point by a parameter-free factor (a sufficiency-style refinement).
    """
    while True:
        space1 = rng.randint(2, max_space)
        p1 = random_pair(rng, theta_size, space1, denominator)
        strategy = rng.choice(["embed", "permute", "split"])
        p2 = None
        if strategy == "embed":
            p2 = _embed_scaled(rng, p1, max_space, denominator)
        elif strategy == "permute":
            p2 = _permuted_copy(rng, p1)
        else:
            p2 = _split_observed(rng, p1)
        if p2 is None:
            continue
        assert l_class_key(p1) == l_class_key(p2)
        return p1, p2


def _embed_scaled(rng, p1, max_space, denominator):
    v = likelihood_vector(p1)
    k = rng.randint(1, 3)
    column = [value / k for value in v]
    space2 = rng.randint(2, max_space)
    rows = []
    for theta_value in column:
        rest = 1 - theta_value
        num = rest.numerator * denominator * k // rest.denominator \
            if rest != 0 else 0
        if rest != 0 and Fraction(num, denominator * k) != rest:
            return None
        parts = _random_composition(rng, num, space2 - 1) if space2 > 1 else []
        rows.append(
            [theta_value]
            + [Fraction(p, denominator * k) for p in parts]
        )
    thetas = list(p1.model.theta_labels)
    points = [f"y{i + 1}" for i in range(space2)]
    try:
        model = validate_model(thetas, points, rows)
    except ModelValidationError:
        return None
    return ModelDataPair(model, 0)


def _permuted_copy(rng, p1):
    n = p1.model.n_points
    order = list(range(n))
    rng.shuffle(order)
    rows = tuple(tuple(row[x] for x in order) for row in p1.model.rows)
    model = FiniteModel(
        p1.model.theta_labels, p1.model.sample_labels, p1.model.den, rows
    )
    return ModelDataPair(model, order.index(p1.observed))


def relabelled_copy(
    rng: random.Random, pair: ModelDataPair, prefix: str = ""
) -> ModelDataPair:
    """An isomorphic copy: the sample points, each label behind ``prefix``,
    in a random order."""
    model = pair.model
    order = list(range(model.n_points))
    rng.shuffle(order)
    copy = FiniteModel(
        model.theta_labels,
        tuple(prefix + model.sample_labels[x] for x in order),
        model.den,
        tuple(tuple(row[x] for x in order) for row in model.rows),
    )
    return ModelDataPair(copy, order.index(pair.observed))


def _split_observed(rng, p1):
    """Split the observed point into two with a theta-free ratio."""
    s = Fraction(rng.randint(1, 3), 4)
    rows = []
    for row in p1.model.probs:
        new_row = []
        for x, value in enumerate(row):
            if x == p1.observed:
                new_row.extend([value * s, value * (1 - s)])
            else:
                new_row.append(value)
        rows.append(new_row)
    labels = []
    for x, label in enumerate(p1.model.sample_labels):
        if x == p1.observed:
            labels.extend([f"{label}a", f"{label}b"])
        else:
            labels.append(label)
    try:
        model = validate_model(p1.model.theta_labels, labels, rows)
    except ModelValidationError:
        return None
    return ModelDataPair(model, labels.index(f"{p1.observed_label}a"))
