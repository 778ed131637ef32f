"""Fraction-arithmetic reference for the model core, for tests only.

These are the parser, the proportionality test and keys, canonical
forms, isomorphism test, grid enumeration and the derived-model
constructors (conditionals, mixtures and
statistic-induced models) as they were written on ``fractions.Fraction``
values, before the library moved them onto integers over a common
denominator. ``fraction_model`` builds a library model from ``Fraction``
rows by the lcm of their denominators, and ``column``, ``columns`` and
``likelihood_vector`` read a library model's ``probs`` back as ``Fraction``
columns. The differential tests in ``test_model_differential.py`` compare
the two.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from lp_lab.errors import (
    DuplicateLabel,
    LengthMismatch,
    NotAncillary,
    ModelValidationError,
    NegativeEntry,
    NonStochasticRow,
    UnreachablePoint,
)
from lp_lab.model import (
    FiniteModel,
    ModelDataPair,
    format_rational,
    parse_rational,
)
from lp_lab.partition import Partition

ONE = Fraction(1)
ZERO = Fraction(0)


def fraction_model(
    thetas: Sequence[str],
    points: Sequence[str],
    rows: Sequence[Sequence[Fraction]],
) -> FiniteModel:
    """The model with these Fraction entries, over their least common
    denominator."""
    rows = [[Fraction(v) for v in row] for row in rows]
    den = math.lcm(*(v.denominator for row in rows for v in row))
    ints = tuple(
        tuple(v.numerator * (den // v.denominator) for v in row) for row in rows
    )
    return FiniteModel(tuple(thetas), tuple(points), den, ints)


def column(model: FiniteModel, x: int) -> tuple[Fraction, ...]:
    """Probabilities of sample point ``x`` across the parameter space."""
    return tuple(row[x] for row in model.probs)


def columns(model: FiniteModel) -> list[tuple[Fraction, ...]]:
    return [column(model, x) for x in range(model.n_points)]


def likelihood_vector(pair: ModelDataPair) -> tuple[Fraction, ...]:
    """The likelihood function theta -> f_theta(x_obs), in theta order."""
    return column(pair.model, pair.observed)


def validate_model(
    theta_labels: Sequence[str],
    sample_labels: Sequence[str],
    probs: Sequence[Sequence[str | int | Fraction]],
) -> FiniteModel:
    thetas = tuple(str(t) for t in theta_labels)
    points = tuple(str(s) for s in sample_labels)
    if not thetas or not points:
        raise DuplicateLabel("parameter space and sample space must be nonempty")
    if len(set(thetas)) != len(thetas):
        raise DuplicateLabel(f"duplicate parameter labels in {thetas}")
    if len(set(points)) != len(points):
        raise DuplicateLabel(f"duplicate sample labels in {points}")
    if len(probs) != len(thetas):
        raise NonStochasticRow(
            f"expected {len(thetas)} rows, got {len(probs)}"
        )
    rows = []
    for label, raw_row in zip(thetas, probs):
        if len(raw_row) != len(points):
            raise NonStochasticRow(
                f"row for {label} has {len(raw_row)} entries, expected {len(points)}"
            )
        row = tuple(parse_rational(v) for v in raw_row)
        for point, value in zip(points, row):
            if value < 0:
                raise NegativeEntry(
                    f"f[{label}]({point}) = {format_rational(value)} < 0"
                )
        total = sum(row, ZERO)
        if total != ONE:
            raise NonStochasticRow(
                f"row for {label} sums to {format_rational(total)}, not 1"
            )
        rows.append(row)
    for x, point in enumerate(points):
        if all(row[x] == 0 for row in rows):
            raise UnreachablePoint(
                f"sample point {point} has probability 0 for every parameter"
            )
    return fraction_model(thetas, points, rows)


def proportional(
    v1: Sequence[Fraction], v2: Sequence[Fraction]
) -> Optional[Fraction]:
    """Positive constant c with v1 = c * v2, or None.

    Zero patterns must match exactly; the check is by cross-multiplication,
    so no division is involved until the witness constant is formed.
    """
    if len(v1) != len(v2):
        raise LengthMismatch(f"lengths {len(v1)} and {len(v2)} differ")
    c: Optional[Fraction] = None
    for a, b in zip(v1, v2):
        if (a == 0) != (b == 0):
            return None
        if a != 0 and c is None:
            c = Fraction(a, 1) / b
    if c is None:
        # both vectors identically zero; any positive c works
        return ONE
    for a, b in zip(v1, v2):
        if a * 1 != c * b:
            return None
    return c


def normalized_direction(v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Scale v so its first nonzero entry is 1; proportionality key."""
    for a in v:
        if a != 0:
            return tuple(b / a for b in v)
    return tuple(v)


def likelihood_partition(model: FiniteModel) -> Partition:
    keys = [normalized_direction(column(model, x)) for x in range(model.n_points)]
    return Partition.from_labels(keys)


def l_class_key(pair: ModelDataPair) -> tuple[Fraction, ...]:
    return normalized_direction(likelihood_vector(pair))


def _column_embedding(columns, observed, into, into_observed):
    if columns[observed] != into[into_observed]:
        return None
    free: dict[tuple[Fraction, ...], list[int]] = {}
    for x, column in enumerate(into):
        if x != into_observed:
            free.setdefault(column, []).append(x)
    phi = [into_observed] * len(columns)
    for x, column in enumerate(columns):
        if x != observed:
            bucket = free.get(column)
            if not bucket:
                return None
            phi[x] = bucket.pop(0)
    return phi


def pairs_isomorphic(
    p1: ModelDataPair, p2: ModelDataPair
) -> Optional[tuple[int, ...]]:
    m1, m2 = p1.model, p2.model
    if m1.theta_labels != m2.theta_labels or m1.n_points != m2.n_points:
        return None
    phi = _column_embedding(columns(m1), p1.observed, columns(m2), p2.observed)
    return None if phi is None else tuple(phi)


def _canonical_order(columns: list[tuple[Fraction, ...]]) -> list[int]:
    return sorted(range(len(columns)), key=lambda x: columns[x])


def canonical_model(model: FiniteModel) -> FiniteModel:
    order = _canonical_order(columns(model))
    rows = tuple(tuple(row[x] for x in order) for row in model.probs)
    labels = tuple(f"x{i + 1}" for i in range(model.n_points))
    return fraction_model(model.theta_labels, labels, rows)


def canonical_form(pair: ModelDataPair) -> ModelDataPair:
    cols = columns(pair.model)
    order = _canonical_order(cols)
    obs_col = cols[pair.observed]
    new_obs = min(i for i, x in enumerate(order) if cols[x] == obs_col)
    rows = tuple(tuple(row[x] for x in order) for row in pair.model.probs)
    labels = tuple(f"x{i + 1}" for i in range(pair.model.n_points))
    return ModelDataPair(
        fraction_model(pair.model.theta_labels, labels, rows), new_obs
    )


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def enumerate_models(
    theta_size: int = 2,
    max_space: int = 6,
    max_denominator: int = 6,
) -> Iterator[FiniteModel]:
    thetas = [f"t{i + 1}" for i in range(theta_size)]
    for size in range(1, max_space + 1):
        points = [f"x{i + 1}" for i in range(size)]
        for den in range(1, max_denominator + 1):
            rows = [
                tuple(Fraction(k, den) for k in comp)
                for comp in _compositions(den, size)
            ]
            seen: set[FiniteModel] = set()
            for combo in itertools.product(rows, repeat=theta_size):
                lcd = math.lcm(
                    *(v.denominator for row in combo for v in row)
                )
                if lcd != den:
                    continue
                try:
                    model = validate_model(thetas, points, combo)
                except ModelValidationError:
                    continue
                canon = canonical_model(model)
                if canon not in seen:
                    seen.add(canon)
                    yield canon


def block_masses(
    model: FiniteModel, partition: Partition
) -> Optional[tuple[Fraction, ...]]:
    masses = []
    for block in partition.blocks:
        sums = {sum(row[x] for x in block) for row in model.probs}
        if len(sums) > 1:
            return None
        masses.append(sums.pop())
    return tuple(masses)


def condition_on_block(
    pair: ModelDataPair, ancillary: Partition
) -> ModelDataPair:
    masses = block_masses(pair.model, ancillary)
    if masses is None:
        raise NotAncillary("partition has parameter-dependent block masses")
    b = ancillary.labels[pair.observed]
    block = sorted(ancillary.blocks[b])
    mass = masses[b]
    labels = tuple(pair.model.sample_labels[x] for x in block)
    rows = tuple(
        tuple(row[x] / mass for x in block) for row in pair.model.probs
    )
    return ModelDataPair(
        fraction_model(pair.model.theta_labels, labels, rows),
        block.index(pair.observed),
    )


def mixture_model(
    p1: ModelDataPair, p2: ModelDataPair, w1: Fraction, w2: Fraction
) -> FiniteModel:
    m1, m2 = p1.model, p2.model
    labels = tuple(f"1:{s}" for s in m1.sample_labels) + tuple(
        f"2:{s}" for s in m2.sample_labels
    )
    rows = tuple(
        tuple(w1 * v for v in r1) + tuple(w2 * v for v in r2)
        for r1, r2 in zip(m1.probs, m2.probs)
    )
    return fraction_model(m1.theta_labels, labels, rows)


def statistic_induced_model(
    model: FiniteModel, partition: Partition
) -> FiniteModel:
    labels = tuple(
        "{" + ",".join(model.sample_labels[x] for x in sorted(block)) + "}"
        for block in partition.blocks
    )
    rows = tuple(
        tuple(sum(row[x] for x in block) for block in partition.blocks)
        for row in model.probs
    )
    for i, block in enumerate(partition.blocks):
        if all(row[i] == 0 for row in rows):
            raise UnreachablePoint(f"block {sorted(block)} has zero mass")
    return fraction_model(model.theta_labels, labels, rows)
