"""Finite discrete models with exact rational probabilities.

Probabilities are exact rationals; no floating point is used anywhere. A
model is ``(theta_labels, sample_labels, den, rows)``: its probabilities
held once, as integer rows over their least common denominator ``den``.
Parsing, equality, hashing, proportionality keys, canonical forms and
isomorphism tests work on those integers, and every derived model is built
from its parent's. ``fractions.Fraction`` stays their public type:
``probs`` derives the entries as ``Fraction``s, and every probability
lp-lab returns is one. Input models are checked and built by
:func:`validate_model`. Models and model-data pairs are immutable and
hashable, so they can be cached, deduplicated and shared between threads
freely.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    DuplicateLabel,
    LengthMismatch,
    MalformedRational,
    NegativeEntry,
    NonStochasticRow,
    ParameterSpaceMismatch,
    UnreachablePoint,
)

def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse "p/q" or an integer string into an exact fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise TypeError("floating point probabilities are not accepted")
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise MalformedRational(f"{text!r} is not a rational number") from None


def format_rational(value: Fraction) -> str:
    """Canonical rendering: lowest terms, "p/q" or a bare integer."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class FiniteModel:
    """A parameter-indexed family of distributions on a finite sample space.

    A model is ``(theta_labels, sample_labels, den, rows)``: integer rows
    over one common denominator, ``rows[i][j] == den * f_theta_i(x_j)``.
    Any factor common to ``den`` and every entry is divided out on
    construction, so each model has one such form and equality and hashing
    are those of the fields. ``probs`` derives the entries as
    ``Fraction``s. Construct through :func:`validate_model` unless the
    rows are already known to be valid.
    """

    theta_labels: tuple[str, ...]
    sample_labels: tuple[str, ...]
    den: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        g = math.gcd(self.den, *itertools.chain.from_iterable(self.rows))
        if g > 1:
            object.__setattr__(self, "den", self.den // g)
            rows = tuple(tuple(v // g for v in row) for row in self.rows)
            object.__setattr__(self, "rows", rows)

    @functools.cached_property
    def probs(self) -> tuple[tuple[Fraction, ...], ...]:
        """``probs[i][j]`` is f_theta_i(x_j), a ``Fraction``."""
        den = self.den
        return tuple(tuple(Fraction(v, den) for v in row) for row in self.rows)

    @functools.cached_property
    def scaled_columns(self) -> tuple[tuple[int, ...], ...]:
        """den * f(x) across the parameter space, for each sample point x."""
        return tuple(zip(*self.rows))

    @property
    def n_theta(self) -> int:
        return len(self.theta_labels)

    @property
    def n_points(self) -> int:
        return len(self.sample_labels)

    def column(self, x: int) -> tuple[Fraction, ...]:
        """Probabilities of sample point ``x`` across the parameter space."""
        return tuple(row[x] for row in self.probs)

    def columns(self) -> list[tuple[Fraction, ...]]:
        return [self.column(x) for x in range(self.n_points)]


def _parse_entry(value: str | int | Fraction) -> tuple[int, int]:
    """Numerator and denominator of an entry, in lowest terms.

    "p/q" and "n" made of digits only are split and read with int; any
    other value, and any digit string int rejects, goes through
    parse_rational, which accepts or rejects it.
    """
    if type(value) is str:
        num, slash, den = value.partition("/")
        if num.isdigit() and (not slash or den.isdigit()):
            try:
                p, q = int(num), int(den) if slash else 1
            except ValueError:  # such as "²", or beyond int's digit limit
                pass
            else:
                if q:
                    g = math.gcd(p, q)
                    return p // g, q // g
    value = parse_rational(value)
    return value.numerator, value.denominator


def validate_model(
    theta_labels: Sequence[str],
    sample_labels: Sequence[str],
    probs: Sequence[Sequence[str | int | Fraction]],
) -> FiniteModel:
    """Check a candidate model and return it in validated form.

    Raises NonStochasticRow, NegativeEntry, DuplicateLabel or
    UnreachablePoint. Signs, row sums and reachability are checked exactly,
    in integers: every row must sum to its common denominator.
    """
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
    parsed = []
    den = 1
    for label, raw_row in zip(thetas, probs):
        if len(raw_row) != len(points):
            raise NonStochasticRow(
                f"row for {label} has {len(raw_row)} entries, expected {len(points)}"
            )
        row = [_parse_entry(v) for v in raw_row]
        for point, (p, q) in zip(points, row):
            if p < 0:
                raise NegativeEntry(
                    f"f[{label}]({point}) = {format_rational(Fraction(p, q))} < 0"
                )
        row_den = math.lcm(*(q for _, q in row))
        total = sum(p * (row_den // q) for p, q in row)
        if total != row_den:
            raise NonStochasticRow(
                f"row for {label} sums to "
                f"{format_rational(Fraction(total, row_den))}, not 1"
            )
        den = math.lcm(den, row_den)
        parsed.append(row)
    rows = tuple(tuple(p * (den // q) for p, q in row) for row in parsed)
    for point, column in zip(points, zip(*rows)):
        if not any(column):
            raise UnreachablePoint(
                f"sample point {point} has probability 0 for every parameter"
            )
    return FiniteModel(thetas, points, den, rows)


@dataclass(frozen=True)
class ModelDataPair:
    """A model together with an observed sample point (by index)."""

    model: FiniteModel
    observed: int

    def __post_init__(self):
        if not 0 <= self.observed < self.model.n_points:
            raise LengthMismatch(
                f"observed index {self.observed} out of range for "
                f"{self.model.n_points} sample points"
            )

    @property
    def observed_label(self) -> str:
        return self.model.sample_labels[self.observed]


def pair_at(model: FiniteModel, label: str) -> ModelDataPair:
    """Convenience constructor addressing the observed point by label."""
    return ModelDataPair(model, model.sample_labels.index(label))


def check_same_theta(a: Sequence[str], b: Sequence[str]) -> None:
    """Raise ParameterSpaceMismatch unless two parameter spaces agree."""
    if a != b:
        raise ParameterSpaceMismatch(f"{a} vs {b}")


def likelihood_vector(pair: ModelDataPair) -> tuple[Fraction, ...]:
    """The likelihood function theta -> f_theta(x_obs), in theta order."""
    return pair.model.column(pair.observed)


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """v divided by the gcd of its entries; proportionality key.

    Two nonnegative integer vectors are positive multiples of each other
    iff their keys are equal, zero patterns included.
    """
    g = math.gcd(*v)
    return tuple(a // g for a in v) if g > 1 else tuple(v)


def pairs_isomorphic(
    p1: ModelDataPair, p2: ModelDataPair
) -> Optional[tuple[int, ...]]:
    """Sample-space bijection phi with matching probabilities and data.

    Requires identical parameter label lists. Returns phi as a tuple
    (phi[x] is the image index) with f1[theta][x] = f2[theta][phi[x]] for
    all theta, x and phi(observed1) = observed2; None if no such map exists.
    Isomorphic models have the same entries, so models with different
    common denominators are rejected at once.
    """
    m1, m2 = p1.model, p2.model
    if (
        m1.theta_labels != m2.theta_labels
        or m1.n_points != m2.n_points
        or m1.den != m2.den
    ):
        return None
    phi = column_embedding(
        m1.scaled_columns, p1.observed, m2.scaled_columns, p2.observed
    )
    return None if phi is None else tuple(phi)


def column_embedding(
    columns: Sequence[tuple[int, ...]],
    observed: int,
    into: Sequence[tuple[int, ...]],
    into_observed: int,
) -> Optional[list[int]]:
    """Injective phi with columns[x] == into[phi[x]] and phi[observed] ==
    into_observed, or None; equal columns of ``into`` go in index order."""
    if columns[observed] != into[into_observed]:
        return None
    free: dict[tuple[int, ...], list[int]] = {}
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


def _permuted(model: FiniteModel, order: list[int]) -> FiniteModel:
    """The model with sample point order[i] moved to index i, relabeled
    generically x1, x2, ..."""
    return FiniteModel(
        model.theta_labels,
        tuple(f"x{i + 1}" for i in range(model.n_points)),
        model.den,
        tuple(tuple(row[x] for x in order) for row in model.rows),
    )


def canonical_model(model: FiniteModel) -> FiniteModel:
    """Isomorphism-invariant representative of a model (data ignored).

    Columns are sorted lexicographically by their exact probability vectors
    (the integer columns, over the model's one common denominator, sort the
    same way) and sample points are relabeled generically, so relabeled or
    permuted copies collapse to an identical value.
    """
    columns = model.scaled_columns
    return _permuted(model, sorted(range(len(columns)), key=columns.__getitem__))


def canonical_form(pair: ModelDataPair) -> ModelDataPair:
    """Isomorphism-invariant representative of a model-data pair.

    canonical_form(p1) == canonical_form(p2) iff pairs_isomorphic(p1, p2)
    is present. Among equal columns the observed index is normalized to
    the first position of its run, since such points are interchangeable.
    """
    model = canonical_model(pair.model)
    observed = pair.model.scaled_columns[pair.observed]
    return ModelDataPair(model, model.scaled_columns.index(observed))
