"""Finite discrete models with exact rational probabilities.

All probabilities are ``fractions.Fraction`` values; no floating point is
used anywhere. Models and model-data pairs are immutable and hashable, so
they can be cached, deduplicated and shared between threads freely.
"""

from __future__ import annotations

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

ONE = Fraction(1)
ZERO = Fraction(0)


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

    ``probs[i][j]`` is the probability of sample point ``j`` under parameter
    ``theta_labels[i]``. Construct through :func:`validate_model` unless the
    entries are already known to be valid.
    """

    theta_labels: tuple[str, ...]
    sample_labels: tuple[str, ...]
    probs: tuple[tuple[Fraction, ...], ...]

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


def validate_model(
    theta_labels: Sequence[str],
    sample_labels: Sequence[str],
    probs: Sequence[Sequence[str | int | Fraction]],
) -> FiniteModel:
    """Check a candidate model and return it in validated form.

    Raises NonStochasticRow, NegativeEntry, DuplicateLabel or
    UnreachablePoint; row sums are compared exactly.
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
    return FiniteModel(thetas, points, tuple(rows))


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
    """Scale v so its first nonzero entry is 1; proportionality key.

    proportional(v, w) is present iff the keys of v and w are equal.
    """
    for a in v:
        if a != 0:
            return tuple(b / a for b in v)
    return tuple(v)


def pairs_isomorphic(
    p1: ModelDataPair, p2: ModelDataPair
) -> Optional[tuple[int, ...]]:
    """Sample-space bijection phi with matching probabilities and data.

    Requires identical parameter label lists. Returns phi as a tuple
    (phi[x] is the image index) with f1[theta][x] = f2[theta][phi[x]] for
    all theta, x and phi(observed1) = observed2; None if no such map exists.
    """
    m1, m2 = p1.model, p2.model
    if m1.theta_labels != m2.theta_labels or m1.n_points != m2.n_points:
        return None
    phi = column_embedding(m1.columns(), p1.observed, m2.columns(), p2.observed)
    return None if phi is None else tuple(phi)


def column_embedding(
    columns: Sequence[tuple[Fraction, ...]],
    observed: int,
    into: Sequence[tuple[Fraction, ...]],
    into_observed: int,
) -> Optional[list[int]]:
    """Injective phi with columns[x] == into[phi[x]] and phi[observed] ==
    into_observed, or None; equal columns of ``into`` go in index order."""
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


def _canonical_order(columns: list[tuple[Fraction, ...]]) -> list[int]:
    return sorted(range(len(columns)), key=lambda x: columns[x])


def canonical_model(model: FiniteModel) -> FiniteModel:
    """Isomorphism-invariant representative of a model (data ignored).

    Columns are sorted lexicographically by their exact probability vectors
    and sample points are relabeled generically, so relabeled or permuted
    copies collapse to an identical value.
    """
    order = _canonical_order(model.columns())
    rows = tuple(tuple(row[x] for x in order) for row in model.probs)
    labels = tuple(f"x{i + 1}" for i in range(model.n_points))
    return FiniteModel(model.theta_labels, labels, rows)


def canonical_form(pair: ModelDataPair) -> ModelDataPair:
    """Isomorphism-invariant representative of a model-data pair.

    canonical_form(p1) == canonical_form(p2) iff pairs_isomorphic(p1, p2)
    is present. Among equal columns the observed index is normalized to
    the first position of its run, since such points are interchangeable.
    """
    columns = pair.model.columns()
    order = _canonical_order(columns)
    obs_col = columns[pair.observed]
    new_obs = min(i for i, x in enumerate(order) if columns[x] == obs_col)
    rows = tuple(tuple(row[x] for x in order) for row in pair.model.probs)
    labels = tuple(f"x{i + 1}" for i in range(pair.model.n_points))
    return ModelDataPair(
        FiniteModel(pair.model.theta_labels, labels, rows), new_obs
    )
