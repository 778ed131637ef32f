"""Finite discrete models with exact rational probabilities.

Probabilities are exact rationals; no floating point is used anywhere. A
model is ``(theta_labels, sample_labels, den, rows)``: its probabilities
held once, as integer rows over their least common denominator ``den``.
Parsing, equality, hashing and canonical forms work on those integers, and
every derived model is built from its parent's. Isomorphism has one
decision: two pairs are isomorphic iff their canonical forms are equal,
which is decided, and the bijection read, from the permutation that builds
each form, without building either.
``FiniteModel.likelihoods`` splits each column into ``(g, k)``, its gcd and
primitive vector: the one likelihood decomposition that L, the minimal
sufficient partition and factorization, the C column match and the
posterior read. ``fractions.Fraction`` stays their public type:
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

# An error message quotes an entry of at most this many characters, and a
# rational whose numerator and denominator have at most this many digits;
# a longer one is described, so that the message stays one short line.
_QUOTED = 40


def _quoted_entry(text: object) -> str:
    shown = repr(text)
    if len(shown) <= _QUOTED:
        return shown
    return f"an entry of {len(shown)} characters"


def _quoted_value(value: Fraction) -> str:
    if max(abs(value.numerator), value.denominator) < 10**_QUOTED:
        return format_rational(value)
    return f"a rational with a numerator or denominator of over {_QUOTED} digits"


def parse_rational(text: str | int | Fraction) -> Fraction:
    """Parse "p/q" or an integer string into an exact fraction.

    Exponent notation such as "1e-1" is refused: Fraction would expand
    "1e99999999" into 10**99999999 before any check could reject it.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise TypeError("floating point probabilities are not accepted")
    spelled = str(text).strip()
    if "e" in spelled or "E" in spelled:
        raise MalformedRational(
            f"{_quoted_entry(text)} is not a rational number: "
            "exponents are not accepted"
        )
    try:
        return Fraction(spelled)
    except (ValueError, ZeroDivisionError):
        raise MalformedRational(
            f"{_quoted_entry(text)} is not a rational number"
        ) from None


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

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        """The dataclass hash of the fields, computed once per instance.

        Rows that do not hash (lists) raise TypeError on every call, and
        nothing is cached.
        """
        return hash((self.theta_labels, self.sample_labels, self.den, self.rows))

    def __getstate__(self) -> dict:
        # a str hash differs between processes, so a pickle carries none
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @functools.cached_property
    def probs(self) -> tuple[tuple[Fraction, ...], ...]:
        """``probs[i][j]`` is f_theta_i(x_j), a ``Fraction``."""
        den = self.den
        return tuple(tuple(Fraction(v, den) for v in row) for row in self.rows)

    @functools.cached_property
    def scaled_columns(self) -> tuple[tuple[int, ...], ...]:
        """den * f(x) across the parameter space, for each sample point x."""
        return tuple(zip(*self.rows))

    @functools.cached_property
    def likelihoods(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """``(g, k)`` for each sample point x, with scaled_columns[x] == g * k.

        g is the gcd of the column and k its primitive integer vector, so
        two columns are positive multiples of each other iff their k are
        equal, zero patterns included. A point no parameter reaches has
        g = 0 and k the zero column.
        """
        out = []
        for column in self.scaled_columns:
            g = math.gcd(*column)
            out.append((g, tuple(v // g for v in column) if g > 1 else column))
        return tuple(out)

    @functools.cached_property
    def labels_are_str(self) -> bool:
        """True iff every parameter and sample label is exactly a ``str``,
        decided once per instance. Equal models can differ here: the
        labels 1, True and Fraction(1) are equal, and none is a str."""
        labels = itertools.chain(self.theta_labels, self.sample_labels)
        return all(type(label) is str for label in labels)

    @property
    def n_theta(self) -> int:
        return len(self.theta_labels)

    @property
    def n_points(self) -> int:
        return len(self.sample_labels)


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
                    f"f[{label}]({point}) = {_quoted_value(Fraction(p, q))} < 0"
                )
        row_den = math.lcm(*(q for _, q in row))
        total = sum(p * (row_den // q) for p, q in row)
        if total != row_den:
            raise NonStochasticRow(
                f"row for {label} sums to "
                f"{_quoted_value(Fraction(total, row_den))}, not 1"
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

    @functools.cached_property
    def canonical_order(self) -> tuple[int, ...]:
        """``canonical_order[k]`` is the original index of canonical point
        k: columns ascending and, among equal columns, which are
        interchangeable, the observed point first, the others in index order."""
        columns = self.model.scaled_columns
        order = sorted(range(len(columns)), key=columns.__getitem__)
        start = at = order.index(self.observed)
        while start and columns[order[start - 1]] == columns[self.observed]:
            start -= 1
        order.insert(start, order.pop(at))
        return tuple(order)

    @functools.cached_property
    def canonical(self) -> "ModelDataPair":
        """Isomorphism-invariant representative of the pair, built once:
        the columns in ``canonical_order``, relabelled generically."""
        model, order = self.model, self.canonical_order
        rows = tuple(zip(*map(model.scaled_columns.__getitem__, order)))
        labels = _generic_labels(model.n_points)
        canonical = FiniteModel(model.theta_labels, labels, model.den, rows)
        return ModelDataPair(canonical, order.index(self.observed))


def pair_at(model: FiniteModel, label: str) -> ModelDataPair:
    """Convenience constructor addressing the observed point by label."""
    return ModelDataPair(model, model.sample_labels.index(label))


def check_same_theta(a: Sequence[str], b: Sequence[str]) -> None:
    """Raise ParameterSpaceMismatch unless two parameter spaces agree."""
    if a != b:
        raise ParameterSpaceMismatch(f"{a} vs {b}")


def pairs_isomorphic(
    p1: ModelDataPair, p2: ModelDataPair
) -> Optional[tuple[int, ...]]:
    """Sample-space bijection phi with matching probabilities and data.

    Returns phi as a tuple (phi[x] is the image index) with
    f1[theta][x] = f2[theta][phi[x]] for all theta, x and phi(observed1) =
    observed2, or None if no such map exists: the pairs are isomorphic iff
    their canonical forms are equal, and phi matches their canonical
    indices. Different sizes or common denominators are rejected first;
    then the forms are compared without building either: the same theta
    labels, the same columns in ``canonical_order`` and the observed
    point at the same canonical index.
    """
    m1, m2 = p1.model, p2.model
    if m1.n_points != m2.n_points or m1.den != m2.den:
        return None
    order1, order2 = p1.canonical_order, p2.canonical_order
    c1, c2 = m1.scaled_columns, m2.scaled_columns
    if (
        m1.theta_labels != m2.theta_labels
        or order1.index(p1.observed) != order2.index(p2.observed)
        or any(c1[x] != c2[y] for x, y in zip(order1, order2))
    ):
        return None
    phi = [0] * m1.n_points
    for x, y in zip(order1, order2):
        phi[x] = y
    return tuple(phi)


@functools.cache
def _generic_labels(n: int) -> tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(n))


def canonical_form(pair: ModelDataPair) -> ModelDataPair:
    """Isomorphism-invariant representative of a model-data pair, its
    ``canonical`` property: built on the first call, then shared.

    canonical_form(p1) == canonical_form(p2) iff pairs_isomorphic(p1, p2)
    is present: the one isomorphism decision, which compares what this
    form is built from.
    """
    return pair.canonical
