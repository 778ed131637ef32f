"""Integer canonical forms and grid enumeration as first written, for tests
only.

``canonical_model`` and ``canonical_form`` sort the sample-point indices
by their integer columns and build the permuted model from the rows;
``enumerate_models`` walks every combination of composition rows, builds
a model for each and then its canonical model, deduplicating on that, and
``enumerate_pairs`` takes the canonical form of every pair of those
models, deduplicating again. The library builds a canonical form from one
sorting permutation that puts the observed point first among equal
columns, generates each grid model's sorted columns once instead of
walking the row combinations, and observes each model at the first point
of each run of equal columns.
``search_c_transitivity_counterexample`` is the search over this
enumeration and these canonical forms. The differential tests in
``test_canonical_differential.py`` compare the two.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional

from ancillary_reference import conditional_pairs
from lp_lab.ancillarity import c_related
from lp_lab.model import FiniteModel, ModelDataPair
from lp_lab.search import SearchBounds, TransitivityCounterexample


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def _permuted(model: FiniteModel, order: list[int]) -> FiniteModel:
    return FiniteModel(
        model.theta_labels,
        tuple(f"x{i + 1}" for i in range(model.n_points)),
        model.den,
        tuple(tuple(row[x] for x in order) for row in model.rows),
    )


def canonical_model(model: FiniteModel) -> FiniteModel:
    columns = model.scaled_columns
    return _permuted(model, sorted(range(len(columns)), key=columns.__getitem__))


def canonical_form(pair: ModelDataPair) -> ModelDataPair:
    model = canonical_model(pair.model)
    observed = pair.model.scaled_columns[pair.observed]
    return ModelDataPair(model, model.scaled_columns.index(observed))


def enumerate_models(
    theta_size: int = 2,
    max_space: int = 6,
    max_denominator: int = 6,
) -> Iterator[FiniteModel]:
    thetas = tuple(f"t{i + 1}" for i in range(theta_size))
    for size in range(1, max_space + 1):
        points = tuple(f"x{i + 1}" for i in range(size))
        for den in range(1, max_denominator + 1):
            rows = list(_compositions(den, size))
            seen: set[FiniteModel] = set()
            for combo in itertools.product(rows, repeat=theta_size):
                if math.gcd(den, *itertools.chain(*combo)) != 1:
                    continue
                if not all(map(any, zip(*combo))):
                    continue
                canon = canonical_model(FiniteModel(thetas, points, den, combo))
                if canon not in seen:
                    seen.add(canon)
                    yield canon


def enumerate_pairs(
    theta_size: int = 2,
    max_space: int = 6,
    max_denominator: int = 6,
) -> Iterator[ModelDataPair]:
    seen: set[ModelDataPair] = set()
    for model in enumerate_models(theta_size, max_space, max_denominator):
        for x in range(model.n_points):
            pair = canonical_form(ModelDataPair(model, x))
            if pair not in seen:
                seen.add(pair)
                yield pair


def search_c_transitivity_counterexample(
    bounds: SearchBounds = SearchBounds(),
) -> Optional[TransitivityCounterexample]:
    for model in enumerate_models(
        bounds.theta_size, bounds.max_space, bounds.max_denominator
    ):
        for x in range(model.n_points):
            p2 = ModelDataPair(model, x)
            conditionals = []
            seen: set[ModelDataPair] = set()
            for _, cond in conditional_pairs(p2):
                key = canonical_form(cond)
                if key not in seen:
                    seen.add(key)
                    conditionals.append(cond)
            for i, pa in enumerate(conditionals):
                for pb in conditionals[i + 1 :]:
                    if c_related(pa, pb) is not None:
                        continue
                    w12 = c_related(pa, p2)
                    w23 = c_related(p2, pb)
                    assert w12 is not None and w23 is not None
                    return TransitivityCounterexample(pa, p2, pb, w12, w23)
    return None
