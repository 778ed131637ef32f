"""render_machine against the earlier, isinstance-first to_jsonable.

`to_jsonable` now returns JSON leaves by exact type and walks dict, list
and tuple before it tries the lp-lab types. `_reference_to_jsonable` keeps
the earlier order of tests; on any nested value both must render the same
--machine text.
"""

import dataclasses
import enum
import json
from fractions import Fraction
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lp_lab import fixtures
from lp_lab.evidence import Direction, HypothesisRecord, Prior
from lp_lab.model import FiniteModel, ModelDataPair, format_rational, pair_at
from lp_lab.partition import Partition
from lp_lab.relations import ClosureEdge, RelationKind
from lp_lab.serialization import (
    model_to_dict,
    pair_to_dict,
    prior_to_dict,
    render_machine,
)


def _reference_to_jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, FiniteModel):
        return model_to_dict(value)
    if isinstance(value, ModelDataPair):
        return pair_to_dict(value)
    if isinstance(value, Prior):
        return prior_to_dict(value)
    if isinstance(value, Partition):
        return [sorted(block) for block in value.blocks]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _reference_to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _reference_to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [_reference_to_jsonable(v) for v in items]
    if value is None or isinstance(value, (str, int, bool)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _reference_render(payload: Any) -> str:
    return json.dumps(
        _reference_to_jsonable(payload), indent=2, sort_keys=True
    )


fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
enums = st.sampled_from(list(Direction) + list(RelationKind))
partitions = st.lists(st.integers(0, 3), min_size=1, max_size=5).map(
    Partition.from_labels
)
hashable = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=4),
    fractions,
    enums,
    partitions,
)
records = st.builds(
    HypothesisRecord,
    st.lists(st.text(max_size=3), max_size=3).map(tuple),
    fractions,
    fractions,
    st.none() | fractions,
    st.sampled_from(list(Direction)),
    st.none() | fractions,
)
edges = st.builds(
    ClosureEdge, st.integers(0, 9), st.integers(0, 9), enums, fractions
)
library_values = st.sampled_from(
    [fixtures.fix_d(), pair_at(fixtures.fix_b(), "y1"), fixtures.fix_e()]
)
leaves = st.one_of(hashable, records, edges, library_values)
values = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.integers() | st.text(max_size=3), children, max_size=4
        ),
        st.sets(hashable, max_size=4),
        st.frozensets(hashable, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_render_machine_matches_reference(value):
    assert render_machine(value) == _reference_render(value)


@pytest.mark.parametrize("value", [object(), 1.5, b"x", [1, {2: 2.5}]])
def test_both_reject_non_json_values(value):
    with pytest.raises(TypeError):
        render_machine(value)
    with pytest.raises(TypeError):
        _reference_render(value)
