"""render_machine against json.dumps of to_jsonable on edge cases.

render_machine writes the text of ``json.dumps(to_jsonable(v), indent=2,
sort_keys=True)`` without building the intermediate tree for models and
pairs. These cases pin what a random draw rarely reaches: keys that
collide once stringified, labels that need escaping, empty containers at
every depth, booleans beside integers and a one-point model.
"""

import json
from fractions import Fraction

import pytest

from lp_lab import fixtures
from lp_lab.model import FiniteModel, ModelDataPair, pair_at, validate_model
from lp_lab.relations import RelationKind
from lp_lab.serialization import render_machine, to_jsonable

LABELS = ["é", "\u2028", '"', "\\", "a\nb", "\x00", "\U0001f600", "/"]


def _reference(value):
    return json.dumps(to_jsonable(value), indent=2, sort_keys=True)


def _escaped_model():
    return validate_model(
        LABELS[:2], LABELS, [["1/8"] * 8, ["1/2", "1/2"] + ["0"] * 6]
    )


CASES = [
    {1: "int key", "1": "str key"},
    {"1": "str key", 1: "int key"},
    {True: 1, "True": 2, None: 3, Fraction(1, 2): 4, RelationKind.S: 5},
    LABELS,
    {label: label for label in LABELS},
    [],
    (),
    {},
    [[]],
    [(), {}],
    {"a": [], "b": {}, "c": ()},
    [[[]], [{}], {"x": [[]]}],
    [True, 1, False, 0, None],
    {"flag": True, "count": 1},
    FiniteModel(("t",), ("only",), 1, ((1,),)),
    ModelDataPair(FiniteModel(("t",), ("only",), 1, ((1,),)), 0),
    ModelDataPair(FiniteModel((1, 2), (3, "y"), 2, ((1, 1), (2, 0))), 0),
    _escaped_model(),
    ModelDataPair(_escaped_model(), 3),
    {"models": [_escaped_model(), fixtures.fix_d()], "empty": []},
    [pair_at(fixtures.fix_b(), "y2"), Fraction(-3, 4), 2**80, -7],
    "é",
    7,
    None,
]


@pytest.mark.parametrize("value", CASES, ids=range(len(CASES)))
def test_render_machine_matches_json_dumps(value):
    assert render_machine(value) == _reference(value)


@pytest.mark.parametrize("value", [1.5, [1, 2.0], {"p": 0.5}, (0.0,)])
def test_float_is_refused(value):
    with pytest.raises(TypeError):
        render_machine(value)
