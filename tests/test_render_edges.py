"""render_machine against json.dumps of to_jsonable on edge cases.

render_machine writes the text of ``json.dumps(to_jsonable(v), indent=2,
sort_keys=True)``, with ``to_jsonable`` the dictionary-building reference
of ``render_reference``, without building any intermediate tree. These
cases pin what a random draw rarely reaches: keys that collide once
stringified, labels that need escaping, empty containers at every depth,
booleans beside integers, a one-point model, subclasses of the types that
have an exact-type fast path, and one value of each other type it takes.
"""

import dataclasses
import json
from collections import OrderedDict, namedtuple
from fractions import Fraction

import pytest

from lp_lab import fixtures
from lp_lab.model import FiniteModel, ModelDataPair, pair_at, validate_model
from lp_lab.partition import Partition
from lp_lab.relations import RelationKind
from lp_lab.serialization import render_machine
from render_reference import to_jsonable

LABELS = ["é", "\u2028", '"', "\\", "a\nb", "\x00", "\U0001f600", "/"]


def _reference(value):
    return json.dumps(to_jsonable(value), indent=2, sort_keys=True)


class _Labels(list):
    pass


class _Model(FiniteModel):
    pass


class _Pair(ModelDataPair):
    pass


class _Label(str):
    pass


class _Count(int):
    pass


@dataclasses.dataclass(frozen=True)
class _Record:
    name: str
    value: Fraction
    kind: RelationKind


_Point = namedtuple("_Point", "label mass")


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
    OrderedDict([("b", Fraction(1, 3)), (2, []), ("2", "later")]),
    _Labels(["x", 1, _Labels()]),
    [_Model(("t",), ("only",), 1, ((1,),)), _Pair(fixtures.fix_d(), 1)],
    _Point("é", Fraction(2, 4)),
    [_Label('a"b'), _Count(-5), {_Label("k"): _Count(3)}],
    frozenset({"b", "a", Fraction(1, 2), RelationKind.C}),
    {"blocks": Partition.of(4, [[0, 2], [1], [3]]), "prior": fixtures.fix_e()},
    [
        _Record("r", Fraction(-7, 3), RelationKind.S_OR_C),
        _Record("", Fraction(0), RelationKind.L),
    ],
]


@pytest.mark.parametrize("value", CASES, ids=range(len(CASES)))
def test_render_machine_matches_json_dumps(value):
    assert render_machine(value) == _reference(value)


@pytest.mark.parametrize("value", [1.5, [1, 2.0], {"p": 0.5}, (0.0,)])
def test_float_is_refused(value):
    with pytest.raises(TypeError):
        render_machine(value)
