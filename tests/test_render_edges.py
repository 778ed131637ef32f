"""render_machine against json.dumps of to_jsonable on edge cases.

render_machine writes the text of ``json.dumps(to_jsonable(v), indent=2,
sort_keys=True)``, with ``to_jsonable`` the dictionary-building reference
of ``render_reference``, without building any intermediate tree. These
cases pin what a random draw rarely reaches: keys that collide once
stringified, labels that need escaping, empty containers at every depth,
booleans beside integers, a one-point model, subclasses of the types that
have an exact-type fast path, one value of each other type it takes, and
a model built from lists, which does not hash.

Arrays whose elements are all exact ints, and arrays of strings, are
joined in C without one render per element; every other array, one that
holds a bool, an IntEnum member or another int subclass among ints
included, goes element by element, so true and false never print as 1
and 0.

render_machine caches the text of each model whose labels are all exactly
str. Models whose labels differ only in numeric type are equal, yet each
must still print its own labels, and a float label must still be refused,
whatever was rendered before.
"""

import dataclasses
import enum
import json
from collections import OrderedDict, namedtuple
from fractions import Fraction

import pytest

from lp_lab import fixtures, serialization
from lp_lab.model import (
    FiniteModel,
    ModelDataPair,
    format_rational,
    pair_at,
    validate_model,
)
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


class _Rational(Fraction):
    pass


@dataclasses.dataclass(frozen=True)
class _Record:
    name: str
    value: Fraction
    kind: RelationKind


_Point = namedtuple("_Point", "label mass")


class _Size(enum.IntEnum):
    ONE = 1
    TWO = 2


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
    FiniteModel(("t",), ["a", "b"], 2, [[1, 1]]),
    ModelDataPair(FiniteModel(("t",), ("a", "b"), 2, ([1, 1],)), 1),
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
    # arrays of exact ints
    [0, 1, -2, 2**80],
    (3,),
    # arrays of bools, and bools beside ints in either order
    [True, False],
    (False,),
    [1, True, 0, False],
    [True, 1],
    (0, False),
    # IntEnum members and int subclasses among ints
    [_Size.ONE, 2],
    (2, _Size.TWO),
    [_Count(4), 5],
    (5, _Count(-4)),
    # tuples of Fractions, and a Fraction subclass
    (Fraction(1, 2), Fraction(-3), Fraction(0)),
    (_Rational(-2, 6), Fraction(1, 3), {"mass": _Rational(4)}),
    [(Fraction(5, 7),), (Fraction(2), 1)],
    # str subclasses beside str
    ["a", _Label("b")],
    (_Label('c"'), "d"),
    # empty lists and tuples
    [[], ()],
    ((), []),
    {"list": [], "tuple": ()},
    # nested int tuples, as closure classes hold them
    ((0, 2, 5), (1,), (3, 4)),
    {"classes": ((0,), (1, 2)), "edges": [{"i": 0, "j": 2, "kind": RelationKind.C}]},
]


@pytest.mark.parametrize("value", CASES, ids=range(len(CASES)))
def test_render_machine_matches_json_dumps(value):
    assert render_machine(value) == _reference(value)


def _render_calls(monkeypatch, value):
    """The values ``_render`` is called on while rendering ``value``."""
    calls = []
    render = serialization._render

    def counted(v, nl):
        calls.append(v)
        return render(v, nl)

    monkeypatch.setattr(serialization, "_render", counted)
    assert render_machine(value) == _reference(value)
    return calls


@pytest.mark.parametrize(
    "value", [[0, 1, -2], (2**80,), ["a", _Label("b")], ("é", "\u2028"), [], ()]
)
def test_flat_array_renders_in_one_call(monkeypatch, value):
    assert _render_calls(monkeypatch, value) == [value]


@pytest.mark.parametrize(
    "value", [[1, True], [True, 1], [_Size.ONE, 2], [2, _Count(3)], ["a", 1]]
)
def test_mixed_array_renders_element_by_element(monkeypatch, value):
    calls = _render_calls(monkeypatch, value)
    assert calls[0] is value
    assert all(any(call is v for call in calls[1:]) for v in value)


@pytest.mark.parametrize("value", [1.5, [1, 2.0], {"p": 0.5}, (0.0,)])
def test_float_is_refused(value):
    with pytest.raises(TypeError):
        render_machine(value)


def _twin(label):
    """A model whose labels are ``label`` and "2": twins whose labels differ
    only in numeric type are equal models."""
    return FiniteModel((label,), (label, "2"), 2, ((1, 1),))


def _twin_text(label, pair: bool) -> str:
    """What json.dumps prints for the twin's reference dict."""
    shown = format_rational(label) if isinstance(label, Fraction) else label
    data = {"theta": [shown], "space": [shown, "2"], "probs": [["1/2", "1/2"]]}
    if pair:
        data["observed"] = shown
    return json.dumps(data, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "first, second",
    [(1, True), (True, 1), (1, Fraction(1)), (Fraction(1), 1)],
    ids=["1-True", "True-1", "1-Fraction", "Fraction-1"],
)
def test_equal_models_print_their_own_labels(first, second):
    assert _twin(first) == _twin(second)
    assert hash(_twin(first)) == hash(_twin(second))
    serialization._model_text.cache_clear()
    for _ in range(2):  # the second round runs with the cache warm
        for label in (first, second, "1"):
            assert render_machine(_twin(label)) == _twin_text(label, pair=False)
            pair = ModelDataPair(_twin(label), 0)
            assert render_machine(pair) == _twin_text(label, pair=True)
    # only the model and the pair whose labels are all str were cached
    assert serialization._model_text.cache_info().currsize == 2


def test_float_label_is_refused_after_an_equal_int_label():
    assert _twin(1.0) == _twin(1)
    render_machine(_twin(1))
    render_machine(ModelDataPair(_twin(1), 0))
    with pytest.raises(TypeError):
        render_machine(_twin(1.0))
    with pytest.raises(TypeError):
        render_machine(ModelDataPair(_twin(1.0), 0))
