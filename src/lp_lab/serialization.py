"""Bit-exact file and report serialization.

Model, pair and prior files are JSON with every probability written as a
canonical rational string, so parse(serialize(v)) == v exactly.
:func:`render_machine` is the one writer of JSON text: files and the
``--machine`` payloads of commands (dictionaries of models, pairs, priors,
witnesses, chains, Fractions, ...) both go through it. It writes the bytes
``json.dumps(indent=2, sort_keys=True)`` gives for the value's JSON form,
with no intermediate dictionary: models and pairs from ``den`` and
``rows``, arrays of strings or exact ints in C. That JSON form, built as
dictionaries, is the test reference ``tests/render_reference.py``.
``FiniteModel.probs`` is for library callers and block masses. Each
distinct (model, indent, observed label) is rendered once per process and
held in a ``functools.lru_cache`` of LOAD_CACHE_SIZE entries, so the five
closure kinds over one directory print each member from one rendering.
Only models whose labels are all exactly ``str`` are cached: equal labels
of other types, such as 1, True and Fraction(1), print differently.

:func:`load_model`, :func:`load_pair`, :func:`load_prior` and
:func:`load_pair_or_model` (``validate``'s, which takes the kind from the
"observed" field) read a file's text on every call, then return the value
held for that text and kind in one ``functools.lru_cache`` of
LOAD_CACHE_SIZE entries. Text not seen before is parsed, shape-checked and
validated; errors are never cached, so a bad file fails the same way on
every load. ``validate``'s kind is held in that cache as the text's entry of
kind None, so a text seen before is decoded by no load, validate included.
Repeated commands in one process (``cli.run`` called from Python) share
one value per distinct file, and with it its canonical form and
likelihoods.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import LpLabError
from .evidence import Prior
from .model import (
    FiniteModel,
    ModelDataPair,
    format_rational,
    validate_model,
)
from .partition import Partition


def _entry(p: int, q: int) -> str:
    """p/q rendered as format_rational renders Fraction(p, q)."""
    g = math.gcd(p, q)
    return f"{p // g}/{q // g}" if g != q else str(p // g)


def _scalars(value: Any) -> bool:
    """An array of labels or exact rationals ("p/q" or an integer): JSON
    strings or integers. bool is a type of its own, so true and false are
    neither."""
    return type(value) is list and all(type(v) in (str, int) for v in value)


def _rows(value: Any) -> bool:
    return type(value) is list and all(map(_scalars, value))


def _string(value: Any) -> bool:
    return type(value) is str


def _utf8(value: Any) -> bool:
    """No string in a label or an array of labels holds a lone surrogate,
    such as JSON's "\\ud800", which no UTF-8 output can show."""
    texts = [value] if type(value) is str else [v for v in value if type(v) is str]
    try:
        "".join(texts).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


_LABELS = ("theta", "space", "observed")

# field -> (shape test, what the field must be)
_SHAPES = {
    "theta": (_scalars, "an array of strings or integers"),
    "space": (_scalars, "an array of strings or integers"),
    "probs": (_rows, 'an array of rows of rationals such as "1/2"'),
    "observed": (_string, "a string"),
    "weights": (_scalars, 'an array of rationals such as "1/2"'),
}
_FIELDS = {
    "model": ("theta", "space", "probs"),
    "pair": ("theta", "space", "probs", "observed"),
    "prior": ("theta", "weights"),
}


def check_schema(data: Any, kind: str) -> None:
    """Raise LpLabError unless ``data`` has the JSON shape of a ``kind``
    ("model", "pair" or "prior") description. Values are checked later."""
    if type(data) is not dict:
        raise LpLabError("description must be a JSON object")
    for field in _FIELDS[kind]:
        valid, expected = _SHAPES[field]
        if field not in data:
            raise LpLabError(f"missing field '{field}' in {kind} description")
        if not valid(data[field]):
            raise LpLabError(
                f"field '{field}' of the {kind} description must be {expected}"
            )
        if field in _LABELS and not _utf8(data[field]):
            raise LpLabError(
                f"field '{field}' of the {kind} description holds a label "
                "that cannot be written as UTF-8"
            )


def _model(data: dict) -> FiniteModel:
    return validate_model(data["theta"], data["space"], data["probs"])


def model_from_dict(data: dict) -> FiniteModel:
    check_schema(data, "model")
    return _model(data)


def pair_from_dict(data: dict) -> ModelDataPair:
    check_schema(data, "pair")
    model = _model(data)
    observed = data["observed"]
    if observed not in model.sample_labels:
        raise LpLabError(f"observed label {observed!r} not in sample space")
    return ModelDataPair(model, model.sample_labels.index(observed))


def prior_from_dict(data: dict) -> Prior:
    check_schema(data, "prior")
    return Prior.of(data["theta"], data["weights"])


class _NotAnObject(Exception):
    """JSON text that does not decode to an object; the message is
    completed with the file's path."""


def _decode(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise _NotAnObject(f"is not valid JSON: {exc}")
    except RecursionError:
        raise _NotAnObject("is not valid JSON: nested too deeply") from None
    except ValueError:  # an integer literal beyond int's digit limit
        limit = sys.get_int_max_str_digits()
        raise _NotAnObject(f"holds an integer of more than {limit} digits") from None
    if type(data) is not dict:
        raise _NotAnObject("must hold a JSON object")
    return data


_FROM_DICT = {"model": model_from_dict, "pair": pair_from_dict, "prior": prior_from_dict}

# Entries kept by the load cache, one per distinct (file text, kind), and
# by the render cache, one per distinct (model, indent, observed label).
# One pass of the benchmark at seed 7 peaks at 296 texts (the distinct texts
# of its 311 files) and 241 renderings (closure), 245 entries (195 texts of
# 200 files, and validate's kind None for 50 of them) and 267 renderings
# (evidence), and 103 of each (catalog), so no workload evicts.
LOAD_CACHE_SIZE = 1024


@functools.lru_cache(maxsize=LOAD_CACHE_SIZE)
def _value(text: str, kind: str | None) -> FiniteModel | ModelDataPair | Prior | str:
    """The validated ``kind`` that ``text`` describes; for None, only the text's
    kind, so a value has one entry: "pair" if "observed" is a field, else "model"."""
    data = _decode(text)
    if kind is None:
        return "pair" if "observed" in data else "model"
    return _FROM_DICT[kind](data)


def _load(path: str | Path, kind: str | None):
    """The ``kind`` the file holds (its own kind if None); every error names the
    file. The read is unbuffered: the ``FileIO`` under any buffer raises
    every open error, and a buffer adds an isatty and a second fstat."""
    try:
        with open(path, "rb", buffering=0) as file:
            text = file.read().decode("utf-8")
    except OSError as exc:
        raise LpLabError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise LpLabError(f"{path} is not UTF-8 text: {exc}") from None
    try:
        return _value(text, kind or _value(text, None))
    except _NotAnObject as exc:
        raise LpLabError(f"{path} {exc}") from None


def load_pair_or_model(path: str | Path) -> ModelDataPair | FiniteModel:
    """A pair if the file's object has an "observed" field, else a model:
    the value load_pair or load_model returns for the same text."""
    return _load(path, None)


def load_model(path: str | Path) -> FiniteModel:
    return _load(path, "model")


def load_pair(path: str | Path) -> ModelDataPair:
    return _load(path, "pair")


def load_prior(path: str | Path) -> Prior:
    return _load(path, "prior")


def _dump(value: Any, path: str | Path) -> None:
    Path(path).write_text(render_machine(value) + "\n", encoding="utf-8")


def save_model(model: FiniteModel, path: str | Path) -> None:
    _dump(model, path)


def save_pair(pair: ModelDataPair, path: str | Path) -> None:
    _dump(pair, path)


def save_prior(prior: Prior, path: str | Path) -> None:
    _dump(prior, path)


def partition_to_labels(
    partition: Partition, sample_labels
) -> list[list[str]]:
    return [[sample_labels[x] for x in block] for block in partition.blocks]


_encode = json.encoder.encode_basestring_ascii


def _block(parts: list[str], nl: str, brackets: str) -> str:
    """A JSON array or object of rendered ``parts``, at the indent of ``nl``
    (a newline and the indent of the line that opens it)."""
    if not parts:
        return brackets
    inner = nl + "  "
    return f"{brackets[0]}{inner}{(',' + inner).join(parts)}{nl}{brackets[1]}"


@functools.lru_cache(maxsize=LOAD_CACHE_SIZE)
def _model_text(model: FiniteModel, nl: str, observed: Any) -> str:
    """A model's object {"probs", "space", "theta"} (and "observed" for a
    pair), rendered from ``den`` and ``rows``."""
    inner, den = nl + "  ", model.den
    probs = [
        _block([f'"{_entry(v, den)}"' for v in row], inner + "  ", "[]")
        for row in model.rows
    ]
    fields = [
        f'"probs": {_block(probs, inner, "[]")}',
        f'"space": {_render(model.sample_labels, inner)}',
        f'"theta": {_render(model.theta_labels, inner)}',
    ]
    if observed is not None:
        fields.insert(0, f'"observed": {_render(observed, inner)}')
    return _block(fields, nl, "{}")


def _render_model(model: FiniteModel, nl: str, observed: Any = None) -> str:
    """_model_text, from the render cache when every label is exactly a str.

    Equal models need not print alike: the labels 1, True and Fraction(1)
    are equal, yet print as 1, true and "1", and a float label raises
    TypeError. A cache keyed by such a model would print whichever came
    first, so every other model is rendered afresh, as is one built from
    lists, which does not hash. Whether the labels are all str is decided
    once per model instance, never by model equality. Entries print
    through integer division, so equal rows print alike.
    """
    if model.labels_are_str:
        try:
            return _model_text(model, nl, observed)
        except TypeError:  # a model built from lists
            pass
    return _model_text.__wrapped__(model, nl, observed)


def _render(value: Any, nl: str) -> str:
    """The JSON text of ``value`` as json.dumps(indent=2, sort_keys=True)
    writes it, with ``nl`` the newline and indent of the enclosing line.

    Exact types come first, the most frequent first: str; int; a list or
    tuple, joined in C if its elements are all exact ints or all strings
    (the first element picks which is tried), else rendered one by one;
    dict; a Fraction as "p/q"; then an enum as its value, pairs and models
    by isinstance; then None and bool. Every other value is tried by
    isinstance in a fixed order: subclasses of dict, list, tuple and
    Fraction; a prior as {"theta", "weights"}; a partition as its blocks;
    any other dataclass field by field; a set sorted by repr; subclasses
    of str and int. Anything else, a float included, raises TypeError.
    """
    kind = type(value)
    if kind is str:
        return _encode(value)
    if kind is int:
        return int.__repr__(value)
    if kind is list or kind is tuple:
        head = type(value[0]) if value else str
        if head is int and set(map(type, value)) == {int}:
            return _block(list(map(int.__repr__, value)), nl, "[]")
        if head is str:
            try:  # an array of strings, such as labels
                return _block(list(map(_encode, value)), nl, "[]")
            except TypeError:
                pass
        inner = nl + "  "
        return _block([_render(v, inner) for v in value], nl, "[]")
    if kind is dict:
        inner = nl + "  "
        if set(map(type, value)) != {str}:  # keys print as their str
            value = {str(k): v for k, v in value.items()}
        parts = [f"{_encode(k)}: {_render(value[k], inner)}" for k in sorted(value)]
        return _block(parts, nl, "{}")
    if kind is Fraction:
        return _encode(format_rational(value))
    if isinstance(value, enum.Enum):
        return _render(value.value, nl)
    if isinstance(value, ModelDataPair):
        return _render_model(value.model, nl, value.observed_label)
    if isinstance(value, FiniteModel):
        return _render_model(value, nl)
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if isinstance(value, dict):
        return _render({str(k): v for k, v in value.items()}, nl)
    if isinstance(value, (list, tuple)):
        return _render(list(value), nl)
    if isinstance(value, Fraction):
        return _encode(format_rational(value))
    if isinstance(value, Prior):
        weights = [format_rational(w) for w in value.weights]
        return _render({"theta": value.theta_labels, "weights": weights}, nl)
    if isinstance(value, Partition):
        return _render(value.blocks, nl)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = dataclasses.fields(value)
        return _render({f.name: getattr(value, f.name) for f in fields}, nl)
    if isinstance(value, (set, frozenset)):
        return _render(sorted(value, key=repr), nl)
    if isinstance(value, str):
        return _encode(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_machine(payload: Any) -> str:
    """The deterministic JSON text of ``payload``, as json.dumps(indent=2,
    sort_keys=True) writes it, with no trailing newline: the one writer of
    ``--machine`` output and of model, pair and prior files."""
    return _render(payload, "\n")
