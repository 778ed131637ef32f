"""Bit-exact file and report serialization.

Model, pair and prior files are JSON with every probability written as a
canonical rational string, so parse(serialize(v)) == v exactly. A command's
report is a dictionary of library values (models, pairs, priors, witnesses,
chains, Fractions, ...); :func:`render_machine` is the one place that turns
it into JSON, through :func:`to_jsonable` and the same rational rendering.
"""

from __future__ import annotations

import dataclasses
import enum
import json
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


def model_to_dict(model: FiniteModel) -> dict:
    return {
        "theta": list(model.theta_labels),
        "space": list(model.sample_labels),
        "probs": [
            [format_rational(v) for v in row] for row in model.probs
        ],
    }


def _scalars(value: Any) -> bool:
    """An array of labels or exact rationals ("p/q" or an integer): JSON
    strings or integers. bool is a type of its own, so true and false are
    neither."""
    return type(value) is list and all(type(v) in (str, int) for v in value)


def _rows(value: Any) -> bool:
    return type(value) is list and all(map(_scalars, value))


def _string(value: Any) -> bool:
    return type(value) is str


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


def _model(data: dict) -> FiniteModel:
    return validate_model(data["theta"], data["space"], data["probs"])


def model_from_dict(data: dict) -> FiniteModel:
    check_schema(data, "model")
    return _model(data)


def pair_to_dict(pair: ModelDataPair) -> dict:
    data = model_to_dict(pair.model)
    data["observed"] = pair.observed_label
    return data


def pair_from_dict(data: dict) -> ModelDataPair:
    check_schema(data, "pair")
    model = _model(data)
    observed = data["observed"]
    if observed not in model.sample_labels:
        raise LpLabError(f"observed label {observed!r} not in sample space")
    return ModelDataPair(model, model.sample_labels.index(observed))


def prior_to_dict(prior: Prior) -> dict:
    return {
        "theta": list(prior.theta_labels),
        "weights": [format_rational(w) for w in prior.weights],
    }


def prior_from_dict(data: dict) -> Prior:
    check_schema(data, "prior")
    return Prior.of(data["theta"], data["weights"])


def load_json(path: str | Path) -> dict:
    """The JSON object held by a model, pair or prior file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise LpLabError(f"cannot read {path}: {exc}")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LpLabError(f"{path} is not valid JSON: {exc}")
    if type(data) is not dict:
        raise LpLabError(f"{path} must hold a JSON object")
    return data


def load_model(path: str | Path) -> FiniteModel:
    return model_from_dict(load_json(path))


def load_pair(path: str | Path) -> ModelDataPair:
    return pair_from_dict(load_json(path))


def load_prior(path: str | Path) -> Prior:
    return prior_from_dict(load_json(path))


def _dump(data: dict, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def save_model(model: FiniteModel, path: str | Path) -> None:
    _dump(model_to_dict(model), path)


def save_pair(pair: ModelDataPair, path: str | Path) -> None:
    _dump(pair_to_dict(pair), path)


def save_prior(prior: Prior, path: str | Path) -> None:
    _dump(prior_to_dict(prior), path)


def partition_to_labels(
    partition: Partition, sample_labels
) -> list[list[str]]:
    return [
        [sample_labels[x] for x in sorted(block)]
        for block in partition.blocks
    ]


# JSON leaves, matched by exact type: most of the values rendered are these
_JSON_LEAVES = frozenset({type(None), str, int, bool})


def to_jsonable(value: Any) -> Any:
    """Render any lp-lab value as JSON-able data with exact rationals."""
    if type(value) in _JSON_LEAVES:
        return value
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
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
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, (set, frozenset)):
        return [to_jsonable(v) for v in sorted(value, key=repr)]
    if isinstance(value, (str, int)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def render_machine(payload: Any) -> str:
    """Deterministic machine rendering: sorted keys, no whitespace drift."""
    return json.dumps(to_jsonable(payload), indent=2, sort_keys=True)
