"""Dictionaries and json.dumps: the JSON that lp-lab writes, for tests
only.

``to_jsonable`` turns any lp-lab value into JSON-able data with exact
rationals, ``model_to_dict``, ``pair_to_dict`` and ``prior_to_dict`` build
the dictionaries of model, pair and prior files, and ``_dump`` writes a
file as ``json.dumps(indent=2, sort_keys=True)`` and a newline. The library
writes all of these texts with ``serialization.render_machine`` alone, with
no intermediate dictionary; the render and file tests compare the two.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Any

from lp_lab.evidence import Prior
from lp_lab.model import FiniteModel, ModelDataPair, format_rational
from lp_lab.partition import Partition


def _entry(p: int, q: int) -> str:
    """p/q rendered as format_rational renders Fraction(p, q)."""
    g = math.gcd(p, q)
    return f"{p // g}/{q // g}" if g != q else str(p // g)


def model_to_dict(model: FiniteModel) -> dict:
    """Entries are rendered from ``den`` and ``rows``, one gcd each."""
    den = model.den
    return {
        "theta": list(model.theta_labels),
        "space": list(model.sample_labels),
        "probs": [[_entry(v, den) for v in row] for row in model.rows],
    }


def pair_to_dict(pair: ModelDataPair) -> dict:
    data = model_to_dict(pair.model)
    data["observed"] = pair.observed_label
    return data


def prior_to_dict(prior: Prior) -> dict:
    return {
        "theta": list(prior.theta_labels),
        "weights": [format_rational(w) for w in prior.weights],
    }


def _dump(data: dict, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


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
        return [list(block) for block in value.blocks]
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
