import json
import random
from fractions import Fraction

import pytest

from lp_lab.errors import LpLabError
from lp_lab.evidence import Prior, evidence_report
from lp_lab.model import ModelDataPair, format_rational, pair_at
from lp_lab.relations import birnbaum_chain
from lp_lab.search import enumerate_models
from lp_lab.serialization import (
    load_model,
    load_pair,
    load_prior,
    model_from_dict,
    pair_from_dict,
    prior_from_dict,
    render_machine,
    save_model,
    save_pair,
    save_prior,
)
from random_models import random_l_related_pair, random_model
from render_reference import _dump, model_to_dict, pair_to_dict, prior_to_dict


def _same_file(path, reference_data):
    """The file at ``path`` holds the reference writer's bytes."""
    reference = path.with_suffix(".reference")
    _dump(reference_data, reference)
    return path.read_bytes() == reference.read_bytes()


def test_model_round_trip(fa, fb, fc, fd, tmp_path):
    for model in (fa, fb, fc, fd):
        path = tmp_path / "m.model"
        save_model(model, path)
        assert load_model(path) == model
        assert _same_file(path, model_to_dict(model))


def test_pair_round_trip(fa, tmp_path):
    pair = pair_at(fa, "x2")
    path = tmp_path / "p.pair"
    save_pair(pair, path)
    assert load_pair(path) == pair
    assert _same_file(path, pair_to_dict(pair))


def test_prior_round_trip(fe, tmp_path):
    path = tmp_path / "p.prior"
    save_prior(fe, path)
    assert load_prior(path) == fe
    assert _same_file(path, prior_to_dict(fe))


def _data(value):
    """The JSON object render_machine writes for ``value``, parsed."""
    return json.loads(render_machine(value))


def test_dict_round_trip_is_exact(fa):
    assert model_from_dict(_data(fa)) == fa
    pair = pair_at(fa, "x3")
    assert pair_from_dict(_data(pair)) == pair
    prior = Prior.of(["t1", "t2"], ["2/7", "5/7"])
    assert prior_from_dict(_data(prior)) == prior


def test_missing_fields_raise(fa):
    data = _data(fa)
    del data["probs"]
    with pytest.raises(LpLabError):
        model_from_dict(data)
    with pytest.raises(LpLabError):
        pair_from_dict(_data(fa))


def test_unknown_observed_label_raises(fa):
    data = _data(fa)
    data["observed"] = "zz"
    with pytest.raises(LpLabError):
        pair_from_dict(data)


def test_rationals_serialized_canonically():
    prior = Prior.of(["t1", "t2"], ["2/4", "1/2"])
    assert _data(prior)["weights"] == ["1/2", "1/2"]


def test_chain_serializes_and_rationals_reparse(fb, fc):
    chain = birnbaum_chain(pair_at(fb, "y2"), pair_at(fc, "z1"))
    text = render_machine(chain)
    data = json.loads(text)
    assert len(data["nodes"]) == 4
    first = data["nodes"][0]
    reparsed = pair_from_dict(first)
    assert reparsed == pair_at(fb, "y2")


def test_render_machine_deterministic(fb, fe):
    report = evidence_report(pair_at(fb, "y1"), fe, [["t1"]])
    assert render_machine(report) == render_machine(report)
    assert "0.6" not in render_machine(report)  # no floats anywhere


def test_render_machine_rejects_unknown_types():
    with pytest.raises(TypeError):
        render_machine(object())


def test_render_machine_fraction():
    assert _data(Fraction(6, 4)) == "3/2"


def _fraction_probs(model):
    """The model's entries rendered from its Fractions: the reference for
    the integer rendering of render_machine."""
    return [[format_rational(v) for v in row] for row in model.probs]


def _rendered_models():
    yield from enumerate_models(2, 4, 6)
    for seed in range(100):
        rng = random.Random(seed)
        yield random_model(
            rng, rng.randint(1, 3), rng.randint(1, 4), rng.choice((4, 12, 60))
        )
        for pair in random_l_related_pair(rng):
            yield pair.model


def test_integer_rendering_matches_fraction_rendering(tmp_path):
    path = tmp_path / "m.pair"
    for model in _rendered_models():
        assert _data(model)["probs"] == _fraction_probs(model)
        pair = ModelDataPair(model, model.n_points - 1)
        save_pair(pair, path)
        reference = {
            "theta": list(model.theta_labels),
            "space": list(model.sample_labels),
            "probs": _fraction_probs(model),
            "observed": pair.observed_label,
        }
        expected = json.dumps(reference, indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode("utf-8")
