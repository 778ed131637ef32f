import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lp_lab import cli, relations, serialization
from lp_lab.errors import LpLabError
from lp_lab.evidence import Prior, evidence_report
from lp_lab.model import (
    FiniteModel,
    ModelDataPair,
    format_rational,
    pair_at,
    validate_model,
)
from lp_lab.relations import RelationKind, Universe, birnbaum_chain
from lp_lab.search import enumerate_models
from lp_lab.serialization import (
    LOAD_CACHE_SIZE,
    load_model,
    load_pair,
    load_pair_or_model,
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


# -- the load cache --------------------------------------------------------


@pytest.fixture
def validations(monkeypatch):
    """The arguments of every validate_model call from here on, with the
    load cache emptied first."""
    calls = []
    original = serialization.validate_model

    def counting(*args):
        calls.append(args)
        return original(*args)

    serialization._value.cache_clear()
    monkeypatch.setattr(serialization, "validate_model", counting)
    return calls


def test_loads_of_one_file_share_one_value(fa, tmp_path, validations):
    path = tmp_path / "p.pair"
    save_pair(pair_at(fa, "x2"), path)
    first = load_pair(path)
    assert load_pair(str(path)) is first
    assert len(validations) == 1
    # the same bytes under another name are the same value
    twin = tmp_path / "twin.pair"
    twin.write_bytes(path.read_bytes())
    assert load_pair(twin) is first
    assert len(validations) == 1


def test_validate_shares_the_load_cache(fa, fd, tmp_path, validations, capsys):
    pair, model = tmp_path / "p.pair", tmp_path / "m.model"
    save_pair(pair_at(fa, "x2"), pair)
    save_model(fd, model)
    assert cli.run(["validate", str(pair)]) == 0
    assert cli.run(["reduce", str(pair)]) == 0
    assert len(validations) == 1
    assert cli.run(["validate", str(model)]) == 0
    assert cli.run(["ancillaries", str(model)]) == 0
    assert len(validations) == 2
    assert load_pair_or_model(pair) is load_pair(pair)
    assert load_pair_or_model(model) is load_model(model)
    assert len(validations) == 2


def test_validate_decodes_each_text_once(fa, fd, tmp_path, validations, monkeypatch):
    decodes = []
    decode = serialization._decode

    def counting(text):
        decodes.append(text)
        return decode(text)

    serialization._value.cache_clear()
    monkeypatch.setattr(serialization, "_decode", counting)
    pair, model = tmp_path / "p.pair", tmp_path / "m.model"
    save_pair(pair_at(fa, "x2"), pair)
    save_model(fd, model)
    for path, load in ((pair, load_pair), (model, load_model)):
        decodes.clear()
        value = load_pair_or_model(path)
        assert len(decodes) == 2  # its kind, then its value
        for _ in range(2):
            assert load_pair_or_model(path) is value
        assert load(path) is value
        assert len(decodes) == 2
    assert len(validations) == 2


def test_rewritten_file_gives_its_new_value(fa, fb, tmp_path, validations):
    path = tmp_path / "p.pair"
    save_pair(pair_at(fa, "x2"), path)
    assert load_pair(path) == pair_at(fa, "x2")
    save_pair(pair_at(fb, "y1"), path)
    assert load_pair(path) == pair_at(fb, "y1")
    assert len(validations) == 2


def test_rewritten_malformed_file_is_a_usage_error(fb, fc, tmp_path, capsys):
    first, second = tmp_path / "b2.pair", tmp_path / "c1.pair"
    save_pair(pair_at(fb, "y2"), first)
    save_pair(pair_at(fc, "z1"), second)
    argv = ["relate", "--kind", "L", str(first), str(second)]
    assert cli.run(argv) == 0
    capsys.readouterr()
    truncated = '{"theta": ["t1", "t2"], "space": ["y1"]'
    with pytest.raises(json.JSONDecodeError) as reason:
        json.loads(truncated)
    first.write_text(truncated)
    assert cli.run(argv) == 2
    assert capsys.readouterr().err == f"error: {first} is not valid JSON: {reason.value}\n"
    first.write_text('{"theta": ["t1", "t2"], "space": ["y1"]}')
    assert cli.run(argv) == 2
    assert capsys.readouterr().err == (
        "error: missing field 'probs' in pair description\n"
    )


def test_errors_are_not_cached(tmp_path, validations):
    path = tmp_path / "bad.pair"
    data = {"theta": ["t1"], "space": ["a", "b"], "probs": [["1/2", "1/3"]]}
    path.write_text(json.dumps(dict(data, observed="a")))
    messages = []
    for _ in range(3):
        with pytest.raises(LpLabError) as caught:
            load_pair(path)
        messages.append(str(caught.value))
    assert messages == ["row for t1 sums to 5/6, not 1"] * 3
    assert len(validations) == 3
    path.write_text("[]")
    for _ in range(2):
        with pytest.raises(LpLabError) as caught:
            load_pair(path)
        assert str(caught.value) == f"{path} must hold a JSON object"
    assert serialization._value.cache_info().currsize == 0


def test_kind_is_part_of_the_key(fa, tmp_path, validations):
    path = tmp_path / "p.pair"
    save_pair(pair_at(fa, "x3"), path)
    model = load_model(path)
    pair = load_pair(path)
    assert type(model) is FiniteModel and model == fa
    assert type(pair) is ModelDataPair and pair == pair_at(fa, "x3")
    assert len(validations) == 2
    prior = tmp_path / "p.prior"
    save_prior(Prior.of(["t1", "t2"], ["1/3", "2/3"]), prior)
    assert load_prior(prior) is load_prior(prior)


def _two_point_texts() -> list[str]:
    """More than LOAD_CACHE_SIZE texts of pairwise distinct models: the
    one-parameter two-point models k/n, (n-k)/n."""
    return [
        json.dumps({"theta": ["t1"], "space": ["a", "b"], "probs": [[f"{k}/{n}", f"{n - k}/{n}"]]})
        for n in range(2, 60)
        for k in range(1, n)
        if math.gcd(k, n) == 1
    ]


def test_load_cache_evicts(tmp_path, validations):
    path = tmp_path / "m.model"
    texts = _two_point_texts()
    assert len(texts) > LOAD_CACHE_SIZE
    for text in texts:
        path.write_text(text)
        load_model(path)
    info = serialization._value.cache_info()
    assert info.maxsize == info.currsize == LOAD_CACHE_SIZE
    assert info.misses == len(texts) == len(validations)
    path.write_text(texts[0])
    load_model(path)  # evicted, so validated again
    assert len(validations) == len(texts) + 1
    path.write_text(texts[-1])
    load_model(path)  # still held
    assert len(validations) == len(texts) + 1
    assert serialization._value.cache_info().hits == info.hits + 1


def test_a_hot_validate_keeps_the_value_load_pair_returns(fa, tmp_path, validations):
    # validate reads its kind, then that kind's one entry, so reading the
    # pair again after each other text keeps the entry load_pair reads hot
    pair = tmp_path / "p.pair"
    save_pair(pair_at(fa, "x2"), pair)
    value = load_pair_or_model(pair)
    others = _two_point_texts()[: LOAD_CACHE_SIZE + 5]
    assert len(others) == LOAD_CACHE_SIZE + 5
    path = tmp_path / "m.model"
    for text in others:
        path.write_text(text)
        load_model(path)
        assert load_pair_or_model(pair) is value
    assert load_pair(pair) is value
    assert len(validations) == len(others) + 1


# -- the render cache ------------------------------------------------------


@pytest.fixture
def renders():
    """The render cache's statistics, with the cache emptied first."""
    serialization._model_text.cache_clear()
    return serialization._model_text.cache_info


def _write_universe(fb, fc, directory):
    """One pair file per point of FIX-B and FIX-C, written by the reference
    writer, so that the render cache is not touched."""
    for model in (fb, fc):
        for label in model.sample_labels:
            _dump(pair_to_dict(pair_at(model, label)), directory / f"{label}.pair")


def _closures(directory):
    """The --machine command lines of the five closure kinds over a
    directory and its Birnbaum mixtures."""
    return [
        ["--machine", "closure", "--kind", kind, "--dir", str(directory), "--augment", "birnbaum"]
        for kind in cli._KINDS
    ]


def _fresh_process(argv):
    src = Path(serialization.__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-c", "import sys; from lp_lab.cli import main; main()", *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_closure_payload_renders_each_member_once(fb, fc, renders):
    pairs = [pair_at(m, x) for m in (fb, fc) for x in m.sample_labels]
    universe = Universe.of(relations.augment(pairs, "birnbaum"))
    result = relations.closure(universe, RelationKind.S_OR_C)
    payload = {"members": universe.members, "classes": result.classes}
    text = render_machine(payload)
    assert render_machine(payload) == text
    distinct = len(set(universe.members))
    assert distinct > len(pairs)
    assert renders().misses == distinct
    assert renders().hits == distinct


def test_five_closure_kinds_render_each_member_once(fb, fc, tmp_path, renders, capsys):
    _write_universe(fb, fc, tmp_path)
    members = []
    for argv in _closures(tmp_path):
        assert cli.run(argv) == 0
        members.append(json.loads(capsys.readouterr().out)["members"])
    assert len(members) == 5
    assert all(listed == members[0] for listed in members)
    assert renders().misses == len(members[0])
    assert renders().hits == 4 * len(members[0])


def test_closure_after_a_rewrite_matches_a_fresh_process(fb, fc, tmp_path, capsys):
    _write_universe(fb, fc, tmp_path)
    before = []
    for argv in _closures(tmp_path):
        assert cli.run(argv) == 0
        before.append(capsys.readouterr().out)
    # y1 becomes a pair of another model, with labels of its own
    model = validate_model(["t1", "t2"], ["w1", "w2", "w3"], [["1/3"] * 3, ["1/6", "1/3", "1/2"]])
    save_pair(pair_at(model, "w2"), tmp_path / "y1.pair")
    for argv, old in zip(_closures(tmp_path), before):
        assert cli.run(argv) == 0
        after = capsys.readouterr().out
        assert after != old
        assert _fresh_process(argv) == after
