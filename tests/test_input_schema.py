"""Malformed pair, model and prior files: exit 2 with one `error:` line.

Each mangling breaks the JSON shape the loaders require (top-level object,
arrays of labels as strings or integers, arrays of rational strings or
integers, a string observed label), so the input is invalid whatever else
it holds.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lp_lab.cli import run
from lp_lab.errors import LpLabError
from lp_lab.serialization import check_schema

MODEL = {
    "theta": ["t1", "t2"],
    "space": ["a", "b", "c"],
    "probs": [["1/6", "1/3", "1/2"], ["1/12", "1/6", "3/4"]],
}
GOOD = {
    "model": MODEL,
    "pair": {**MODEL, "observed": "b"},
    "prior": {"theta": ["t1", "t2"], "weights": ["1/2", "1/2"]},
}

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=6),
)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_containers = st.one_of(
    st.lists(_scalars, max_size=2), st.dictionaries(st.text(max_size=4), _scalars, max_size=2)
)
_non_object = _json.filter(lambda v: not isinstance(v, dict))
_non_array = _json.filter(lambda v: not isinstance(v, list))
_non_string = _json.filter(lambda v: not isinstance(v, str))
_non_scalar = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False), _containers
)


@st.composite
def mangled(draw, kind):
    """A copy of GOOD[kind] with its JSON shape broken in one place."""
    data = json.loads(json.dumps(GOOD[kind]))
    how = draw(st.sampled_from(["top", "drop", "field", "entry"]))
    if how == "top":
        return draw(_non_object)
    field = draw(st.sampled_from(sorted(data)))
    if how == "drop":
        del data[field]
    elif field == "observed":
        data[field] = draw(_non_string)
    elif how == "field":
        data[field] = draw(_non_array)
    else:
        items = data[field]
        i = draw(st.integers(0, len(items) - 1))
        if field != "probs":
            items[i] = draw(_non_scalar)
        elif draw(st.booleans()):
            items[i] = draw(_non_array)
        else:
            items[i][draw(st.integers(0, 2))] = draw(_non_scalar)
    return data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    base = tmp_path_factory.mktemp("schema")
    (base / "good.pair").write_text(json.dumps(GOOD["pair"]))
    return base


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def _commands(kind, bad, good):
    if kind == "pair":
        return [["relate", "--kind", "L", bad, good], ["validate", bad]]
    if kind == "model":
        return [["ancillaries", bad], ["validate", bad]]
    return [["rb", "analyze", good, "--prior", bad]]


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_mangled_input_exits_2_with_one_line(workdir, data):
    kind = data.draw(st.sampled_from(sorted(GOOD)))
    value = data.draw(mangled(kind))
    with pytest.raises(LpLabError):
        check_schema(value, kind)
    bad = workdir / f"bad.{kind}"
    bad.write_text(json.dumps(value))
    for argv in _commands(kind, str(bad), str(workdir / "good.pair")):
        if argv[0] == "validate" and isinstance(value, dict) and "observed" not in value:
            continue  # validate reads a pair without "observed" as a model
        code, err = _run(argv)
        assert code == 2, (argv, value, err)
        assert err.startswith("error: ") and err.count("\n") == 1, err


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_arbitrary_field_values_never_escape(workdir, data):
    kind = data.draw(st.sampled_from(["pair", "model"]))
    value = json.loads(json.dumps(GOOD[kind]))
    field = data.draw(st.sampled_from(sorted(value)))
    value[field] = data.draw(_json)
    bad = workdir / f"any.{kind}"
    bad.write_text(json.dumps(value))
    code, err = _run(["validate", str(bad)])
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"theta": ["t1"], "space": ["a", "b"], "probs": [[0.5, "1/2"]], "observed": "a"}', "'probs'"),
        ('[{"theta": ["t1"]}]', "known.pair must hold a JSON object"),
        ('{"theta": ["t1"], "space": ["a", "b"], "probs": "ab", "observed": "a"}', "'probs'"),
        ('{"theta": "t1", "space": ["a", "b"], "probs": [["1/2", "1/2"]], "observed": "a"}', "'theta'"),
    ],
)
def test_known_malformed_pairs(workdir, text, message):
    bad = workdir / "known.pair"
    bad.write_text(text)
    for argv in (["relate", "--kind", "C", str(bad), str(bad)], ["validate", str(bad)]):
        code, err = _run(argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err


def test_numeric_labels_load(workdir):
    pair = workdir / "numeric.pair"
    pair.write_text(
        '{"theta": [1, 2], "space": [1, 2, 3], "observed": "2",'
        ' "probs": [["1/3", "1/3", "1/3"], [0, 1, 0]]}'
    )
    prior = workdir / "numeric.prior"
    prior.write_text('{"theta": [1, 2], "weights": ["1/4", "3/4"]}')
    assert _run(["validate", str(pair)]) == (0, "")
    assert _run(["relate", "--kind", "L", str(pair), str(pair)]) == (0, "")
    assert _run(["rb", "analyze", str(pair), "--prior", str(prior)]) == (0, "")
