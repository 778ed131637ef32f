import json

import pytest

from lp_lab.cli import build_parser, run
from lp_lab.model import pair_at, validate_model
from lp_lab.relations import birnbaumize
from lp_lab.serialization import save_pair, save_prior, save_model


@pytest.fixture
def files(tmp_path, fa, fb, fc, fd, fe):
    paths = {}
    paths["pairB1"] = tmp_path / "b1.pair"
    save_pair(pair_at(fb, "y1"), paths["pairB1"])
    paths["pairB2"] = tmp_path / "b2.pair"
    save_pair(pair_at(fb, "y2"), paths["pairB2"])
    paths["pairC1"] = tmp_path / "c1.pair"
    save_pair(pair_at(fc, "z1"), paths["pairC1"])
    paths["pairA1"] = tmp_path / "a1.pair"
    save_pair(pair_at(fa, "x1"), paths["pairA1"])
    paths["modelD"] = tmp_path / "d.model"
    save_model(fd, paths["modelD"])
    paths["prior"] = tmp_path / "e.prior"
    save_prior(fe, paths["prior"])
    paths["dir"] = tmp_path
    return {k: str(v) for k, v in paths.items()}


def test_relate_l_holds(files, capsys):
    code = run(["relate", "--kind", "L", files["pairB2"], files["pairC1"]])
    out = capsys.readouterr().out
    assert code == 0
    assert "3/2" in out


def test_relate_c_fails(files, capsys):
    assert run(["relate", "--kind", "C", files["pairB2"], files["pairC1"]]) == 1


def test_relate_s_holds(files):
    assert run(["relate", "--kind", "S", files["pairA1"], files["pairB1"]]) == 0


def test_missing_file_is_usage_error(files, capsys):
    code = run(["relate", "--kind", "L", "missing.pair", files["pairB1"]])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_bad_kind_is_usage_error(files, capsys):
    assert run(["relate", "--kind", "Q", files["pairB1"], files["pairB1"]]) == 2


def test_validate_model_and_pair(files, capsys):
    assert run(["validate", files["modelD"]]) == 0
    assert run(["validate", files["pairB1"]]) == 0


def test_validate_rejects_bad_model(tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text(
        json.dumps(
            {"theta": ["t1"], "space": ["a", "b"], "probs": [["1/2", "1/3"]]}
        )
    )
    assert run(["validate", str(bad)]) == 2


def test_reduce(files, capsys):
    assert run(["reduce", files["pairA1"]]) == 0
    assert "1/3" in capsys.readouterr().out


def test_ancillaries(files, capsys):
    assert run(["ancillaries", files["modelD"], "--maximal"]) == 0
    out = capsys.readouterr().out
    assert "(2)" in out
    assert run(["ancillaries", files["modelD"], "--laminal"]) == 0
    out = capsys.readouterr().out
    assert "1,2,3,4" in out


def test_chain_sc_and_c(files, capsys):
    assert run(["chain", "--kind", "SC", files["pairB2"], files["pairC1"]]) == 0
    assert "verified" in capsys.readouterr().out
    assert run(["chain", "--kind", "C", files["pairB2"], files["pairC1"]]) == 0


def test_chain_requires_l(files, capsys):
    assert run(["chain", "--kind", "SC", files["pairB1"], files["pairC1"]]) == 2


def test_closure_with_augmentation(tmp_path, fb, fc, capsys):
    d = tmp_path / "universe"
    d.mkdir()
    save_pair(pair_at(fb, "y2"), d / "b.pair")
    save_pair(pair_at(fc, "z1"), d / "c.pair")
    assert run(["closure", "--kind", "SC", "--dir", str(d)]) == 0
    assert "2 classes" in capsys.readouterr().out
    assert (
        run(["closure", "--kind", "SC", "--dir", str(d), "--augment", "birnbaum"])
        == 0
    )
    assert "1 classes" in capsys.readouterr().out


def test_search_l_minus_sc(capsys):
    code = run(
        ["search", "l-minus-sc", "--max-space", "2", "--max-denominator", "4"]
    )
    assert code == 0


def test_search_exhausted(capsys):
    code = run(
        ["search", "l-minus-sc", "--max-space", "1", "--max-denominator", "1"]
    )
    assert code == 1


@pytest.mark.parametrize("what", ["c-transitivity", "l-minus-sc"])
@pytest.mark.parametrize(
    "option, field, value",
    [
        ("--theta-size", "theta_size", "-1"),
        ("--theta-size", "theta_size", "0"),
        ("--max-space", "max_space", "0"),
        ("--max-denominator", "max_denominator", "0"),
    ],
)
def test_search_rejects_empty_bounds(what, option, field, value, capsys):
    # an empty grid is malformed input, not an exhausted search
    assert run(["search", what, option, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: search bound {field} must be at least 1, got {value}\n"


def test_rb_analyze_and_strength(files, capsys):
    assert (
        run(
            [
                "rb",
                "analyze",
                files["pairB1"],
                "--prior",
                files["prior"],
                "--hypothesis",
                "t1",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "BF = 2" in out
    assert (
        run(
            [
                "rb",
                "strength",
                files["pairB1"],
                "--prior",
                files["prior"],
                "--theta",
                "t2",
            ]
        )
        == 0
    )
    assert "1/3" in capsys.readouterr().out


def test_rb_analyze_whole_space_bayes_factor_is_undefined(files, capsys):
    argv = ["rb", "analyze", files["pairB1"], "--prior", files["prior"]]
    argv += ["--hypothesis", "t1,t2"]
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert "A = {t1, t2}: BF = undefined, evidence neutral\n" in out
    assert run(["--machine"] + argv) == 0
    record = json.loads(capsys.readouterr().out)["report"]["hypotheses"][0]
    assert record["bayes_factor"] is None


def test_rb_analyze_infinite_odds_bayes_factor_is_inf(files, tmp_path, capsys):
    model = validate_model(["t1", "t2"], ["a", "b"], [["1/2", "1/2"], ["1", "0"]])
    save_pair(pair_at(model, "b"), tmp_path / "zero.pair")
    argv = ["rb", "analyze", str(tmp_path / "zero.pair"), "--prior", files["prior"]]
    argv += ["--hypothesis", "t1"]
    assert run(argv) == 0
    assert "A = {t1}: BF = inf, evidence for\n" in capsys.readouterr().out
    assert run(["--machine"] + argv) == 0
    record = json.loads(capsys.readouterr().out)["report"]["hypotheses"][0]
    assert record["bayes_factor"] is None


def test_check_model_and_prior(files, capsys):
    assert run(["check", "model", files["pairA1"]]) == 0
    assert "1/3" in capsys.readouterr().out
    assert run(["check", "prior", files["pairB1"], "--prior", files["prior"]]) == 0
    assert "3/8" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "prior", "missing.pair"], "check prior requires --prior"),
        (
            ["check", "model", "missing.pair", "--prior", "missing.prior"],
            "check model does not take --prior",
        ),
        (
            ["check", "prior", "missing.pair", "--prior", "missing.prior"]
            + ["--ancillary", "x1|x2"],
            "check prior does not take --ancillary",
        ),
    ],
)
def test_check_options_before_reading_files(argv, message, capsys):
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_check_rejects_ignored_option(files, capsys):
    # the files exist, so only the stray option can fail the command
    model = ["check", "model", files["pairA1"], "--prior", files["prior"]]
    prior = ["check", "prior", files["pairB1"], "--prior", files["prior"]]
    for argv in (model, prior + ["--ancillary", "y1|y2"]):
        assert run(argv) == 2
        _one_line_error(capsys)
    # an empty --ancillary names no partition; it does not mean "none"
    assert run(["check", "model", files["pairA1"], "--ancillary", ""]) == 2
    assert capsys.readouterr().err == "error: unknown sample label ''\n"


def test_ancillaries_laminal_joins_maximal(tmp_path, capsys):
    # two maximal ancillaries, {x1,x3 | x2,x4 | x5} and {x1,x4 | x2,x3 | x5};
    # the laminal ancillary is their join
    model = validate_model(
        ["t1", "t2"],
        ["x1", "x2", "x3", "x4", "x5"],
        [["0", "0", "1/3", "1/3", "1/3"], ["1/3", "1/3", "0", "0", "1/3"]],
    )
    path = str(tmp_path / "join.model")
    save_model(model, path)
    assert run(["--machine", "ancillaries", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["maximal"]) == 2
    assert payload["laminal"] == [["x1", "x2", "x3", "x4"], ["x5"]]
    assert payload["laminal_antichain"] is None
    assert run(["ancillaries", path, "--laminal"]) == 0
    assert capsys.readouterr().out == "laminal: x1,x2,x3,x4 | x5\n"


def test_machine_output_is_deterministic_json(files, capsys):
    args = ["--machine", "relate", "--kind", "L", files["pairB2"], files["pairC1"]]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["witness"] == "3/2"


def test_decimal_annotation(files, capsys):
    assert (
        run(["--decimal", "3", "relate", "--kind", "L", files["pairB2"], files["pairC1"]])
        == 0
    )
    assert "1.500" in capsys.readouterr().out


@pytest.mark.parametrize("digits", ["-2", "-1", "x"])
def test_invalid_decimal_is_usage_error(files, digits, capsys):
    argv = ["--decimal", digits, "relate", "--kind", "L"]
    assert run(argv + [files["pairB2"], files["pairC1"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: lp-lab")
    assert "argument --decimal: K must be a nonnegative integer" in captured.err


def test_decimal_zero_keeps_whole_part(files, capsys):
    argv = ["--decimal", "0", "relate", "--kind", "L"]
    assert run(argv + [files["pairB2"], files["pairC1"]]) == 0
    assert capsys.readouterr().out == "L: related with c = 3/2 (~1)\n"


def test_cached_parser_keeps_no_state_between_calls(files, capsys):
    rb = ["rb", "analyze", files["pairB1"], "--prior", files["prior"]]
    rb += ["--hypothesis", "t1"]
    calls = [
        ["--machine", "--decimal", "3"] + rb,
        rb,
        ["rb", "estimate", files["pairB1"]],  # --prior missing
        ["--help"],
        ["--help"],
        ["relate", "--kind", "L", files["pairB2"], files["pairC1"]],
    ]

    def outcome(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # each call alone, on a parser built for it
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(outcome(argv))
    build_parser.cache_clear()
    shared = [outcome(argv) for argv in calls]
    assert build_parser.cache_info().misses == 1
    assert shared == alone

    machine, plain, usage, help1, help2, relate = shared
    assert machine[0] == 0
    report = json.loads(machine[1])["report"]
    assert report["posterior"] == ["2/3", "1/3"]
    assert plain == (
        0,
        "posterior: (2/3, 1/3)\n"
        "RB:        (4/3, 2/3)\n"
        "estimate:  t1\n"
        "A = {t1}: BF = 2, evidence for\n",
        "",
    )
    assert usage[0] == 2 and usage[1] == ""
    assert "the following arguments are required: --prior" in usage[2]
    assert help1 == help2
    assert help1[0] == 0 and help1[1].startswith("usage: lp-lab")
    assert relate == (0, "L: related with c = 3/2\n", "")


def test_rb_strength_needs_theta_before_reading_files(capsys):
    argv = ["rb", "strength", "missing.pair", "--prior", "missing.prior"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: rb strength requires --theta\n"


def test_rb_strength_unknown_theta_is_usage_error(files, capsys):
    argv = ["rb", "strength", files["pairB1"], "--prior", files["prior"]]
    assert run(argv + ["--theta", "t9"]) == 2
    assert capsys.readouterr().err == "error: unknown parameter label 't9'\n"


def test_relate_c_ignores_enumeration_bound(files, monkeypatch, capsys):
    monkeypatch.setenv("LP_LAB_MAX_SPACE", "1")
    assert run(["relate", "--kind", "C", files["pairB1"], files["pairB1"]]) == 0
    assert "C: related" in capsys.readouterr().out


def test_relate_c_above_enumeration_bound(tmp_path, seven_point_l_pairs, capsys):
    p1, p2 = seven_point_l_pairs
    _, e1, _ = birnbaumize(p1, p2)
    small, mixture = str(tmp_path / "small.pair"), str(tmp_path / "mixture.pair")
    save_pair(p1, small)
    save_pair(e1, mixture)
    assert run(["--machine", "relate", "--kind", "C", small, mixture]) == 0
    assert json.loads(capsys.readouterr().out)["witness"]["parent"] == "second"
    assert run(["relate", "--kind", "DURBIN", small, mixture]) == 1


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize("bound", ["1", "abc"])
def test_search_ignores_enumeration_bound(bound, monkeypatch, capsys):
    # the search's own --max-space caps |X|; LP_LAB_MAX_SPACE is for ancillaries
    monkeypatch.setenv("LP_LAB_MAX_SPACE", bound)
    assert run(["--machine", "search", "c-transitivity"]) == 0
    assert json.loads(capsys.readouterr().out)["found"] is not None


def test_search_above_enumeration_bound_stops_at_first_find(capsys):
    # conditional_pairs refuses |X| > 12, but the search finds a triple long
    # before it scans models that large
    assert run(["--machine", "search", "c-transitivity", "--max-space", "13"]) == 0
    assert json.loads(capsys.readouterr().out)["found"] is not None


def test_invalid_enumeration_bound_is_usage_error(files, monkeypatch, capsys):
    monkeypatch.setenv("LP_LAB_MAX_SPACE", "abc")
    assert run(["ancillaries", files["modelD"]]) == 2
    _one_line_error(capsys)


def test_zero_denominator_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "zero.pair"
    bad.write_text(
        json.dumps(
            {
                "theta": ["t1"],
                "space": ["a", "b"],
                "probs": [["1/0", "1/2"]],
                "observed": "a",
            }
        )
    )
    for argv in (["validate", str(bad)], ["relate", "--kind", "C", str(bad), str(bad)]):
        assert run(argv) == 2
        _one_line_error(capsys)
