import errno
import io
import json
import os
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lp_lab import ancillarity, certify, cli, evidence, relations
from lp_lab.cli import _KINDS, build_parser, run
from lp_lab.model import FiniteModel, canonical_form, pair_at, validate_model
from lp_lab.relations import birnbaumize
from lp_lab.search import MAX_COMBINATIONS
from lp_lab.serialization import (
    pair_from_dict,
    render_machine,
    save_model,
    save_pair,
    save_prior,
)
from lp_lab.sufficiency import SWitness
from random_models import relabelled_copy
from test_cli_golden import COMMANDS, FORMS, golden_pairs, write_files
from test_relations import _wrong_indicator


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


def test_relate_witness_holds_of_the_pairs_it_prints(tmp_path):
    # every kind's witness re-checks against the payload's own first and
    # second, the canonical pairs --machine prints, on the golden inputs
    # and on shuffled, renamed copies
    rng = random.Random(3)
    inputs = [
        copy for pair in golden_pairs().values()
        for copy in (pair, *(relabelled_copy(rng, pair, p) for p in "qr"))
    ]
    paths = []
    for i, pair in enumerate(inputs):
        paths.append(str(tmp_path / f"{i}.pair"))
        save_pair(pair, paths[-1])
    counts = dict.fromkeys(_KINDS, 0)
    for kind in _KINDS:
        for first in paths:
            for second in paths:
                argv = ["relate", "--kind", kind, first, second]
                _, payload, _ = cli.cmd_relate(build_parser().parse_args(argv))
                if not payload["related"]:
                    continue
                p1, p2 = payload["first"], payload["second"]
                witness = payload["witness"]
                printed = json.loads(render_machine(payload))
                assert pair_from_dict(printed["first"]) == p1
                assert pair_from_dict(printed["second"]) == p2
                if kind == "L":
                    assert certify.verify_l_witness(p1, p2, witness)
                elif isinstance(witness, SWitness):
                    assert certify.verify_s_witness(p1, p2, witness)
                else:
                    durbin = kind == "DURBIN"
                    assert certify.verify_c_witness(p1, p2, witness, durbin)
                counts[kind] += 1
    assert counts == {"S": 90, "C": 72, "L": 108, "SC": 90, "DURBIN": 54}


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


def test_chain_and_efm_with_a_wrong_indicator_exit_1(files, monkeypatch, capsys):
    # each wrong C step reaches the chain and is caught by verify_chain
    monkeypatch.setattr(relations, "component_indicator", _wrong_indicator)
    b2_c1 = [files["pairB2"], files["pairC1"]]
    for argv in (["chain", "--kind", "SC"], ["chain", "--kind", "C"], ["efm"]):
        assert run([*argv, *b2_c1]) == 1
        assert "FAILED VERIFICATION" in capsys.readouterr().out
        assert run(["--machine", *argv, *b2_c1]) == 1
        capsys.readouterr()


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


def _wrap_handlers(monkeypatch, wrap):
    """Make ``run`` call ``wrap(handler, args)`` where it calls a handler."""
    parse = cli._parse_args

    def parse_and_wrap(argv):
        args = parse(argv)
        handler = args.handler
        args.handler = lambda a: wrap(handler, a)
        return args

    monkeypatch.setattr(cli, "_parse_args", parse_and_wrap)


def test_machine_output_reads_no_human_lines(monkeypatch, capsys):
    def lines():
        raise AssertionError("human text read under --machine")
        yield

    answers = iter([(1, {"a": 1}, lines()), (0, {"a": 1}, iter(["x", "y"]))])
    _wrap_handlers(monkeypatch, lambda handler, args: next(answers))
    assert run(["--machine", "validate", "unread.pair"]) == 1
    assert capsys.readouterr().out == '{\n  "a": 1\n}\n'
    assert run(["validate", "unread.pair"]) == 0
    assert capsys.readouterr().out == "x\ny\n"


def test_closure_human_text_is_lazy(tmp_path, fb, fc, monkeypatch, capsys):
    d = tmp_path / "universe"
    d.mkdir()
    save_pair(pair_at(fb, "y2"), d / "b.pair")
    save_pair(pair_at(fc, "z1"), d / "c.pair")
    seen = []

    def spy(handler, args):
        code, payload, lines = handler(args)
        seen.append(iter(lines) is lines)
        return code, payload, lines

    _wrap_handlers(monkeypatch, spy)
    assert run(["--machine", "closure", "--kind", "L", "--dir", str(d)]) == 0
    assert run(["closure", "--kind", "L", "--dir", str(d)]) == 0
    out = capsys.readouterr().out
    assert out.endswith(
        "universe of 2 canonical pairs, 1 classes under L-closure\n"
        "  class: 0, 1\n"
    )
    assert seen == [True, True]


def test_an_error_while_writing_is_a_usage_error(tmp_path, monkeypatch):
    # run writes inside the handler's error guard: a label the stdout
    # encoding cannot hold gives exit 2, one error line and no output
    model = validate_model(["t1", "t2"], ["\u00e9", "b"], [["1/2", "1/2"], ["1/4", "3/4"]])
    path = str(tmp_path / "accent.pair")
    save_pair(pair_at(model, "\u00e9"), path)
    out, err = io.BytesIO(), io.StringIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, encoding="ascii"))
    monkeypatch.setattr(sys, "stderr", err)
    assert run(["validate", path]) == 2
    sys.stdout.flush()
    assert out.getvalue() == b""
    assert err.getvalue().startswith("error: 'ascii' codec can't encode")
    assert err.getvalue().count("\n") == 1
    # --machine output escapes every non-ASCII character
    assert run(["--machine", "validate", path]) == 0
    sys.stdout.flush()
    assert out.getvalue().startswith(b"{")


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


def test_rb_prior_with_duplicate_labels_is_usage_error(files, tmp_path, capsys):
    prior = tmp_path / "twice.prior"
    prior.write_text(json.dumps({"theta": ["t1", "t1"], "weights": ["1/2", "1/2"]}))
    assert run(["rb", "analyze", files["pairB1"], "--prior", str(prior)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: duplicate parameter labels in ('t1', 't1')\n"


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


@pytest.mark.parametrize(
    "spec, message",
    [
        ("1,1,2|3,4", "a block repeats a point"),
        ("1,2|2,3,4", "blocks are not disjoint"),
    ],
)
def test_check_model_refuses_ancillary_naming_a_point_twice(
    spec, message, tmp_path, fd, capsys
):
    path = str(tmp_path / "d.pair")
    save_pair(pair_at(fd, "1"), path)
    assert run(["check", "model", path, "--ancillary", "1,2|3,4"]) == 0
    capsys.readouterr()
    assert run(["check", "model", path, "--ancillary", spec]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


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


def test_decimal_zero_has_no_sign(files, tmp_path, capsys):
    model = validate_model(["t1", "t2"], ["a", "b"], [["1/2", "1/2"], ["1", "0"]])
    save_pair(pair_at(model, "b"), tmp_path / "zero.pair")
    argv = ["--decimal", "2", "rb", "analyze", str(tmp_path / "zero.pair")]
    assert run(argv + ["--prior", files["prior"]]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "posterior: (1 (~1.00), 0 (~0.00))",
        "RB:        (2 (~2.00), 0 (~0.00))",
    ]


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


def _parser_corpus(files, golden, pair_d):
    """Command lines for the parser tests: every golden and request line,
    and for each command help, missing and unknown options and an extra
    positional, abbreviations, global options in every place, "--",
    options written with "=", values that start with "-" or that type and
    choices refuse, and repeated options and options after positionals."""
    lines = [[arg.format(**golden) for arg in line] for line in COMMANDS.values()]
    argvs = [FORMS[form] + line for line in lines for form in FORMS]
    argvs += _request_argvs(files, pair_d)
    valid = {}
    for line in lines:
        valid.setdefault(line[0], line)
    assert valid.keys() == cli._COMMANDS.keys()
    b1, b2, c1 = files["pairB1"], files["pairB2"], files["pairC1"]
    for name, argv in valid.items():
        argvs += [
            [name, "-h"],
            [name],
            [name, "--bogus", *argv[1:]],
            [*argv, "extra"],
            [*argv, "--machine"],
            [*argv, "--decimal", "3"],
            ["--machine", *argv, "-h"],
        ]
    relate = ["relate", "--kind", "L", b2, c1]
    prior = ["--prior", files["prior"]]
    argvs += [
        ["relate", b2, c1],  # --kind missing
        ["chain", b2, c1],
        ["closure", "--kind", "S"],  # --dir missing
        ["rb", "analyze", b1],  # --prior missing
        ["relate", "--kind=S", files["pairA1"], b1],
        ["relate", "--ki", "L", b2, c1],
        ["rb", "analyze", b1, "--pri", files["prior"]],
        ["--mach", *relate],
        ["--machine=1", *relate],
        ["--dec", "2", *relate],
        ["--decimal", "3", *relate],
        ["--decimal=3", *relate],
        ["--decimal", "x", *relate],
        ["--machine", "--decimal", "3", *relate],
        ["--decimal", "3", "--machine", *relate],
        ["--machine", "--machine", *relate],
        ["relate", "--kind", "L", "--", b2, c1],
        ["--", *relate],
        ["--machine", "--", *relate],
        ["validate", "--", b1],
        ["validate", "--=x"],
        ["validate", "-=x"],
        ["relate", "--=x", "--kind", "L", b2, c1],
        ["validate", b1, "--machine=1"],
        ["rb", "estimate", b1, *prior, "--theta=t1"],
        ["rb", "analyze", b1, "--prior"],  # no value
        ["rb", "analyze", b1, "--prior", "-x"],
        ["relate", "--kind", "-h", b2, c1],
        ["relate", "--kind", "Q", b2, c1],
        ["relate", b2, c1, "--kind", "L"],
        ["relate", "--kind", "S", "--kind", "L", b2, c1],
        ["search", "l-minus-sc", "--max-space", "x"],
        ["search", "l-minus-sc", "--max-space", "-5"],
        ["validate", "-5"],
        ["validate", ""],
        ["validate", "-"],
        [],
        ["--machine"],
        ["-h"],
        ["--help"],
        ["--machine", "-h"],
        ["bogus"],
        ["--machine", "bogus"],
        ["Validate", b1],
    ]
    return argvs


def _reader_namespace(argv):
    """What ``_parse_args`` takes from ``_read`` for ``argv``, or None."""
    machine = argv[:1] == ["--machine"]
    words = argv[machine:]
    args = cli._read(words[0], words[1:]) if words else None
    if args is not None:
        args.machine = machine
    return args


def _whole_parser_outcome(argv, capsys):
    try:
        return build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code, capsys.readouterr()


def test_reader_agrees_with_the_whole_parser(files, tmp_path, fd, monkeypatch, capsys):
    # each line the reader reads gives the whole parser's Namespace, and
    # every line's exit code, stdout and stderr are those of the whole
    # parser, build_parser().parse_args, which is still built once
    (tmp_path / "golden").mkdir()
    golden = write_files(tmp_path / "golden")
    (tmp_path / "d").mkdir()
    pair_d = str(tmp_path / "d" / "d1.pair")
    save_pair(pair_at(fd, "1"), pair_d)
    corpus = _parser_corpus(files, golden, pair_d)
    build_parser.cache_clear()

    def outcomes():
        out = []
        for argv in corpus:
            code = run(argv)
            captured = capsys.readouterr()
            out.append((argv, code, captured.out, captured.err))
        return out

    read = []
    for argv in corpus:
        args = _reader_namespace(argv)
        if args is not None:
            assert args == _whole_parser_outcome(argv, capsys), argv
            read.append(argv)
    # every request line is read, plain and under --machine
    assert all(argv in read for argv in _request_argvs(files, pair_d))
    commands = outcomes()
    monkeypatch.setattr(cli, "_parse_args", build_parser().parse_args)
    assert commands == outcomes()
    assert {code for _, code, _, _ in commands} == {0, 1, 2}
    assert build_parser.cache_info().misses == 1


# "--", help, a negative number, an empty and a lone-dash word, an
# abbreviation, an option written with "=" and global options after the
# command
HOSTILE = ["--", "-h", "-5", "", "-", "--ki", "--kind=L", "--machine", "--decimal"]
PREFIXES = [[], ["--machine"], ["--decimal", "3"], ["--mach"], ["--machine", "--machine"]]


@st.composite
def command_lines(draw, values):
    """A command line built from one command's own arguments, in any order
    the grammar allows, with at most two words dropped or inserted, some of
    them hostile, repeated options or options after positionals."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    _, _, arguments = cli._COMMANDS[name]
    units, positionals, extra = [], [], list(HOSTILE)
    for flag, spec in arguments:
        choices = spec.get("choices", [])
        value = st.sampled_from(choices or values)
        extra += choices
        if flag[0] != "-":
            positionals.append(draw(value))
            continue
        extra += [flag, flag[:5]]  # repeated or abbreviated
        if spec.get("required") or draw(st.booleans()):
            units.append([flag] if "action" in spec else [flag, draw(value)])
    units = draw(st.permutations(units))
    cuts = sorted(draw(st.lists(
        st.integers(0, len(units)), min_size=len(positionals), max_size=len(positionals)
    )))
    for cut, word in reversed(list(zip(cuts, positionals))):
        units.insert(cut, [word])
    words = [word for unit in units for word in unit]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(words)))
        if words and draw(st.booleans()):
            del words[min(at, len(words) - 1)]
        else:
            words.insert(at, draw(st.sampled_from(extra + values)))
    return draw(st.sampled_from(PREFIXES)) + [name] + words


def test_reader_agrees_with_the_whole_parser_on_drawn_lines(files, monkeypatch, capsys):
    # files for the positionals and values, words that int and choices
    # refuse, and bounds small enough for a search to end at once
    values = [files["pairB2"], files["pairC1"], files["prior"], files["dir"]]
    values += ["t1", "1,2|3", "1", "3", "x"]
    seen = {"read": 0, "refused": 0}

    def outcome(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @settings(max_examples=300, deadline=None)
    @given(command_lines(values))
    def check(argv):
        args = _reader_namespace(argv)
        capsys.readouterr()
        if args is not None:
            seen["read"] += 1
            assert args == _whole_parser_outcome(argv, capsys), argv
        else:
            seen["refused"] += 1
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parse_args", build_parser().parse_args)
            expected = outcome(argv)
        assert outcome(argv) == expected, argv

    check()
    assert seen["read"] > 30 and seen["refused"] > 30, seen


def test_evidence_lines_build_no_parser(files, tmp_path, fd, capsys):
    (tmp_path / "d").mkdir()
    pair_d = str(tmp_path / "d" / "d1.pair")
    save_pair(pair_at(fd, "1"), pair_d)
    evidence = ("validate", "reduce", "relate", "rb", "check")
    argvs = [argv for argv in _request_argvs(files, pair_d) if argv[0] == "--machine"]
    argvs = [argv for argv in argvs if argv[1] in evidence]
    build_parser.cache_clear()
    assert {run(argv) for argv in argvs} == {0, 1, 2}
    capsys.readouterr()
    assert build_parser.cache_info().currsize == 0


def test_only_refused_lines_reach_the_whole_parser(files, monkeypatch, capsys):
    parser = build_parser()
    built, whole = [], []
    parse_args = parser.parse_args

    def spy(argv):
        whole.append(argv)
        return parse_args(argv)

    def build():
        built.append(True)
        return parser

    monkeypatch.setattr(parser, "parse_args", spy)
    monkeypatch.setattr(cli, "build_parser", build)
    b1, b2, c1 = files["pairB1"], files["pairB2"], files["pairC1"]
    relate = ["relate", "--kind", "L", b2, c1]
    rb = ["rb", "analyze", b1, "--prior", files["prior"], "--hypothesis", "t1"]
    for argv in (
        ["validate", b1],
        ["--machine", "validate", b1],
        relate,
        ["--machine", *relate],
        ["relate", b2, c1, "--kind", "L"],
        rb,
        ["--machine", *rb],
        ["ancillaries", files["modelD"], "--maximal", "--maximal"],
        ["search", "l-minus-sc", "--max-space", "2", "--max-space", "1"],
    ):
        run(argv)
        assert built == [] and whole == [], argv
    for argv in (
        ["relate", "--ki", "L", b2, c1],
        ["relate", "--kind", "L", "--", b2, c1],
        ["relate", b2, c1],  # --kind missing
        ["relate", "--kind", "Q", b2, c1],
        ["relate", "--kind", "L", b2, c1, "extra"],
        ["search", "l-minus-sc", "--max-space", "x"],
        ["search", "l-minus-sc", "--max-space", "-5"],
        ["validate", "-h"],
        ["--decimal", "3", *relate],
        ["--mach", *relate],
        ["--machine", "--machine", *relate],
        [*relate, "--machine"],
        ["relate", "--kind=L", b2, c1],
        ["validate", "-=x"],
        ["--help"],
        ["bogus"],
        [],
    ):
        run(argv)
        assert whole[-1] == argv
    capsys.readouterr()


def test_rb_strength_needs_theta_before_reading_files(capsys):
    argv = ["rb", "strength", "missing.pair", "--prior", "missing.prior"]
    assert run(argv) == 2
    assert capsys.readouterr().err == "error: rb strength requires --theta\n"


def test_rb_strength_unknown_theta_is_usage_error(files, capsys):
    argv = ["rb", "strength", files["pairB1"], "--prior", files["prior"]]
    assert run(argv + ["--theta", "t9"]) == 2
    assert capsys.readouterr().err == "error: unknown parameter label 't9'\n"


# a --hypothesis naming a label the prior lacks -> that label
BAD_HYPOTHESES = {"hh": "hh", ",": "", "t1,hh": "hh"}


@pytest.mark.parametrize("hypothesis", [None, "t1", *BAD_HYPOTHESES])
@pytest.mark.parametrize("theta", [None, "", "t2", "tt"])
def test_rb_strength_reports_hypothesis_before_theta(files, hypothesis, theta, capsys):
    # --theta is required before any file is read; then a bad --hypothesis
    # is reported before a bad --theta
    argv = ["rb", "strength", files["pairB1"], "--prior", files["prior"]]
    if hypothesis is not None:
        argv += ["--hypothesis", hypothesis]
    if theta is not None:
        argv += ["--theta", theta]
    if not theta:
        expected = (2, "", "error: rb strength requires --theta\n")
    elif hypothesis in BAD_HYPOTHESES:
        label = BAD_HYPOTHESES[hypothesis]
        expected = (2, "", f"error: unknown parameter label {label!r}\n")
    elif theta == "tt":
        expected = (2, "", "error: unknown parameter label 'tt'\n")
    else:
        expected = (0, "strength(t2) = 1/3\n", "")
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == expected


def test_rb_builds_one_evidence_report(files, monkeypatch, capsys):
    calls = []
    report = evidence.evidence_report

    def counted(*args):
        calls.append(args)
        return report(*args)

    monkeypatch.setattr(evidence, "evidence_report", counted)
    monkeypatch.setattr(cli, "evidence_report", counted)
    rb = [files["pairB1"], "--prior", files["prior"]]
    argvs = [
        ["rb", "analyze", *rb, "--hypothesis", "t1"],
        ["rb", "estimate", *rb],
        ["rb", "strength", *rb, "--theta", "t2"],
        ["rb", "strength", *rb, "--theta", "t2", "--hypothesis", "t1,t2"],
    ]
    for argv in argvs:
        for form in ([], ["--machine"]):
            calls.clear()
            assert run(form + argv) == 0
            assert len(calls) == 1, argv
            out = capsys.readouterr().out
    # the last payload's report holds the user's hypothesis alone
    hypotheses = json.loads(out)["report"]["hypotheses"]
    assert [h["hypothesis"] for h in hypotheses] == [["t1", "t2"]]


def test_relate_c_ignores_enumeration_bound(files, monkeypatch, capsys):
    # the C oracle enumerates nothing, so it answers on models of any size
    monkeypatch.setattr(ancillarity, "MAX_SPACE", 1)
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


@pytest.mark.parametrize("what", ["c-transitivity", "l-minus-sc"])
def test_search_finds_within_small_bounds(what, capsys):
    # the search's own --max-space caps |X|
    assert run(["--machine", "search", what, "--max-space", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["found"] is not None


def test_search_above_enumeration_bound_stops_at_first_find(capsys):
    # _balanced_splits refuses |X| > 12, but the search finds a triple long
    # before it scans models that large
    assert run(["--machine", "search", "c-transitivity", "--max-space", "13"]) == 0
    assert json.loads(capsys.readouterr().out)["found"] is not None


@pytest.mark.parametrize(
    "bound, size, den",
    # 5,200,287 and 1,166,803,093 row combinations
    [("12", 10, 5), ("16", 8, 13)],
)
def test_oversized_search_fails_at_once(bound, size, den, capsys):
    args = ["--max-space", bound, "--max-denominator", bound]
    assert run(["search", "l-minus-sc", "--theta-size", "1"] + args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"error: search grid exceeds enumeration bound {MAX_COMBINATIONS} "
        f"row combinations at |X| = {size}, denominator {den}\n"
    )


def test_ancillaries_above_the_bound_fails_at_once(tmp_path, monkeypatch, capsys):
    # a theta-free 13-point model: every one of its Bell(13) partitions is
    # ancillary; the bound is fixed, so the variable a user might set is
    # ignored, and no partition is generated before the refusal
    model = validate_model(["t1", "t2"], [f"x{i}" for i in range(13)], [["1/13"] * 13] * 2)
    path = tmp_path / "thirteen.model"
    save_model(model, path)
    monkeypatch.setenv("LP_LAB_MAX_SPACE", "20")

    def unexpected(n):
        raise AssertionError("partitions enumerated above the bound")

    monkeypatch.setattr(ancillarity, "all_partitions", unexpected)
    assert run(["ancillaries", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: |X| = 13 exceeds enumeration bound 12\n"


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


def test_deeply_nested_json_is_usage_error(files, tmp_path, capsys):
    deep = tmp_path / "deep.pair"
    deep.write_text("[" * 200000 + "]" * 200000)
    deep = str(deep)
    for argv in (
        ["validate", deep],
        ["relate", "--kind", "L", files["pairB1"], deep],
        ["rb", "analyze", files["pairB1"], "--prior", deep],
    ):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {deep} is not valid JSON: nested too deeply\n"


@pytest.mark.parametrize("spelled, rest", [("1e-1", "9/10"), ("5E-1", "1/2")])
def test_exponent_is_usage_error(files, tmp_path, spelled, rest, capsys):
    pair, prior = tmp_path / "exponent.pair", tmp_path / "exponent.prior"
    pair.write_text(
        json.dumps(
            {
                "theta": ["t1"],
                "space": ["a", "b"],
                "probs": [[spelled, rest]],
                "observed": "a",
            }
        )
    )
    prior.write_text(json.dumps({"theta": ["t1", "t2"], "weights": [spelled, rest]}))
    for argv in (
        ["validate", str(pair)],
        ["rb", "analyze", files["pairB1"], "--prior", str(prior)],
    ):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: {spelled!r} is not a rational number: "
            "exponents are not accepted\n"
        )


def test_non_utf8_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "latin1.pair"
    bad.write_bytes(b'{"theta": ["t1"], "space": ["\xff"], "probs": [["1"]]}')
    assert run(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad} is not UTF-8 text: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _request_argvs(files, pair_d):
    prior = ["--prior", files["prior"]]
    b2_c1 = [files["pairB2"], files["pairC1"]]
    argvs = [["closure", "--kind", kind, "--dir", files["dir"]] for kind in _KINDS]
    argvs += [["relate", "--kind", kind, *b2_c1] for kind in ("L", "C", "SC", "DURBIN")]
    argvs += [["chain", "--kind", kind, *b2_c1] for kind in ("SC", "C")]
    argvs += [
        ["efm", *b2_c1],
        ["birnbaumize", *b2_c1],
        ["relate", "--kind", "S", files["pairA1"], files["pairB1"]],
        ["rb", "analyze", files["pairB1"], *prior, "--hypothesis", "t1"],
        ["rb", "estimate", files["pairB1"], *prior],
        ["rb", "strength", files["pairB1"], *prior, "--theta", "t2"],
        ["reduce", files["pairA1"]],
        ["validate", files["modelD"]],
        ["validate", files["pairC1"]],
        ["check", "model", files["pairA1"]],
        ["check", "prior", files["pairB1"], *prior],
        # FIX-D's {1,2} is ancillary (exit 0) and {1,3} is not (exit 2)
        ["check", "model", pair_d, "--ancillary", "1,2|3,4"],
        ["check", "model", pair_d, "--ancillary", "1,3|2,4"],
    ]
    return [prefix + argv for argv in argvs for prefix in ([], ["--machine"])]


def test_request_path_builds_no_fraction_entries(files, tmp_path, fd, monkeypatch, capsys):
    # files and payloads render entries from den and rows, and every
    # evidence answer, the ancillary check included, is computed from
    # integer rows; probs is for library callers and the ancillary
    # catalog's block_masses, so ancillaries still reach it
    (tmp_path / "d").mkdir()  # outside the directory closure reads
    pair_d = str(tmp_path / "d" / "d1.pair")
    save_pair(pair_at(fd, "1"), pair_d)

    def outcomes():
        out = []
        for argv in _request_argvs(files, pair_d):
            code = run(argv)
            out.append((argv, code, capsys.readouterr().out))
        return out

    expected = outcomes()
    assert [code for _, code, _ in expected[-4:]] == [0, 0, 2, 2]

    def refuse(model):
        raise AssertionError("FiniteModel.probs read on the request path")

    monkeypatch.setattr(FiniteModel, "probs", property(refuse))
    assert outcomes() == expected
    with pytest.raises(AssertionError, match="probs read"):
        run(["ancillaries", files["modelD"]])


@pytest.mark.parametrize("spelled", ["", ","])
def test_rb_empty_hypothesis_is_usage_error(files, spelled, capsys):
    argv = ["rb", "analyze", files["pairB1"], "--prior", files["prior"]]
    assert run(argv + ["--hypothesis", spelled]) == 2
    assert capsys.readouterr().err == "error: unknown parameter label ''\n"


def test_closure_lists_pair_files_by_name(tmp_path, fa, fb, fc, capsys):
    # every name that ends in .pair, hidden ones too, in file-name order
    d = tmp_path / "universe"
    d.mkdir()
    save_pair(pair_at(fb, "y2"), d / "b.pair")
    save_pair(pair_at(fa, "x1"), d / ".hidden.pair")
    save_pair(pair_at(fc, "z1"), d / "a.pair")
    save_pair(pair_at(fb, "y1"), d / "c.pair.json")
    (d / "notes.txt").write_text("not a pair\n")
    assert run(["--machine", "closure", "--kind", "L", "--dir", str(d)]) == 0
    members = json.loads(capsys.readouterr().out)["members"]
    want = [pair_at(fa, "x1"), pair_at(fc, "z1"), pair_at(fb, "y2")]
    assert [m["probs"] for m in members] == [
        [[str(v) for v in row] for row in canonical_form(p).model.probs]
        for p in want
    ]


def test_closure_directory_named_pair_is_usage_error(tmp_path, fb, capsys):
    d = tmp_path / "universe"
    d.mkdir()
    save_pair(pair_at(fb, "y2"), d / "b.pair")
    (d / "sub.pair").mkdir()
    assert run(["closure", "--kind", "L", "--dir", str(d)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {d / 'sub.pair'}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("name", ["missing", "b.pair"])
def test_closure_without_pair_files_is_usage_error(tmp_path, fb, name, capsys):
    save_pair(pair_at(fb, "y2"), tmp_path / "b.pair")
    path = tmp_path / name
    assert run(["closure", "--kind", "L", "--dir", str(path)]) == 2
    assert capsys.readouterr().err == f"error: no .pair files in {path}\n"


def _unreadable(tmp_path, what):
    """A path ``validate`` and ``relate`` cannot read, and the exact text
    after ``error: `` that names it."""
    path = tmp_path / f"{what}.pair"
    if what == "missing":
        code = errno.ENOENT
        return path, f"cannot read {path}: [Errno {code}] {os.strerror(code)}: {str(path)!r}"
    if what == "directory":
        path.mkdir()
        code = errno.EISDIR
        return path, f"cannot read {path}: [Errno {code}] {os.strerror(code)}: {str(path)!r}"
    if what == "latin1":
        path.write_bytes(b'{"theta": ["t1"], "space": ["\xff"]}')
        return path, (
            f"{path} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
            "in position 29: invalid start byte"
        )
    path.write_bytes(b"")
    return path, f"{path} is not valid JSON: Expecting value: line 1 column 1 (char 0)"


@pytest.mark.parametrize("what", ["missing", "directory", "latin1", "empty"])
@pytest.mark.parametrize("command", ["validate", "relate"])
def test_unreadable_file_error_line(files, tmp_path, command, what, capsys):
    path, message = _unreadable(tmp_path, what)
    if command == "validate":
        argv = ["--machine", "validate", str(path)]
    else:  # the second file, so the first was read without error
        argv = ["--machine", "relate", "--kind", "L", files["pairB1"], str(path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
