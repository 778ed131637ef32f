"""Command-line entry point (`lp-lab`).

Exit codes: 0 = success / relation holds, 1 = relation does not hold or a
search came back empty, 2 = input or usage error. `--machine` switches to
deterministic JSON output; `--decimal K` annotates rationals with a K-digit
decimal rendering (annotation only, the exact value is always printed).

Global options go before the command. Each command's arguments are
declared once, in ``_COMMANDS``. A line ``COMMAND ...`` or ``--machine
COMMAND ...`` made of the command's exact option strings, their values and
its positionals is read from that table directly (``_read``), with no
argparse parser built. Every other line, such as one with an abbreviation,
"--", "-h", an "--option=value" word, a value argparse refuses or another
global option, goes to the whole lp-lab parser, built from the same table
on first use. So every line gives argparse's Namespace, and argparse alone
writes usage, help and error text.

Each ``cmd_*`` handler takes the parsed ``args`` alone, prints nothing and
returns ``(exit code, payload, lines)``. `run` is the only writer: it prints
the payload as JSON under --machine, else each of ``lines``, which it reads
only then, so a handler may return them as a generator. It writes inside
the handler's error guard, so an error raised while writing exits 2 too.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import relations, search
from .ancillarity import ancillary_catalog
from .errors import LpLabError
from .evidence import (
    check_model_ancillary,
    check_model_mss,
    check_prior_conflict,
    evidence_report,
)
from .model import ModelDataPair, canonical_form, format_rational
from .partition import Partition
from .relations import RelationKind, Universe
from .serialization import (
    load_model,
    load_pair,
    load_pair_or_model,
    load_prior,
    partition_to_labels,
    render_machine,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _rational(value: Fraction, digits: int | None) -> str:
    """``value`` exactly; with --decimal K, then its first K decimal places
    by exact long division, with no floating point."""
    text = format_rational(value)
    if digits is None:
        return text
    whole, rem = divmod(abs(value.numerator), value.denominator)
    out = [" (~-" if value < 0 else " (~", str(whole), "." if digits else ""]
    for _ in range(digits):
        digit, rem = divmod(rem * 10, value.denominator)
        out.append(str(digit))
    return text + "".join(out) + ")"


def _parse_partition(spec: str, pair_or_model) -> Partition:
    labels = pair_or_model.sample_labels
    blocks = []
    for chunk in spec.split("|"):
        block = []
        for name in chunk.split(","):
            name = name.strip()
            if name not in labels:
                raise LpLabError(f"unknown sample label {name!r}")
            block.append(labels.index(name))
        blocks.append(block)
    return Partition.of(len(labels), blocks)


def _partition_text(partition: Partition, labels) -> str:
    return " | ".join(
        ",".join(block) for block in partition_to_labels(partition, labels)
    )


_KINDS = sorted(kind.value for kind in RelationKind)


def cmd_validate(args) -> tuple:
    value = load_pair_or_model(args.file)
    payload = {"command": "validate", "input": value, "valid": True}
    if isinstance(value, ModelDataPair):
        model = value.model
        payload["canonical"] = canonical_form(value)
        lines = [
            f"valid pair: |Theta| = {model.n_theta}, "
            f"|X| = {model.n_points}, observed = {value.observed_label}"
        ]
    else:
        lines = [
            f"valid model: |Theta| = {value.n_theta}, |X| = {value.n_points}"
        ]
    return EXIT_OK, payload, lines


def cmd_reduce(args) -> tuple:
    from .sufficiency import reduce_to_mss

    pair = load_pair(args.file)
    reduction = reduce_to_mss(pair)
    payload = {
        "command": "reduce",
        "input": pair,
        "reduced": reduction.reduced,
        "block_map": reduction.block_map,
        "theta_free_factor": reduction.theta_free_factor,
    }
    lines = ["minimal sufficient reduction:"]
    for label, h in zip(
        pair.model.sample_labels, reduction.theta_free_factor
    ):
        lines.append(f"  h({label}) = {_rational(h, args.decimal)}")
    lines.append("reduced observed: " + reduction.reduced.observed_label)
    return EXIT_OK, payload, lines


def cmd_relate(args) -> tuple:
    kind = RelationKind(args.kind)
    # the witness refers to the pairs the payload prints
    p1 = canonical_form(load_pair(args.first))
    p2 = canonical_form(load_pair(args.second))
    witness = relations.related(p1, p2, kind)
    payload = {
        "command": "relate",
        "kind": args.kind,
        "first": p1,
        "second": p2,
        "related": witness is not None,
        "witness": witness,
    }
    if witness is None:
        return EXIT_NEGATIVE, payload, [f"{args.kind}: not related"]
    if isinstance(witness, Fraction):
        return EXIT_OK, payload, [
            f"L: related with c = {_rational(witness, args.decimal)}"
        ]
    return EXIT_OK, payload, [f"{args.kind}: related"]


def cmd_ancillaries(args) -> tuple:
    model = load_model(args.file)
    labels = model.sample_labels
    catalog = ancillary_catalog(model)
    payload = {
        "command": "ancillaries",
        "model": model,
        "all": [partition_to_labels(a, labels) for a in catalog.all],
        "maximal": [partition_to_labels(a, labels) for a in catalog.maximal],
        "laminal": partition_to_labels(catalog.laminal, labels),
        # the laminal ancillary always exists; the key keeps the schema
        "laminal_antichain": None,
    }
    if args.laminal:
        lines = ["laminal: " + _partition_text(catalog.laminal, labels)]
    else:
        shown = catalog.maximal if args.maximal else catalog.all
        header = "maximal ancillaries" if args.maximal else "ancillaries"
        lines = [f"{header} ({len(shown)}):"]
        lines.extend("  " + _partition_text(a, labels) for a in shown)
    return EXIT_OK, payload, lines


def cmd_birnbaumize(args) -> tuple:
    p1 = load_pair(args.first)
    p2 = load_pair(args.second)
    mixture, e1, e2 = relations.birnbaumize(p1, p2)
    payload = {
        "command": "birnbaumize",
        "mixture": mixture,
        "embedded_first": e1,
        "embedded_second": e2,
    }
    return EXIT_OK, payload, [
        f"mixture on {mixture.n_points} points; "
        f"embedded observations {e1.observed_label}, {e2.observed_label}"
    ]


def cmd_efm(args) -> tuple:
    p1 = load_pair(args.first)
    p2 = load_pair(args.second)
    result = relations.efm_parent(p1, p2)
    verified = relations.verify_chain(result.chain)
    labels = result.parent.model.sample_labels
    payload = {
        "command": "efm",
        "parent": result.parent,
        "indicator": partition_to_labels(result.indicator, labels),
        "swapped_indicator": partition_to_labels(
            result.swapped_indicator, labels
        ),
        "chain": result.chain,
        "verified": verified,
    }
    return EXIT_OK if verified else EXIT_NEGATIVE, payload, [
        "EFM parent built; two-step C chain "
        + ("verified" if verified else "FAILED VERIFICATION"),
        "indicator: " + _partition_text(result.indicator, labels),
        "swapped:   " + _partition_text(result.swapped_indicator, labels),
    ]


def cmd_chain(args) -> tuple:
    p1 = load_pair(args.first)
    p2 = load_pair(args.second)
    if args.kind == "SC":
        chain = relations.birnbaum_chain(p1, p2)
    else:
        chain = relations.efm_parent(p1, p2).chain
    verified = relations.verify_chain(chain)
    payload = {
        "command": "chain",
        "kind": args.kind,
        "chain": chain,
        "verified": verified,
    }
    steps = " - ".join(step.kind.value for step in chain.steps)
    return EXIT_OK if verified else EXIT_NEGATIVE, payload, [
        f"chain with {len(chain.steps)} steps ({steps}); "
        + ("verified" if verified else "FAILED VERIFICATION")
    ]


def cmd_closure(args) -> tuple:
    # every name ending in .pair, hidden ones too, as Path.glob lists them
    directory = Path(args.dir)
    try:
        names = sorted(n for n in os.listdir(directory) if n.endswith(".pair"))
    except OSError:
        names = []
    prefix = "" if str(directory) == "." else os.path.join(directory, "")
    files = [prefix + name for name in names]
    if not files:
        raise LpLabError(f"no .pair files in {directory}")
    members = [load_pair(f) for f in files]
    if args.augment:
        members = relations.augment(members, args.augment)
    universe = Universe.of(members)
    result = relations.closure(universe, RelationKind(args.kind))
    payload = {
        "command": "closure",
        "kind": args.kind,
        "members": universe.members,
        "classes": result.classes,
        "edges": [{"i": e.i, "j": e.j, "kind": e.kind} for e in result.edges],
    }

    def lines():
        yield (
            f"universe of {len(universe.members)} canonical pairs, "
            f"{len(result.classes)} classes under {args.kind}-closure"
        )
        for cls in result.classes:
            yield "  class: " + ", ".join(str(i) for i in cls)
    return EXIT_OK, payload, lines()


def cmd_search(args) -> tuple:
    bounds = search.SearchBounds(
        args.theta_size, args.max_space, args.max_denominator
    )
    transitivity = args.what == "c-transitivity"
    if transitivity:
        found = search.search_c_transitivity_counterexample(bounds)
    else:
        found = search.search_l_minus_sc(bounds)
    payload = {
        "command": "search",
        "what": args.what,
        "bounds": bounds,
        "found": found,
    }
    if found is None:
        missing = "counterexample" if transitivity else "witness"
        return EXIT_NEGATIVE, payload, [f"no {missing} within bounds"]
    if transitivity:
        return EXIT_OK, payload, [
            "C is not transitive; verified triple found",
            "p1: " + render_machine(found.p1),
            "p2: " + render_machine(found.p2),
            "p3: " + render_machine(found.p3),
        ]
    return EXIT_OK, payload, [
        "pair in L but in neither S nor C; "
        f"c = {_rational(found.likelihood_ratio, args.decimal)}"
    ]


def cmd_rb(args) -> tuple:
    strength = args.what == "strength"
    if strength and not args.theta:
        raise LpLabError("rb strength requires --theta")
    pair = load_pair(args.file)
    prior = load_prior(args.prior)
    hypotheses = []
    if args.hypothesis is not None:
        hypotheses.append([h.strip() for h in args.hypothesis.split(",")])
    if strength:
        # {theta} goes last, so a bad --hypothesis is still reported first;
        # its record gives the strength and is left out of the payload
        hypotheses.append([args.theta])
    report = evidence_report(pair, prior, hypotheses)
    if strength:
        *records, record = report.hypotheses
        value = record.strength
        report = dataclasses.replace(report, hypotheses=tuple(records))
    payload = {
        "command": f"rb {args.what}",
        "pair": pair,
        "prior": prior,
        "report": report,
    }
    lines = []
    if args.what == "estimate":
        lines.append(
            "relative belief estimate: " + ", ".join(report.estimate)
        )
    elif strength:
        payload["strength"] = value
        lines.append(
            f"strength({args.theta}) = {_rational(value, args.decimal)}"
        )
    else:
        lines.append(
            "posterior: ("
            + ", ".join(_rational(v, args.decimal) for v in report.posterior)
            + ")"
        )
        lines.append(
            "RB:        ("
            + ", ".join(_rational(v, args.decimal) for v in report.rb)
            + ")"
        )
        lines.append("estimate:  " + ", ".join(report.estimate))
        for record in report.hypotheses:
            if record.bayes_factor is not None:
                bf = _rational(record.bayes_factor, args.decimal)
            elif len(record.hypothesis) == len(prior.theta_labels):
                bf = "undefined"
            else:
                bf = "inf"
            lines.append(
                f"A = {{{', '.join(record.hypothesis)}}}: "
                f"BF = {bf}, evidence {record.direction.value}"
            )
    return EXIT_OK, payload, lines


def cmd_check(args) -> tuple:
    # options first, so a bad command line is reported before any file
    if args.what == "model" and args.prior is not None:
        raise LpLabError("check model does not take --prior")
    if args.what == "prior":
        if args.ancillary is not None:
            raise LpLabError("check prior does not take --ancillary")
        if not args.prior:
            raise LpLabError("check prior requires --prior")
    pair = load_pair(args.file)
    if args.what == "model":
        if args.ancillary is not None:
            partition = _parse_partition(args.ancillary, pair.model)
            p_value = check_model_ancillary(pair, partition)
            method = "ancillary"
        else:
            p_value = check_model_mss(pair)
            method = "mss-conditional"
    else:
        prior = load_prior(args.prior)
        p_value = check_prior_conflict(pair, prior)
        method = "prior-predictive-of-mss"
    payload = {
        "command": f"check {args.what}",
        "method": method,
        "p_value": p_value,
    }
    return EXIT_OK, payload, [
        f"p-value ({method}): {_rational(p_value, args.decimal)}"
    ]


def _digits(text: str) -> int:
    """The K of --decimal K: a whole number of decimal places, 0 or more."""
    try:
        digits = int(text)
    except ValueError:
        digits = -1
    if digits < 0:
        raise argparse.ArgumentTypeError(
            f"K must be a nonnegative integer, got {text!r}"
        )
    return digits


# a required option or positional that _read has not met yet
_MISSING = object()

# name -> (help, handler, arguments): each argument is the name and the
# keyword arguments of one add_argument call, in the order of the usage line
_COMMANDS = {
    "validate": ("validate a .model or .pair file", cmd_validate, (
        ("file", {}),
    )),
    "reduce": ("minimal sufficient reduction", cmd_reduce, (
        ("file", {}),
    )),
    "relate": ("one-step relation oracle", cmd_relate, (
        ("--kind", {"choices": _KINDS, "required": True}),
        ("first", {}),
        ("second", {}),
    )),
    "ancillaries": ("enumerate ancillary partitions", cmd_ancillaries, (
        ("file", {}),
        ("--maximal", {"action": "store_true"}),
        ("--laminal", {"action": "store_true"}),
    )),
    "birnbaumize": ("equal-weight mixture", cmd_birnbaumize, (
        ("first", {}),
        ("second", {}),
    )),
    "efm": ("unequal-weight mixture with C-only chain", cmd_efm, (
        ("first", {}),
        ("second", {}),
    )),
    "chain": ("emit a verified witness chain", cmd_chain, (
        ("--kind", {"choices": ["SC", "C"], "required": True}),
        ("first", {}),
        ("second", {}),
    )),
    "closure": ("equivalence closure of a universe", cmd_closure, (
        ("--kind", {"choices": _KINDS, "required": True}),
        ("--dir", {"required": True}),
        ("--augment", {"choices": ["birnbaum", "efm"]}),
    )),
    "search": ("counterexample searches", cmd_search, (
        ("what", {"choices": ["c-transitivity", "l-minus-sc"]}),
        ("--theta-size", {"type": int, "default": 2}),
        ("--max-space", {"type": int, "default": 6}),
        ("--max-denominator", {"type": int, "default": 6}),
    )),
    "rb": ("relative belief inference", cmd_rb, (
        ("what", {"choices": ["analyze", "estimate", "strength"]}),
        ("file", {}),
        ("--prior", {"required": True}),
        ("--hypothesis", {"help": "comma-separated parameter labels"}),
        ("--theta", {"help": "parameter label for rb strength"}),
    )),
    "check": ("model / prior checking", cmd_check, (
        ("what", {"choices": ["model", "prior"]}),
        ("file", {}),
        ("--prior", {}),
        ("--ancillary", {"help": 'ancillary partition as blocks, e.g. "x1,x2|x3"'}),
    )),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The lp-lab parser, built from ``_COMMANDS`` on first use and shared
    by every run call. It reads only the lines ``_read`` refuses, and it is
    the one source of usage, help and error text."""
    parser = argparse.ArgumentParser(
        prog="lp-lab",
        description="Exact-arithmetic lab for the S/C/L relation algebra, "
        "mixture constructions and relative-belief evidence on finite models.",
    )
    parser.add_argument(
        "--machine", action="store_true", help="emit deterministic JSON"
    )
    parser.add_argument(
        "--decimal",
        type=_digits,
        metavar="K",
        help="annotate rationals with a K-digit decimal rendering",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (text, handler, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, spec in arguments:
            p.add_argument(flag, **spec)
        p.set_defaults(handler=handler)
    return parser


def _read(name: str, words: list[str]) -> argparse.Namespace | None:
    """The Namespace ``build_parser().parse_args([name, *words])`` returns,
    read from the command's ``_COMMANDS`` entry with no parser built.

    Every word must be an exact option string of the command, the one
    value after a valued option, or the next positional. A value or
    positional that starts with "-" (so "--", "-h" and "-5" too), an
    abbreviation or an "--opt=value" word, a value its ``type`` or
    ``choices`` refuses, a missing required option, a missing or extra
    positional, and an unknown command give None: the line is argparse's.
    """
    command = _COMMANDS.get(name)
    if command is None:
        return None
    _, handler, arguments = command
    values = {"machine": False, "decimal": None, "subcommand": name}
    options, positionals = {}, []
    for flag, spec in arguments:
        if flag[0] != "-":
            positionals.append((flag, spec))
            values[flag] = _MISSING
            continue
        dest = flag[2:].replace("-", "_")
        options[flag] = dest, spec
        if spec.get("required"):
            values[dest] = _MISSING
        else:
            values[dest] = spec.get("default", False if "action" in spec else None)
    positionals = iter(positionals)
    words = iter(words)
    for word in words:
        if word[:1] != "-":
            dest, spec = next(positionals, (None, None))
            if dest is None:
                return None
        else:
            dest, spec = options.get(word, (None, None))
            if dest is None:
                return None
            if "action" in spec:  # store_true
                values[dest] = True
                continue
            word = next(words, "-")
            if word[:1] == "-":
                return None
        if "type" in spec:
            try:
                word = spec["type"](word)
            except ValueError:
                return None
        if "choices" in spec and word not in spec["choices"]:
            return None
        values[dest] = word
    if _MISSING in values.values():
        return None
    return argparse.Namespace(handler=handler, **values)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse a command line as ``build_parser().parse_args`` does.

    ``COMMAND ...`` and ``--machine COMMAND ...`` are read by ``_read``,
    with no parser built. The lines it refuses, those with any other
    global option and those with a missing or unknown command go to the
    whole parser, which returns their Namespace or exits with its usage,
    help or error text.
    """
    machine = argv[:1] == ["--machine"]
    words = argv[machine:]
    args = _read(words[0], words[1:]) if words else None
    if args is None:
        return build_parser().parse_args(argv)
    args.machine = machine
    return args


def run(argv: list[str]) -> int:
    """Run one lp-lab command line, print its answer, return its exit code.

    Global options go before the command. A well-formed ``COMMAND ...`` or
    ``--machine COMMAND ...`` is read with no parser built; only the lines
    ``_read`` refuses build the whole parser (``_parse_args``), once per
    process, and it holds no per-call state: every call parses into a
    fresh Namespace.
    """
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        code, payload, lines = args.handler(args)
        if args.machine:
            print(render_machine(payload))
        else:
            for line in lines:
                print(line)
        return code
    except (LpLabError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
