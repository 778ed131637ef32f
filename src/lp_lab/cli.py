"""Command-line entry point (`lp-lab`).

Exit codes: 0 = success / relation holds, 1 = relation does not hold or a
search came back empty, 2 = input or usage error. `--machine` switches to
deterministic JSON output; `--decimal K` annotates rationals with a K-digit
decimal rendering (annotation only, the exact value is always printed).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import relations, search
from .ancillarity import DEFAULT_MAX_SPACE, ancillary_catalog
from .errors import LpLabError
from .evidence import (
    check_model_ancillary,
    check_model_mss,
    check_prior_conflict,
    evidence_report,
)
from .model import canonical_form, format_rational
from .partition import Partition
from .relations import RelationKind, Universe
from .serialization import (
    load_json,
    load_model,
    load_pair,
    load_prior,
    model_from_dict,
    pair_from_dict,
    partition_to_labels,
    render_machine,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _decimal_annotation(value: Fraction, digits: int) -> str:
    """Exact long division to `digits` places; no floating point."""
    sign = "-" if value < 0 else ""
    num = abs(value.numerator)
    den = value.denominator
    whole, rem = divmod(num, den)
    out = [sign, str(whole)]
    if digits > 0:
        out.append(".")
        for _ in range(digits):
            rem *= 10
            digit, rem = divmod(rem, den)
            out.append(str(digit))
    return "".join(out)


class Printer:
    def __init__(self, machine: bool, decimals: int | None):
        self.machine = machine
        self.decimals = decimals

    def rational(self, value: Fraction) -> str:
        text = format_rational(value)
        if self.decimals is not None:
            text += f" (~{_decimal_annotation(value, self.decimals)})"
        return text

    def emit(self, payload: dict, lines: list[str]) -> None:
        if self.machine:
            print(render_machine(payload))
        else:
            for line in lines:
                print(line)


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
        ",".join(labels[x] for x in sorted(block))
        for block in partition.blocks
    )


_KINDS = sorted(kind.value for kind in RelationKind)


def _enumeration_bound() -> int:
    """The |X| bound for ancillary enumeration, from LP_LAB_MAX_SPACE."""
    raw = os.environ.get("LP_LAB_MAX_SPACE", DEFAULT_MAX_SPACE)
    try:
        return int(raw)
    except ValueError:
        raise LpLabError(f"LP_LAB_MAX_SPACE is not an integer: {raw!r}") from None


def cmd_validate(args, printer) -> int:
    data = load_json(args.file)
    if "observed" in data:
        pair = pair_from_dict(data)
        payload = {
            "command": "validate",
            "input": pair,
            "canonical": canonical_form(pair),
            "valid": True,
        }
        lines = [
            f"valid pair: |Theta| = {pair.model.n_theta}, "
            f"|X| = {pair.model.n_points}, observed = {pair.observed_label}"
        ]
    else:
        model = model_from_dict(data)
        payload = {
            "command": "validate",
            "input": model,
            "valid": True,
        }
        lines = [
            f"valid model: |Theta| = {model.n_theta}, |X| = {model.n_points}"
        ]
    printer.emit(payload, lines)
    return EXIT_OK


def cmd_reduce(args, printer) -> int:
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
        lines.append(f"  h({label}) = {printer.rational(h)}")
    lines.append(
        "reduced observed: "
        + reduction.reduced.observed_label
    )
    printer.emit(payload, lines)
    return EXIT_OK


def cmd_relate(args, printer) -> int:
    kind = RelationKind(args.kind)
    p1 = load_pair(args.first)
    p2 = load_pair(args.second)
    witness = relations.related(p1, p2, kind)
    payload = {
        "command": "relate",
        "kind": args.kind,
        "first": canonical_form(p1),
        "second": canonical_form(p2),
        "related": witness is not None,
        "witness": witness,
    }
    if witness is None:
        printer.emit(payload, [f"{args.kind}: not related"])
        return EXIT_NEGATIVE
    if isinstance(witness, Fraction):
        lines = [f"L: related with c = {printer.rational(witness)}"]
    else:
        lines = [f"{args.kind}: related"]
    printer.emit(payload, lines)
    return EXIT_OK


def cmd_ancillaries(args, printer) -> int:
    model = load_model(args.file)
    labels = model.sample_labels
    catalog = ancillary_catalog(model, _enumeration_bound())
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
    printer.emit(payload, lines)
    return EXIT_OK


def cmd_birnbaumize(args, printer) -> int:
    p1 = load_pair(args.first)
    p2 = load_pair(args.second)
    mixture, e1, e2 = relations.birnbaumize(p1, p2)
    payload = {
        "command": "birnbaumize",
        "mixture": mixture,
        "embedded_first": e1,
        "embedded_second": e2,
    }
    lines = [
        f"mixture on {mixture.n_points} points; "
        f"embedded observations {e1.observed_label}, {e2.observed_label}"
    ]
    printer.emit(payload, lines)
    return EXIT_OK


def cmd_efm(args, printer) -> int:
    p1 = load_pair(args.first)
    p2 = load_pair(args.second)
    result = relations.efm_parent(p1, p2)
    labels = result.parent.model.sample_labels
    payload = {
        "command": "efm",
        "parent": result.parent,
        "indicator": partition_to_labels(result.indicator, labels),
        "swapped_indicator": partition_to_labels(
            result.swapped_indicator, labels
        ),
        "chain": result.chain,
    }
    lines = [
        "EFM parent built; two-step C chain verified",
        "indicator: " + _partition_text(result.indicator, labels),
        "swapped:   " + _partition_text(result.swapped_indicator, labels),
    ]
    printer.emit(payload, lines)
    return EXIT_OK


def cmd_chain(args, printer) -> int:
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
    lines = [
        f"chain with {len(chain.steps)} steps ({steps}); "
        + ("verified" if verified else "FAILED VERIFICATION")
    ]
    printer.emit(payload, lines)
    return EXIT_OK if verified else EXIT_NEGATIVE


def cmd_closure(args, printer) -> int:
    directory = Path(args.dir)
    files = sorted(directory.glob("*.pair"))
    if not files:
        raise LpLabError(f"no .pair files in {directory}")
    members = [load_pair(f) for f in files]
    if args.augment:
        extra = []
        peers = relations.l_class_peers(members)
        for i, a in enumerate(members):
            for b in (members[j] for j in peers[i] if j > i):
                if args.augment == "birnbaum":
                    _, e1, e2 = relations.birnbaumize(a, b)
                    extra.extend([e1, e2])
                else:
                    extra.append(relations.efm_parent(a, b).parent)
        members.extend(extra)
    universe = Universe.of(members)
    result = relations.closure(universe, RelationKind(args.kind))
    payload = {
        "command": "closure",
        "kind": args.kind,
        "members": universe.members,
        "classes": result.classes,
        "edges": [{"i": e.i, "j": e.j, "kind": e.kind} for e in result.edges],
    }
    lines = [
        f"universe of {len(universe.members)} canonical pairs, "
        f"{len(result.classes)} classes under {args.kind}-closure"
    ]
    for cls in result.classes:
        lines.append("  class: " + ", ".join(str(i) for i in cls))
    printer.emit(payload, lines)
    return EXIT_OK


def cmd_search(args, printer) -> int:
    bounds = search.SearchBounds(
        args.theta_size, args.max_space, args.max_denominator
    )
    transitivity = args.what == "c-transitivity"
    if transitivity:
        found = search.search_c_transitivity_counterexample(bounds)
    else:
        found = search.search_l_minus_sc(bounds)
    payload = {"command": "search", "what": args.what, "found": found}
    if found is None:
        missing = "counterexample" if transitivity else "witness"
        printer.emit(payload, [f"no {missing} within bounds"])
        return EXIT_NEGATIVE
    if transitivity:
        lines = [
            "C is not transitive; verified triple found",
            "p1: " + render_machine(found.p1),
            "p2: " + render_machine(found.p2),
            "p3: " + render_machine(found.p3),
        ]
    else:
        lines = [
            "pair in L but in neither S nor C; "
            f"c = {printer.rational(found.likelihood_ratio)}"
        ]
    printer.emit(payload, lines)
    return EXIT_OK


def cmd_rb(args, printer) -> int:
    if args.what == "strength" and not args.theta:
        raise LpLabError("rb strength requires --theta")
    pair = load_pair(args.file)
    prior = load_prior(args.prior)
    hypotheses = []
    if args.hypothesis:
        hypotheses.append([h.strip() for h in args.hypothesis.split(",")])
    report = evidence_report(pair, prior, hypotheses)
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
    elif args.what == "strength":
        value = report.strength(prior.index_of(args.theta))
        payload["strength"] = value
        lines.append(
            f"strength({args.theta}) = {printer.rational(value)}"
        )
    else:
        lines.append(
            "posterior: ("
            + ", ".join(printer.rational(v) for v in report.posterior)
            + ")"
        )
        lines.append(
            "RB:        ("
            + ", ".join(printer.rational(v) for v in report.rb)
            + ")"
        )
        lines.append("estimate:  " + ", ".join(report.estimate))
        for record in report.hypotheses:
            bf = (
                "inf"
                if record.bayes_factor is None
                else printer.rational(record.bayes_factor)
            )
            lines.append(
                f"A = {{{', '.join(record.hypothesis)}}}: "
                f"BF = {bf}, evidence {record.direction.value}"
            )
    printer.emit(payload, lines)
    return EXIT_OK


def cmd_check(args, printer) -> int:
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
    printer.emit(payload, [f"p-value ({method}): {printer.rational(p_value)}"])
    return EXIT_OK


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The lp-lab parser; built on first use and shared by every run call."""
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

    p = sub.add_parser("validate", help="validate a .model or .pair file")
    p.add_argument("file")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("reduce", help="minimal sufficient reduction")
    p.add_argument("file")
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("relate", help="one-step relation oracle")
    p.add_argument("--kind", choices=_KINDS, required=True)
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=cmd_relate)

    p = sub.add_parser("ancillaries", help="enumerate ancillary partitions")
    p.add_argument("file")
    p.add_argument("--maximal", action="store_true")
    p.add_argument("--laminal", action="store_true")
    p.set_defaults(handler=cmd_ancillaries)

    p = sub.add_parser("birnbaumize", help="equal-weight mixture")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=cmd_birnbaumize)

    p = sub.add_parser("efm", help="unequal-weight mixture with C-only chain")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=cmd_efm)

    p = sub.add_parser("chain", help="emit a verified witness chain")
    p.add_argument("--kind", choices=["SC", "C"], required=True)
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(handler=cmd_chain)

    p = sub.add_parser("closure", help="equivalence closure of a universe")
    p.add_argument("--kind", choices=_KINDS, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--augment", choices=["birnbaum", "efm"])
    p.set_defaults(handler=cmd_closure)

    p = sub.add_parser("search", help="counterexample searches")
    p.add_argument("what", choices=["c-transitivity", "l-minus-sc"])
    p.add_argument("--theta-size", type=int, default=2)
    p.add_argument("--max-space", type=int, default=6)
    p.add_argument("--max-denominator", type=int, default=6)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("rb", help="relative belief inference")
    p.add_argument("what", choices=["analyze", "estimate", "strength"])
    p.add_argument("file")
    p.add_argument("--prior", required=True)
    p.add_argument("--hypothesis", help="comma-separated parameter labels")
    p.add_argument("--theta", help="parameter label for rb strength")
    p.set_defaults(handler=cmd_rb)

    p = sub.add_parser("check", help="model / prior checking")
    p.add_argument("what", choices=["model", "prior"])
    p.add_argument("file")
    p.add_argument("--prior")
    p.add_argument(
        "--ancillary",
        help='ancillary partition as blocks, e.g. "x1,x2|x3"',
    )
    p.set_defaults(handler=cmd_check)
    return parser


def run(argv: list[str]) -> int:
    """Run one lp-lab command line and return its exit code.

    The parser is built once per process, on the first call, and holds no
    per-call state: every call parses into a fresh Namespace.
    """
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    printer = Printer(args.machine, args.decimal)
    try:
        return args.handler(args, printer)
    except (LpLabError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
