"""How each benchmark operation is run, read back and judged.

``execute`` performs one operation against lp_lab (the timed part).
``answer`` turns its raw result into the parts that do not depend on the
implementation: closure classes, relation truth values, exact rationals,
ancillary sets and re-checked certificates, never the choice of witness.
``expected`` computes the same answer from the inputs with ``ref`` alone.
A mismatch, an exception, or an exit code the command may not return is a
failed operation; exit code 1 (relation absent, search exhausted) is an answer.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import gen
import ref

HALF = Fraction(1, 2)
# exit codes each CLI command may return as an answer
ALLOWED_EXIT = {"search": (0, 1), "relate": (0, 1)}


class Failed(Exception):
    """An operation that errored or returned something unusable."""


def file_pair(data: dict):
    return ref.parse_probs(data["probs"]), data["space"].index(data["observed"])


def argv(op: dict, base: Path) -> list[str]:
    """Command line of a CLI operation, with files under ``base``."""
    what = op["what"]

    def path(name):
        return str(base / name)

    if what == "closure":
        return ["--machine", "closure", "--kind", op["kind"], "--dir", path(op["dir"])]
    if what == "search":
        t, s, d = (str(b) for b in op["bounds"])
        return ["--machine", "search", op["search"], "--theta-size", t, "--max-space", s, "--max-denominator", d]
    if what == "ancillaries":
        return ["--machine", "ancillaries", path(op["file"])] + ([op["form"]] if op["form"] else [])
    if what in ("validate", "reduce"):
        return ["--machine", what, path(op["file"])]
    if what == "rb":
        args = ["--machine", "rb", op["mode"], path(op["file"]), "--prior", path(op["prior"])]
        if op["mode"] == "analyze":
            args += ["--hypothesis", ",".join(op["hypothesis"])]
        if op["mode"] == "strength":
            args += ["--theta", op["theta"]]
        return args
    if what == "check_model":
        args = ["--machine", "check", "model", path(op["file"])]
        return args + (["--ancillary", op["ancillary"]] if op["ancillary"] else [])
    if what == "check_prior":
        return ["--machine", "check", "prior", path(op["file"]), "--prior", path(op["prior"])]
    if what == "relate":
        return ["--machine", "relate", "--kind", op["kind"], path(op["first"]), path(op["second"])]
    raise ValueError(what)


class Runner:
    """Runs one workload's operations in this process."""

    def __init__(self, workload: str, inputs: dict, base: Path):
        import lp_lab.cli
        import lp_lab.relations

        self.workload = workload
        self.inputs = inputs
        self.base = base
        self.cli = lp_lab.cli
        self.relations = lp_lab.relations
        self.pairs = {}
        self.argvs = []
        if workload == "chains":
            from lp_lab.serialization import pair_from_dict

            self.pairs = {name: pair_from_dict(d) for name, d in inputs["files"].items()}
        else:
            for name, data in inputs["files"].items():
                target = base / name
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
            self.argvs = [argv(op, base) for op in inputs["ops"]]

    def execute(self, index: int):
        """The timed part of operation ``index``; returns its raw result."""
        op = self.inputs["ops"][index]
        if self.workload != "chains":
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.run(self.argvs[index])
            return code, out.getvalue(), err.getvalue()
        p1, p2 = self.pairs[op["first"]], self.pairs[op["second"]]
        rel = self.relations
        if op["what"] == "birnbaum":
            chain = rel.birnbaum_chain(p1, p2)
            return chain, rel.verify_chain(chain)
        if op["what"] == "efm":
            result = rel.efm_parent(p1, p2)
            return result, rel.verify_chain(result.chain)
        return rel.birnbaum_chain_durbin(p1, p2)

    def answer(self, index: int, raw) -> dict | list:
        op = self.inputs["ops"][index]
        if self.workload == "chains":
            return self._chain_answer(op, raw)
        code, out, err = raw
        if code not in ALLOWED_EXIT.get(op["what"], (0,)) or "Traceback" in err:
            raise Failed(f"exit {code}: {err.strip()[:300]}")
        data = json.loads(out)
        return READERS[op["what"]](op, data, self.inputs["files"])

    # -- chains ------------------------------------------------------------

    def _chain_answer(self, op, raw):
        files = self.inputs["files"]
        p1, p2 = file_pair(files[op["first"]]), file_pair(files[op["second"]])
        if op["what"] == "birnbaum":
            chain, verified = raw
            nodes = [lib_pair(n) for n in chain.nodes]
            nodes_ok = (
                len(nodes) == 4
                and nodes[0] == p1
                and nodes[3] == p2
                and ref.pair_key(nodes[1]) == ref.pair_key(ref.mixture(p1, p2, HALF, HALF, False))
                and ref.pair_key(nodes[2]) == ref.pair_key(ref.mixture(p1, p2, HALF, HALF, True))
            )
            return {
                "steps": "-".join(s.kind.value for s in chain.steps),
                "verified": bool(verified),
                "certificates": chain_certified(chain),
                "nodes": nodes_ok,
            }
        if op["what"] == "efm":
            result, verified = raw
            c = ref.l_ratio(p1, p2)
            own = ref.mixture(p1, p2, 1 / (1 + c), c / (1 + c), False)
            parent = lib_pair(result.parent)
            return {
                "steps": "-".join(s.kind.value for s in result.chain.steps),
                "verified": bool(verified),
                "certificates": chain_certified(result.chain),
                "parent": ref.pair_key(parent) == ref.pair_key(own)
                and lib_pair(result.chain.nodes[1]) == parent,
            }
        attempt = raw
        _, e1, e2 = self.relations.birnbaumize(self.pairs[op["first"]], self.pairs[op["second"]])
        e1, e2 = lib_pair(e1), lib_pair(e2)
        certified = (
            ref.pair_key(e1) == ref.pair_key(ref.mixture(p1, p2, HALF, HALF, False))
            and ref.pair_key(e2) == ref.pair_key(ref.mixture(p1, p2, HALF, HALF, True))
            and (attempt.first_step is None or c_certified(p1, e1, attempt.first_step, True))
            and (attempt.last_step is None or c_certified(e2, p2, attempt.last_step, True))
        )
        return {
            "admissible": bool(attempt.indicator_is_function_of_mss),
            "first": attempt.first_step is not None,
            "last": attempt.last_step is not None,
            "certificates": certified,
        }


def lib_pair(pair):
    return pair.model.probs, pair.observed


def c_certified(first, second, witness, durbin=False) -> bool:
    return ref.check_c_certificate(
        first,
        second,
        witness.parent,
        [sorted(b) for b in witness.ancillary.blocks],
        lib_pair(witness.conditional),
        list(witness.bijection),
        durbin,
    )


def chain_certified(chain) -> bool:
    """Re-check every step of a chain with the benchmark's own checks."""
    if len(chain.nodes) != len(chain.steps) + 1:
        return False
    for a, b, step in zip(chain.nodes, chain.nodes[1:], chain.steps):
        a, b = lib_pair(a), lib_pair(b)
        first, second = (a, b) if step.forward else (b, a)
        kind = step.kind.value
        if kind in ("C", "DURBIN"):
            ok = c_certified(first, second, step.witness, kind == "DURBIN")
        elif kind == "S":
            ok = ref.s_related(a, b)
        else:
            ok = ref.l_ratio(first, second) == step.witness
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# Readers of CLI output and the matching reference answers


def _key_text(key) -> list:
    cols, obs = key
    return [[[ref.fmt(v) for v in col] for col in cols], [ref.fmt(v) for v in obs]]


def _dir_pairs(op, files):
    names = sorted(n for n in files if n.startswith(op["dir"] + "/"))
    return names, [file_pair(files[n]) for n in names]


def read_closure(op, data, files):
    names, pairs = _dir_pairs(op, files)
    by_key = {ref.pair_key(p): n for n, p in zip(names, pairs)}
    members = [by_key[ref.pair_key(file_pair(m))] for m in data["members"]]
    return sorted(sorted(members[i] for i in cls) for cls in data["classes"])


def read_search(op, data, files):
    found = data["found"]
    if found is None:
        return {"found": False}
    if op["search"] == "l-minus-sc":
        p1, p2 = file_pair(found["p1"]), file_pair(found["p2"])
        valid = (
            ref.l_ratio(p1, p2) == Fraction(found["likelihood_ratio"])
            and not ref.s_related(p1, p2)
            and not ref.c_related(p1, p2)
        )
        return {"found": True, "valid": valid}
    p1, p2, p3 = (file_pair(found[k]) for k in ("p1", "p2", "p3"))

    def certified(first, second, w):
        cond = file_pair(w["conditional"])
        return ref.check_c_certificate(first, second, w["parent"], w["ancillary"], cond, w["bijection"])

    valid = (
        certified(p1, p2, found["witness_12"])
        and certified(p2, p3, found["witness_23"])
        and not ref.c_related(p1, p3)
    )
    return {"found": True, "valid": valid}


def _canonical_partitions(parts) -> list:
    return sorted(sorted(sorted(b) for b in p) for p in parts)


def read_ancillaries(op, data, files):
    laminal = data["laminal"]
    antichain = data["laminal_antichain"]
    return {
        "all": _canonical_partitions(data["all"]),
        "maximal": _canonical_partitions(data["maximal"]),
        "laminal": None if laminal is None else sorted(sorted(b) for b in laminal),
        "antichain": None if antichain is None else _canonical_partitions(antichain),
    }


def read_validate(op, data, files):
    same = ref.pair_key(file_pair(data["canonical"])) == ref.pair_key(file_pair(files[op["file"]]))
    return {"valid": data["valid"], "canonical_isomorphic": same}


def read_reduce(op, data, files):
    return {
        "h": [ref.fmt(Fraction(v)) for v in data["theta_free_factor"]],
        "reduced": _key_text(ref.pair_key(file_pair(data["reduced"]))),
    }


def _rational(text):
    return None if text is None else ref.fmt(Fraction(text))


def read_rb(op, data, files):
    report = data["report"]
    out = {
        "m": _rational(report["prior_predictive_at_data"]),
        "posterior": [_rational(v) for v in report["posterior"]],
        "rb": [_rational(v) for v in report["rb"]],
        "estimate": sorted(report["estimate"]),
        "hypotheses": [
            [r["hypothesis"], _rational(r["prior_probability"]), _rational(r["posterior_probability"]),
             _rational(r["bayes_factor"]), r["direction"], _rational(r["strength"])]
            for r in report["hypotheses"]
        ],
    }
    if op["mode"] == "strength":
        out["strength"] = _rational(data["strength"])
    return out


def read_p_value(op, data, files):
    return {"p_value": _rational(data["p_value"])}


def read_relate(op, data, files):
    out = {"related": data["related"]}
    if op["kind"] == "L":
        out["c"] = _rational(data["witness"])
    return out


READERS = {
    "closure": read_closure,
    "search": read_search,
    "ancillaries": read_ancillaries,
    "validate": read_validate,
    "reduce": read_reduce,
    "rb": read_rb,
    "check_model": read_p_value,
    "check_prior": read_p_value,
    "relate": read_relate,
}


def expected(op: dict, files: dict):
    """The reference answer of one operation, from ``ref`` alone."""
    what = op["what"]
    if what == "closure":
        names, pairs = _dir_pairs(op, files)
        return sorted(sorted(names[i] for i in cls) for cls in ref.closure_classes(pairs, op["kind"]))
    if what == "search":
        found = next(f for s, b, f in gen.SEARCHES if s == op["search"] and list(b) == op["bounds"])
        return {"found": True, "valid": True} if found else {"found": False}
    if what == "ancillaries":
        data = files[op["file"]]
        labels = data["space"]
        everything, maximal, laminal, antichain = ref.ancillary_catalog(ref.parse_probs(data["probs"]))
        return {
            "all": sorted(ref.partition_labels(p, labels) for p in everything),
            "maximal": sorted(ref.partition_labels(p, labels) for p in maximal),
            "laminal": None if laminal is None else ref.partition_labels(laminal, labels),
            "antichain": None if antichain is None else sorted(ref.partition_labels(p, labels) for p in antichain),
        }
    if what in ("birnbaum", "efm", "durbin"):
        p1, p2 = file_pair(files[op["first"]]), file_pair(files[op["second"]])
        if what == "birnbaum":
            return {"steps": "C-S-C", "verified": True, "certificates": True, "nodes": True}
        if what == "efm":
            return {"steps": "C-C", "verified": True, "certificates": True, "parent": True}
        admissible, first, last = ref.durbin_chain_expectation(p1, p2)
        return {"admissible": admissible, "first": first, "last": last, "certificates": True}
    if what == "relate":
        p1, p2 = file_pair(files[op["first"]]), file_pair(files[op["second"]])
        if op["kind"] == "S":
            return {"related": ref.s_related(p1, p2)}
        c = ref.l_ratio(p1, p2)
        return {"related": c is not None, "c": None if c is None else ref.fmt(c)}
    pair = file_pair(files[op["file"]])
    if what == "validate":
        return {"valid": True, "canonical_isomorphic": True}
    if what == "reduce":
        return {"h": [ref.fmt(h) for h in ref.theta_free_factors(pair)], "reduced": _key_text(ref.s_key(pair))}
    if what == "check_model":
        return {"p_value": "1" if op["ancillary"] else ref.fmt(ref.check_model_mss(pair))}
    prior = files[op["prior"]]
    weights = [Fraction(w) for w in prior["weights"]]
    if what == "check_prior":
        return {"p_value": ref.fmt(ref.check_prior_conflict(pair, weights))}
    thetas = prior["theta"]
    summary = ref.evidence_summary(pair, weights, thetas, [op["hypothesis"]] if op["mode"] == "analyze" else [])
    strengths = summary.pop("strength")
    if op["mode"] == "strength":
        summary["strength"] = strengths[op["theta"]]
    return summary


def tally(passes: list[dict], want: list) -> tuple[int, list[tuple]]:
    """Operations attempted over all passes, and the failed ones.

    A failure is ``(op index, error, answer)``: the operation raised, exited
    with a code it may not return, or answered other than ``want``.
    """
    attempted, failures = 0, []
    for result in passes:
        for index, (answer, error) in enumerate(zip(result["answers"], result["errors"])):
            attempted += 1
            if error is not None or answer != want[index]:
                failures.append((index, error, answer))
    return attempted, failures
