"""Mutation gate for the certificate checker, the C-transitivity search,
set partitions, the model core, ancillarity, sufficiency, the evidence
calculus, the relation algebra, serialization and the command line.

Usage, from the repository root (pytest does not collect this file):

    python tests/mutants.py

Each mutant changes one site of a module of ``src/lp_lab``:
- an ``if`` whose body is a lone ``continue`` or ``return`` is dropped;
- a comparison is flipped: == and !=, < and <=, > and >=, ``in`` and
  ``not in``, ``is`` and ``is not``;
- ``and`` becomes ``or``, and ``or`` becomes ``and``.

The mutated module is written into a fresh copy of ``src/``, and the
module's tests in COVERED run against it with ``-x``: a mutant is killed
when they fail or time out. The timeout is TIMEOUT_FACTOR times the run
of the same tests on the unmutated copy, at most TIMEOUT_S seconds, so a
mutant that loops forever costs seconds, not minutes. Each module has its
own copy, so the modules' mutant loops run concurrently, at most
``os.cpu_count()`` at a time; their progress lines interleave, and the
complaints are printed in COVERED order. The script exits 1 if a mutant
survives that EQUIVALENT does not list with its reason, or if a listed one
is killed or no longer exists, and 2 if the copy fails its tests before
any mutation.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lp_lab"
TIMEOUT_S = 120
# a mutant's tests may take this many times the unmutated run before they
# count as hanging; every mutant that ends takes at most 1.2 times as long
TIMEOUT_FACTOR = 10

# module -> the test files that must kill its mutants
COVERED = {
    "certify.py": [
        "tests/test_certify.py",
        "tests/test_relations.py",
        "tests/test_ancillarity.py",
    ],
    "search.py": [
        "tests/test_search.py",
        "tests/test_canonical_differential.py",
        "tests/test_cli_golden.py",
    ],
    "partition.py": [
        "tests/test_partition.py",
        "tests/test_ancillarity.py",
    ],
    "model.py": [
        "tests/test_model.py",
        "tests/test_input_schema.py",
        "tests/test_model_differential.py",
    ],
    "ancillarity.py": [
        "tests/test_ancillarity.py",
        "tests/test_c_differential.py",
        "tests/test_laminal_differential.py",
    ],
    "sufficiency.py": [
        "tests/test_sufficiency.py",
    ],
    "evidence.py": [
        "tests/test_evidence.py",
        "tests/test_evidence_differential.py",
    ],
    "relations.py": [
        "tests/test_relations.py",
        "tests/test_closure_differential.py",
        "tests/test_acceptance.py",
        "tests/test_grid_census.py",
    ],
    "serialization.py": [
        "tests/test_serialization.py",
        "tests/test_input_schema.py",
        "tests/test_render_edges.py",
        "tests/test_render_property.py",
    ],
    "cli.py": [
        "tests/test_cli.py",
        "tests/test_cli_golden.py",
        "tests/test_input_schema.py",
    ],
}

# module -> {mutant: why no test can kill it}
EQUIVALENT = {
    "ancillarity.py": {
        "_conditioning_witness: `x in image`: in to not in":
            "complementary labels name the same two blocks, and from_labels "
            "numbers blocks by first appearance, so the partition is the same",
    },
    "model.py": {
        "FiniteModel.__post_init__: `g > 1`: > to >=":
            "g == 1 divides den and every entry by 1, which changes nothing",
        "FiniteModel.likelihoods: `g > 1`: > to >=":
            "a column whose gcd is 1 divided by 1 is the same column",
        "_parse_entry: `not slash or den.isdigit()`: or to and":
            "every entry then goes through parse_rational, which reads the "
            "digit-only spellings the skipped fast path reads to the same "
            "lowest terms, so parsing is only slower",
    },
    "search.py": {
        "search_c_transitivity_counterexample: drop `if len(splits) < 3: continue`":
            "with fewer than three splits every point's blocks are X and at "
            "most one other, so all pairs are comparable and the scan only "
            "takes longer",
        "search_c_transitivity_counterexample: `a <= b`: <= to <":
            "a == b is caught by `b <= a`, so proper containment on one side "
            "decides the same pairs",
        "search_c_transitivity_counterexample: `b <= a`: <= to <":
            "a == b is caught by `a <= b`, so proper containment on one side "
            "decides the same pairs",
    },
    "serialization.py": {
        "_render: drop `if kind is str: return _encode(value)`":
            "a str then reaches the isinstance(value, str) fallback, which "
            "prints the same bytes",
        "_render: drop `if kind is int: return int.__repr__(value)`":
            "an int then reaches the isinstance(value, int) fallback, which "
            "prints the same bytes",
        "_render: drop `if kind is Fraction: return _encode(format_rational(value))`":
            "an exact Fraction then reaches the isinstance(value, Fraction) "
            "check, which prints the same bytes",
    },
}

FLIPS = {
    ast.Eq: (ast.NotEq, "==", "!="),
    ast.NotEq: (ast.Eq, "!=", "=="),
    ast.Lt: (ast.LtE, "<", "<="),
    ast.LtE: (ast.Lt, "<=", "<"),
    ast.Gt: (ast.GtE, ">", ">="),
    ast.GtE: (ast.Gt, ">=", ">"),
    ast.In: (ast.NotIn, "in", "not in"),
    ast.NotIn: (ast.In, "not in", "in"),
    ast.Is: (ast.IsNot, "is", "is not"),
    ast.IsNot: (ast.Is, "is not", "is"),
}
SWAPS = {ast.And: (ast.Or, "and to or"), ast.Or: (ast.And, "or to and")}


def _is_guard(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.If)
        and not node.orelse
        and len(node.body) == 1
        and isinstance(node.body[0], (ast.Continue, ast.Return))
    )


def mutants(tree: ast.AST) -> list[tuple[str, object]]:
    """(name, mutate) for every site of a module, in a fixed order;
    ``mutate()`` changes that site of ``tree`` in place."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for _, value in ast.iter_fields(node):
            children = value if isinstance(value, list) else [value]
            for index, child in enumerate(children):
                if not isinstance(child, ast.AST):
                    continue
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                if _is_guard(child):
                    text = f"if {ast.unparse(child.test)}: {ast.unparse(child.body[0])}"
                    found.append((
                        f"{inner}: drop `{text}`",
                        lambda body=children, i=index: body.__setitem__(i, ast.Pass()),
                    ))
                elif isinstance(child, ast.Compare):
                    for k, op in enumerate(child.ops):
                        if type(op) in FLIPS:
                            flip, old, new = FLIPS[type(op)]
                            found.append((
                                f"{inner}: `{ast.unparse(child)}`: {old} to {new}",
                                lambda ops=child.ops, k=k, flip=flip: ops.__setitem__(k, flip()),
                            ))
                elif isinstance(child, ast.BoolOp):
                    swap, what = SWAPS[type(child.op)]
                    found.append((
                        f"{inner}: `{ast.unparse(child)}`: {what}",
                        lambda node=child, swap=swap: setattr(node, "op", swap()),
                    ))
                visit(child, inner)

    visit(tree, "")
    names = [name for name, _ in found]
    # the same text twice in one function gets a count
    return [
        (name if names.count(name) == 1 else f"{name} #{names[:i].count(name) + 1}", f)
        for i, (name, f) in enumerate(found)
    ]


def run_tests(src: Path, tests: list[str], timeout: float) -> bool:
    """True iff the tests pass against the package under ``src`` within
    ``timeout`` seconds. Their temporary files go beside ``src``, apart
    from those of the other modules' runs."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        f"--basetemp={src.parent / 'pytest'}", *tests,
    ]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def check(module: str, stop: threading.Event) -> list[str]:
    """Run every mutant of one module; return the gate's complaints.

    If the module's tests fail before any mutation, set ``stop`` and exit
    with 2; stop before the next mutant once ``stop`` is set."""
    source = (PACKAGE / module).read_text(encoding="utf-8")
    names = [name for name, _ in mutants(ast.parse(source))]
    equivalent = EQUIVALENT.get(module, {})
    problems = [f"{module}: listed as equivalent, but no such mutant: {name}" for name in equivalent if name not in names]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(PACKAGE, src / "lp_lab", ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "lp_lab" / module
        start = time.perf_counter()
        if not run_tests(src, COVERED[module], TIMEOUT_S):
            print(f"{module}: the tests fail before any mutation", file=sys.stderr)
            stop.set()
            raise SystemExit(2)
        elapsed = time.perf_counter() - start
        timeout = min(TIMEOUT_S, TIMEOUT_FACTOR * elapsed)
        print(f"unmutated  {elapsed:6.1f}s  {module}  (timeout {timeout:.1f}s)", flush=True)
        for k, name in enumerate(names):
            if stop.is_set():
                break
            tree = ast.parse(source)
            mutants(tree)[k][1]()
            target.write_text(ast.unparse(tree), encoding="utf-8")
            start = time.perf_counter()
            survived = run_tests(src, COVERED[module], timeout)
            verdict = ("equivalent" if name in equivalent else "SURVIVED") if survived else "killed"
            print(f"{verdict:10} {time.perf_counter() - start:6.1f}s  {module}  {name}", flush=True)
            if survived and name not in equivalent:
                problems.append(f"{module}: survived: {name}")
            if not survived and name in equivalent:
                problems.append(f"{module}: listed as equivalent, but killed: {name}")
    return problems


def main() -> int:
    # the threads only wait on pytest, which runs in processes of its own;
    # result() raises a module's SystemExit(2) in this thread
    stop = threading.Event()
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
        results = [pool.submit(check, module, stop) for module in COVERED]
    problems = [p for result in results for p in result.result()]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
