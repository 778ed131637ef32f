"""Mutation gate for the certificate checker, the C-transitivity search and
set partitions.

Usage, from the repository root (pytest does not collect this file):

    python tests/mutants.py

Each mutant changes one site of a module of ``src/lp_lab``:
- an ``if`` whose body is a lone ``continue`` or ``return`` is dropped;
- a comparison is flipped: == and !=, < and <=, > and >=, ``in`` and
  ``not in``, ``is`` and ``is not``;
- ``and`` becomes ``or``, and ``or`` becomes ``and``.

The mutated module is written into a fresh copy of ``src/``, and the
module's tests in COVERED run against it with ``-x``, under a timeout of
TIMEOUT_S seconds: a mutant is killed when they fail or time out. The
script exits 1 if a mutant survives that EQUIVALENT does not list with
its reason, or if a listed one is killed or no longer exists, and 2 if
the copy fails its tests before any mutation.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lp_lab"
TIMEOUT_S = 120

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
}

# module -> {mutant: why no test can kill it}
EQUIVALENT = {
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
        "search_c_transitivity_counterexample: "
        "`w12 is not None and w23 is not None`: and to or":
            "both witnesses exist by construction, so the weaker assert "
            "holds wherever the original does",
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


def run_tests(src: Path, tests: list[str]) -> bool:
    """True iff the tests pass against the package under ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def check(module: str) -> list[str]:
    """Run every mutant of one module; return the gate's complaints."""
    source = (PACKAGE / module).read_text(encoding="utf-8")
    names = [name for name, _ in mutants(ast.parse(source))]
    equivalent = EQUIVALENT.get(module, {})
    problems = [f"{module}: listed as equivalent, but no such mutant: {name}" for name in equivalent if name not in names]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(PACKAGE, src / "lp_lab", ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "lp_lab" / module
        if not run_tests(src, COVERED[module]):
            print(f"{module}: the tests fail before any mutation", file=sys.stderr)
            raise SystemExit(2)
        for k, name in enumerate(names):
            tree = ast.parse(source)
            mutants(tree)[k][1]()
            target.write_text(ast.unparse(tree), encoding="utf-8")
            start = time.perf_counter()
            survived = run_tests(src, COVERED[module])
            verdict = ("equivalent" if name in equivalent else "SURVIVED") if survived else "killed"
            print(f"{verdict:10} {time.perf_counter() - start:6.1f}s  {module}  {name}", flush=True)
            if survived and name not in equivalent:
                problems.append(f"{module}: survived: {name}")
            if not survived and name in equivalent:
                problems.append(f"{module}: listed as equivalent, but killed: {name}")
    return problems


def main() -> int:
    problems = [p for module in COVERED for p in check(module)]
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
