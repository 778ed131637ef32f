"""Known-answer tests of the benchmark's generators, reference and checker.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import gen
import ref
import workloads

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))


def test_grid_universes_have_known_sizes():
    assert len(gen.grid_pairs(2, 3, 4)) == 145
    assert len(gen.grid_pairs(2, 4, 4)) == 268


def test_closure_class_counts_on_the_145_pair_universe():
    universe = gen.grid_pairs(2, 3, 4)
    counts = {k: len(ref.closure_classes(universe, k)) for k in gen.CLOSURE_KINDS}
    assert counts == {"S": 103, "C": 95, "L": 13, "SC": 61, "DURBIN": 103}


@pytest.mark.parametrize("n, bell", [(5, 52), (6, 203), (7, 877)])
def test_theta_free_model_has_bell_many_ancillaries(n, bell):
    row = (F(1, n),) * n
    everything, maximal, laminal, antichain = ref.ancillary_catalog((row, row))
    discrete = frozenset(frozenset([x]) for x in range(n))
    assert len(everything) == bell
    assert maximal == [discrete]
    assert (laminal, antichain) == (discrete, None)


def test_fix_d_catalog():
    fix_d = ((F(1, 6), F(2, 6), F(1, 6), F(2, 6)), (F(2, 6), F(1, 6), F(2, 6), F(1, 6)))
    everything, maximal, laminal, _ = ref.ancillary_catalog(fix_d)
    a1 = frozenset([frozenset([0, 1]), frozenset([2, 3])])
    a2 = frozenset([frozenset([0, 3]), frozenset([1, 2])])
    trivial = frozenset([frozenset(range(4))])
    assert set(everything) == {trivial, a1, a2}
    assert set(maximal) == {a1, a2}
    assert laminal == trivial


def test_fix_b_y2_and_fix_c_z1_are_in_l_minus_s_and_c():
    fix_b = ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
    fix_c = ((F(1, 3), F(2, 3)), (F(1, 2), F(1, 2)))
    p1, p2 = (fix_b, 1), (fix_c, 0)
    assert ref.l_ratio(p1, p2) == F(3, 2)
    assert not ref.s_related(p1, p2)
    assert not ref.c_related(p1, p2)


def test_certificate_check_rejects_a_tampered_bijection():
    parent = (((F(1, 4), F(1, 4), F(1, 2)), (F(1, 8), F(3, 8), F(1, 2))), 0)
    child = (((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))), 0)
    blocks = [[0, 1], [2]]
    conditional = child
    assert ref.check_c_certificate(parent, child, "first", blocks, conditional, [0, 1])
    assert not ref.check_c_certificate(parent, child, "first", blocks, conditional, [1, 0])
    assert not ref.check_c_certificate(parent, child, "first", [[0], [1, 2]], conditional, [0, 1])


@pytest.mark.parametrize("workload", gen.GENERATORS)
def test_inputs_match_recorded_digests(workload):
    records = json.loads((BENCH / "expected.json").read_text())[workload]
    assert records
    for seed, record in sorted(records.items())[:3]:
        assert gen.digest(gen.build(workload, int(seed))) == record["inputs"]


@pytest.mark.parametrize("workload", ["closure", "evidence"])
def test_wrong_answers_are_counted_as_failed(workload, tmp_path):
    inputs = gen.build(workload, 1)
    inputs["ops"] = [op for op in inputs["ops"] if op["what"] != "search"][:6]
    runner = workloads.Runner(workload, inputs, tmp_path)
    answers = [runner.answer(i, runner.execute(i)) for i in range(len(inputs["ops"]))]
    want = [workloads.expected(op, inputs["files"]) for op in inputs["ops"]]
    assert answers == want
    good = {"answers": answers, "errors": [None] * len(answers)}
    assert workloads.tally([good], want) == (6, [])

    wrong = json.loads(json.dumps(answers))
    if workload == "closure":
        wrong[0] = wrong[0][1:]  # a class goes missing
    else:
        key = next(k for k, v in wrong[0].items() if v is not None)
        wrong[0][key] = "wrong"
    errors = [None] * 5 + ["exit 2: error: bad input"]
    attempted, failures = workloads.tally([good, {"answers": wrong, "errors": errors}], want)
    assert attempted == 12
    assert [index for index, _, _ in failures] == [0, 5]
