"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All comparisons are exact rational equality.
"""

import json
import random
from fractions import Fraction

import pytest

from lp_lab.ancillarity import c_related, enumerate_ancillaries
from lp_lab.evidence import (
    bayes_factor,
    posterior,
    prior_predictive,
    rb_estimate,
    rb_strength,
    relative_belief,
    check_model_mss,
    check_prior_conflict,
    evidence_direction,
    Direction,
)
from lp_lab.model import (
    canonical_form,
    pair_at,
    pairs_isomorphic,
)
from lp_lab.partition import Partition, is_function_of
from lp_lab.relations import (
    RelationKind,
    Universe,
    birnbaum_chain,
    birnbaum_chain_durbin,
    birnbaumize,
    component_indicator,
    efm_parent,
    l_related,
    relation_properties_report,
    verify_chain,
)
from lp_lab.search import (
    SearchBounds,
    check_l_minus_sc,
    enumerate_pairs,
    search_c_transitivity_counterexample,
)
from lp_lab.sufficiency import likelihood_partition, s_related
from model_reference import likelihood_vector
from random_models import random_l_related_pair, random_pair, random_prior

SEED = 20260823
F = Fraction


@pytest.fixture(scope="module")
def l_related_pairs():
    rng = random.Random(SEED)
    return [random_l_related_pair(rng) for _ in range(100)]


def _ok(line):
    print(f"PASS {line}")


def test_criterion_1_equivalence_law_audit():
    universe = Universe.of(list(enumerate_pairs(2, 3, 4)))
    for kind in (RelationKind.S, RelationKind.L):
        report = relation_properties_report(universe, kind)
        assert report.reflexive.holds
        assert report.symmetric.holds
        assert report.transitive.holds
    _ok(
        "criterion 1: S and L are equivalence relations on the "
        f"{len(universe.members)}-pair exhaustive universe"
    )


def test_criterion_2_c_non_transitivity():
    found = search_c_transitivity_counterexample(SearchBounds(2, 6, 6))
    assert found is not None
    assert c_related(found.p1, found.p2) is not None
    assert c_related(found.p2, found.p3) is not None
    assert c_related(found.p1, found.p3) is None
    # frozen regression fixture: see test_search.py for the exact triple
    assert found.p2.model.n_points == 3
    _ok("criterion 2: verified C-transitivity counterexample within bounds")


def test_criterion_3_proper_containment(fb, fc):
    p1, p2 = pair_at(fb, "y2"), pair_at(fc, "z1")
    witness = check_l_minus_sc(p1, p2)
    assert witness is not None
    assert witness.likelihood_ratio == F(3, 2)
    assert s_related(p1, p2) is None
    assert c_related(p1, p2) is None
    assert enumerate_ancillaries(fb) == [Partition.trivial(2)]
    assert enumerate_ancillaries(fc) == [Partition.trivial(2)]
    _ok("criterion 3: (FIX-B,y2),(FIX-C,z1) in L \\ (S u C), c = 3/2")


def test_criterion_4_birnbaum_chain_completeness(l_related_pairs):
    for i, (p1, p2) in enumerate(l_related_pairs):
        chain = birnbaum_chain(p1, p2)
        assert len(chain.steps) == 3, i
        assert verify_chain(chain), i
    _ok("criterion 4: 100/100 Birnbaum chains verified (3 steps each)")


def test_criterion_5_efm_chain_completeness(l_related_pairs):
    for i, (p1, p2) in enumerate(l_related_pairs):
        result = efm_parent(p1, p2)
        chain = result.chain
        assert len(chain.steps) == 2, i
        assert all(s.kind is RelationKind.C for s in chain.steps), i
        assert verify_chain(chain), i
        parent = result.parent
        obs2 = p1.model.n_points + p2.observed
        for row in parent.model.probs:
            assert row[parent.observed] == row[obs2], i
    _ok("criterion 5: 100/100 EFM chains verified (2 C-steps, equal points)")


def test_criterion_6_durbin_breakage(l_related_pairs):
    checked = 0
    for i, (p1, p2) in enumerate(l_related_pairs):
        if pairs_isomorphic(p1, p2) is not None:
            continue
        checked += 1
        mixture, _, _ = birnbaumize(p1, p2)
        indicator = component_indicator(p1, p2)
        assert not is_function_of(indicator, likelihood_partition(mixture)), i
        attempt = birnbaum_chain_durbin(p1, p2)
        assert not attempt.succeeded, i
    assert checked > 0
    _ok(
        f"criterion 6: Durbin-restricted chain fails for all {checked} "
        "non-isomorphic pairs"
    )


def test_criterion_7_ancillary_structure_fixture(fd):
    from lp_lab.ancillarity import laminal_ancillary, maximal_ancillaries

    a1 = Partition.of(4, [[0, 1], [2, 3]])
    a2 = Partition.of(4, [[0, 3], [1, 2]])
    assert set(enumerate_ancillaries(fd)) == {Partition.trivial(4), a1, a2}
    assert set(maximal_ancillaries(fd)) == {a1, a2}
    assert laminal_ancillary(fd) == Partition.trivial(4)
    _ok("criterion 7: FIX-D ancillary catalog exact")


def test_criterion_8_evidence_conservation_and_coherence():
    rng = random.Random(SEED + 1)
    for _ in range(1000):
        pair = random_pair(rng, rng.randint(2, 3), rng.randint(2, 4), 12)
        prior = random_prior(rng, pair.model.theta_labels)
        rb = relative_belief(pair, prior)
        post = posterior(pair, prior)
        m = prior_predictive(pair.model, prior)[pair.observed]
        assert sum(w * r for w, r in zip(prior.weights, rb)) == 1
        assert rb == tuple(f / m for f in likelihood_vector(pair))
        for i, label in enumerate(prior.theta_labels):
            bf = bayes_factor(pair, prior, [label])
            s_rb = rb[i] - 1
            s_post = post[i] - prior.weights[i]
            s_bf = 1 if bf is None else bf - 1
            assert (s_rb > 0) == (s_post > 0) == (s_bf > 0)
            assert (s_rb == 0) == (s_post == 0) == (s_bf == 0)
            direction = evidence_direction(pair, prior, [label])
            assert (direction is Direction.FOR) == (s_post > 0)
    _ok("criterion 8: 1000/1000 conservation + three-way sign coherence")


def test_criterion_9_likelihood_principle_invariance(l_related_pairs):
    rng = random.Random(SEED + 2)
    for i, (p1, p2) in enumerate(l_related_pairs):
        prior = random_prior(rng, p1.model.theta_labels)
        assert posterior(p1, prior) == posterior(p2, prior), i
        assert relative_belief(p1, prior) == relative_belief(p2, prior), i
        assert rb_estimate(p1, prior) == rb_estimate(p2, prior), i
        for label in prior.theta_labels:
            assert rb_strength(p1, prior, label) == rb_strength(p2, prior, label)
            assert bayes_factor(p1, prior, [label]) == bayes_factor(
                p2, prior, [label]
            )
    _ok("criterion 9: 100/100 pairs give identical inferences")


def test_criterion_10_evidence_fixture(fa, fb, fe):
    p = pair_at(fb, "y1")
    assert posterior(p, fe) == (F(2, 3), F(1, 3))
    assert relative_belief(p, fe) == (F(4, 3), F(2, 3))
    assert bayes_factor(p, fe, ["t1"]) == 2
    assert evidence_direction(p, fe, ["t1"]) is Direction.FOR
    assert rb_strength(p, fe, "t2") == F(1, 3)
    assert check_prior_conflict(p, fe) == F(3, 8)
    assert check_model_mss(pair_at(fa, "x1")) == F(1, 3)
    _ok("criterion 10: evidence fixture values exact")


def test_criterion_11_cli_determinism_and_round_trip(
    tmp_path, fa, fb, fc, fd, fe, capsys
):
    from lp_lab.cli import run
    from lp_lab.serialization import (
        load_model,
        load_pair,
        load_prior,
        save_model,
        save_pair,
        save_prior,
    )

    for name, model in [("a", fa), ("b", fb), ("c", fc), ("d", fd)]:
        path = tmp_path / f"{name}.model"
        save_model(model, path)
        assert load_model(path) == model
    pair = pair_at(fb, "y2")
    save_pair(pair, tmp_path / "b2.pair")
    assert load_pair(tmp_path / "b2.pair") == pair
    save_prior(fe, tmp_path / "e.prior")
    assert load_prior(tmp_path / "e.prior") == fe

    save_pair(pair_at(fc, "z1"), tmp_path / "c1.pair")
    args = [
        "--machine",
        "chain",
        "--kind",
        "SC",
        str(tmp_path / "b2.pair"),
        str(tmp_path / "c1.pair"),
    ]
    outputs = []
    for _ in range(2):
        assert run(args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    json.loads(outputs[0])  # well-formed machine report
    _ok("criterion 11: bit-exact round trips and byte-identical reports")
