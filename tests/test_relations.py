import dataclasses
import random
from fractions import Fraction

import pytest

from lp_lab.ancillarity import c_related, condition_on_block, is_ancillary
from lp_lab.errors import NotLRelated, ParameterSpaceMismatch
from lp_lab.generate import random_pair
from lp_lab.model import (
    ModelDataPair,
    pairs_isomorphic,
    validate_model,
)
from lp_lab.partition import Partition
from lp_lab.relations import (
    ChainStep,
    RelationKind,
    Universe,
    WitnessChain,
    birnbaum_chain,
    birnbaum_chain_durbin,
    birnbaumize,
    closure,
    component_indicator,
    efm_parent,
    l_related,
    relation_properties_report,
    verify_chain,
)
from lp_lab.sufficiency import s_related

F = Fraction


def test_l_related_fixtures(fb, fc, at):
    assert l_related(at(fb, "y2"), at(fc, "z1")) == F(3, 2)
    p = at(fb, "y1")
    assert l_related(p, p) == 1
    assert l_related(at(fb, "y1"), at(fc, "z1")) is None


def test_l_related_parameter_mismatch(fb):
    other = validate_model(["u1", "u2"], ["y1", "y2"], [["1/2", "1/2"], ["1/4", "3/4"]])
    with pytest.raises(ParameterSpaceMismatch):
        l_related(ModelDataPair(fb, 0), ModelDataPair(other, 0))


def test_birnbaumize_fixture(fb, fc, at):
    mixture, e1, e2 = birnbaumize(at(fb, "y2"), at(fc, "z1"))
    assert mixture.probs == (
        (F(1, 4), F(1, 4), F(1, 6), F(1, 3)),
        (F(1, 8), F(3, 8), F(1, 4), F(1, 4)),
    )
    indicator = component_indicator(at(fb, "y2"), at(fc, "z1"))
    assert is_ancillary(mixture, indicator)
    assert e1.observed_label == "1:y2"
    assert e2.observed_label == "2:z1"


def test_birnbaumize_self_gives_equal_likelihoods(fb, at):
    p = at(fb, "y1")
    mixture, e1, e2 = birnbaumize(p, p)
    assert mixture.column(e1.observed) == mixture.column(e2.observed)


def test_birnbaum_chain_fixture(fb, fc, at):
    chain = birnbaum_chain(at(fb, "y2"), at(fc, "z1"))
    assert len(chain.steps) == 3
    assert [s.kind for s in chain.steps] == [
        RelationKind.C,
        RelationKind.S,
        RelationKind.C,
    ]
    assert verify_chain(chain)
    # middle S step: the embedded observations share an MSS block
    e1, e2 = chain.nodes[1], chain.nodes[2]
    mixture = e1.model
    assert mixture.column(e1.observed) == (F(1, 4), F(3, 8))
    assert mixture.column(e2.observed) == (F(1, 6), F(1, 4))


def test_birnbaum_chain_degenerate(fb, at):
    chain = birnbaum_chain(at(fb, "y1"), at(fb, "y1"))
    assert verify_chain(chain)


def _with_step(chain, index, **changes):
    steps = list(chain.steps)
    steps[index] = dataclasses.replace(steps[index], **changes)
    return WitnessChain(chain.nodes, tuple(steps))


def _with_c_witness(chain, **changes):
    witness = dataclasses.replace(chain.steps[0].witness, **changes)
    return _with_step(chain, 0, witness=witness)


@pytest.mark.parametrize(
    "tamper",
    [
        # the recorded conditional is a relabeled copy of the true one
        lambda chain: _with_c_witness(chain, conditional=chain.nodes[0]),
        lambda chain: _with_c_witness(
            chain, bijection=chain.steps[0].witness.bijection[::-1]
        ),
        lambda chain: _with_step(chain, 0, forward=False),
        lambda chain: _with_step(chain, 0, witness=chain.steps[1].witness),
        lambda chain: WitnessChain(chain.nodes[:-1], chain.steps),
        lambda chain: WitnessChain(chain.nodes, chain.steps[:-1]),
    ],
    ids=[
        "conditional", "bijection", "forward", "witness-type",
        "short-nodes", "short-steps",
    ],
)
def test_verify_chain_rejects_tampered_chain(fb, fc, at, tamper):
    chain = birnbaum_chain(at(fb, "y2"), at(fc, "z1"))
    assert verify_chain(chain)
    assert not verify_chain(tamper(chain))


def test_verify_chain_rejects_durbin_step_between_non_durbin_pairs(fb, fc, at):
    chain = birnbaum_chain(at(fb, "y2"), at(fc, "z1"))
    p1, e1 = chain.nodes[:2]
    assert c_related(p1, e1, durbin=True) is None
    assert not verify_chain(_with_step(chain, 0, kind=RelationKind.DURBIN_C))
    p = at(fb, "y2")
    step = ChainStep(RelationKind.DURBIN_C, c_related(p, p, durbin=True))
    assert verify_chain(WitnessChain((p, p), (step,)))


def test_verify_chain_rejects_s_step_between_non_s_pairs(fb, fc, at):
    chain = birnbaum_chain(at(fb, "y2"), at(fc, "z1"))
    p1, _, e2, _ = chain.nodes
    assert s_related(p1, e2) is None
    forged = WitnessChain((p1, e2), (chain.steps[1],))
    assert not verify_chain(forged)


def test_birnbaum_chain_requires_l(fb, fc, at):
    with pytest.raises(NotLRelated):
        birnbaum_chain(at(fb, "y1"), at(fc, "z1"))


def test_efm_fixture(fb, fc, at):
    result = efm_parent(at(fb, "y2"), at(fc, "z1"))
    parent = result.parent
    assert parent.model.probs == (
        (F(1, 5), F(1, 5), F(1, 5), F(2, 5)),
        (F(1, 10), F(3, 10), F(3, 10), F(3, 10)),
    )
    for row in parent.model.probs:
        assert row[parent.observed] == row[2]  # f0(1,y2) == f0(2,z1)
    labels = parent.model.sample_labels
    swapped = result.swapped_indicator
    as_labels = {
        frozenset(labels[x] for x in block) for block in swapped.blocks
    }
    assert as_labels == {
        frozenset({"1:y1", "2:z1"}),
        frozenset({"1:y2", "2:z2"}),
    }
    from lp_lab.ancillarity import block_masses

    assert set(block_masses(parent.model, swapped)) == {F(2, 5), F(3, 5)}
    cond = condition_on_block(parent, swapped)
    phi = pairs_isomorphic(cond, at(fc, "z1"))
    assert phi is not None
    assert verify_chain(result.chain)
    assert [s.kind for s in result.chain.steps] == [
        RelationKind.C,
        RelationKind.C,
    ]


def test_efm_conditional_matches_spec_values(fb, fc, at):
    result = efm_parent(at(fb, "y2"), at(fc, "z1"))
    cond = condition_on_block(result.parent, result.swapped_indicator)
    assert set(cond.model.columns()) == {
        (F(1, 3), F(1, 2)),
        (F(2, 3), F(1, 2)),
    }


def test_durbin_breakage(fb, fc, at):
    attempt = birnbaum_chain_durbin(at(fb, "y2"), at(fc, "z1"))
    assert not attempt.indicator_is_function_of_mss
    assert not attempt.succeeded


def test_closure_single_member(fb, at):
    result = closure(Universe.of([at(fb, "y1")]), RelationKind.S_OR_C)
    assert result.classes == ((0,),)


def test_closure_without_mixture_members(fb, fc, at):
    universe = Universe.of([at(fb, "y2"), at(fc, "z1")])
    result = closure(universe, RelationKind.S_OR_C)
    assert len(result.classes) == 2
    assert result.chain(0, 1) is None


def test_closure_with_birnbaum_augmentation(fb, fc, at):
    p1, p2 = at(fb, "y2"), at(fc, "z1")
    _, e1, e2 = birnbaumize(p1, p2)
    universe = Universe.of([p1, p2, e1, e2])
    result = closure(universe, RelationKind.S_OR_C)
    assert len(result.classes) == 1
    chain = result.chain(0, 1)
    assert chain is not None
    assert verify_chain(chain)


def test_closure_with_efm_augmentation(fb, fc, at):
    p1, p2 = at(fb, "y2"), at(fc, "z1")
    parent = efm_parent(p1, p2).parent
    universe = Universe.of([p1, p2, parent])
    result = closure(universe, RelationKind.C)
    assert len(result.classes) == 1


def test_relation_properties_l_and_s_pass():
    rng = random.Random(23)
    universe = Universe.of(
        [random_pair(rng, 2, rng.randint(2, 3), 4) for _ in range(15)]
    )
    for kind in (RelationKind.L, RelationKind.S):
        report = relation_properties_report(universe, kind)
        assert report.is_equivalence, kind


def test_relation_properties_c_fails_on_counterexample_universe():
    from lp_lab.search import search_c_transitivity_counterexample

    found = search_c_transitivity_counterexample()
    assert found is not None
    universe = Universe.of([found.p1, found.p2, found.p3])
    report = relation_properties_report(universe, RelationKind.C)
    assert report.reflexive.holds
    assert report.symmetric.holds
    assert not report.transitive.holds
    assert report.transitive.counterexamples
