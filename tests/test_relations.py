import dataclasses
import random
from fractions import Fraction

import pytest

from lp_lab import model, relations, sufficiency
from lp_lab.ancillarity import (
    CWitness,
    c_related,
    condition_on_block,
    is_ancillary,
)
from lp_lab.errors import NotLRelated, ParameterSpaceMismatch
from lp_lab.model import (
    FiniteModel,
    ModelDataPair,
    canonical_form,
    pairs_isomorphic,
    validate_model,
)
from lp_lab.partition import Partition, is_function_of
from lp_lab.relations import (
    ChainStep,
    DurbinChainAttempt,
    RelationKind,
    Universe,
    WitnessChain,
    augment,
    birnbaum_chain,
    birnbaum_chain_durbin,
    birnbaumize,
    closure,
    component_indicator,
    efm_parent,
    l_class_pairs,
    l_related,
    relation_properties_report,
    verify_chain,
)
from lp_lab.search import enumerate_pairs
from lp_lab.sufficiency import likelihood_partition, reduce_to_mss, s_related
from model_reference import column, columns
from random_models import random_l_related_pair, random_pair

F = Fraction


def test_l_related_fixtures(fb, fc, at):
    assert l_related(at(fb, "y2"), at(fc, "z1")) == F(3, 2)
    p = at(fb, "y1")
    assert l_related(p, p) == 1
    assert l_related(at(fb, "y1"), at(fc, "z1")) is None


def test_l_related_at_unreachable_points():
    # validated models reach every point; a directly built one need not,
    # and its all-zero likelihood is L-related to itself by c = 1
    m = FiniteModel(("t1", "t2"), ("a", "b"), 1, ((1, 0), (1, 0)))
    assert l_related(ModelDataPair(m, 1), ModelDataPair(m, 1)) == 1
    assert l_related(ModelDataPair(m, 0), ModelDataPair(m, 1)) is None


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
    assert column(mixture, e1.observed) == column(mixture, e2.observed)


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
    assert column(mixture, e1.observed) == (F(1, 4), F(3, 8))
    assert column(mixture, e2.observed) == (F(1, 6), F(1, 4))
    # so its two reductions are one object
    witness = chain.steps[1].witness
    assert witness.left is witness.right


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


def test_verify_chain_matches_witness_type_to_step_kind(fb, fc, at):
    # every step holds a true certificate of its nodes, under each kind
    p1, p2 = at(fb, "y2"), at(fc, "z1")
    chain = birnbaum_chain(p1, p2)
    l_chain = WitnessChain((p1, p2), (ChainStep(RelationKind.L, l_related(p1, p2)),))
    c_kinds = (RelationKind.C, RelationKind.S_OR_C)  # not Durbin-C here
    s_kinds = (RelationKind.S, RelationKind.S_OR_C)
    for kind in RelationKind:
        assert verify_chain(_with_step(chain, 0, kind=kind)) is (kind in c_kinds)
        assert verify_chain(_with_step(chain, 1, kind=kind)) is (kind in s_kinds)
        assert verify_chain(_with_step(l_chain, 0, kind=kind)) is (kind is RelationKind.L)


def test_verify_chain_checks_l_steps_by_their_constant(fb, fc, at):
    p1, p2 = at(fb, "y2"), at(fc, "z1")
    chain = WitnessChain((p1, p2), (ChainStep(RelationKind.L, l_related(p1, p2)),))
    assert verify_chain(chain)
    assert not verify_chain(_with_step(chain, 0, forward=False))
    assert not verify_chain(_with_step(chain, 0, witness=F(2, 3)))
    assert not verify_chain(_with_step(chain, 0, witness=s_related(p1, p1)))
    universe = Universe.of([p1, p2, at(fb, "y1")])
    result = closure(universe, RelationKind.L)
    ((i, j),) = [c for c in result.classes if len(c) == 2]
    # the edge's constant is for (i, j), so the chain from j reads it backwards
    assert verify_chain(result.chain(j, i))


def test_birnbaum_chain_calls_no_s_oracle(fb, fc, at, monkeypatch):
    # the S step is built from the mixture's one quotient, not searched for
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for module, name in (
        (relations, "s_related"),
        (sufficiency, "s_related"),
        (sufficiency, "pairs_isomorphic"),
        (model, "pairs_isomorphic"),
    ):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    p1, p2 = at(fb, "y2"), at(fc, "z1")
    chain = birnbaum_chain(p1, p2)
    assert calls == []
    _, e1, e2, _ = chain.nodes
    assert chain.steps[1].witness == sufficiency.s_related(e1, e2)
    assert calls == ["s_related", "pairs_isomorphic"]
    assert verify_chain(chain)


def test_birnbaum_chain_requires_l(fb, fc, at):
    with pytest.raises(NotLRelated):
        birnbaum_chain(at(fb, "y1"), at(fc, "z1"))


def _wrong_indicator(p1, p2):
    """The component indicator with the last point of p1's space and the
    first of p2's traded between the blocks: two blocks of the right sizes."""
    n1, n2 = p1.model.n_points, p2.model.n_points
    return Partition((0,) * (n1 - 1) + (1, 0) + (1,) * (n2 - 1))


def test_mixture_chains_with_a_wrong_indicator_fail_verification(
    fb, fc, at, monkeypatch
):
    # the constructions take their C steps from the indicator unchecked,
    # so a wrong one reaches the chain and verify_chain must refuse it
    p1, p2 = at(fb, "y2"), at(fc, "z1")
    assert verify_chain(birnbaum_chain(p1, p2))
    assert verify_chain(efm_parent(p1, p2).chain)
    monkeypatch.setattr(relations, "component_indicator", _wrong_indicator)
    birnbaum = birnbaum_chain(p1, p2)
    efm = efm_parent(p1, p2)
    assert birnbaum.steps[0].witness.ancillary == _wrong_indicator(p1, p2)
    assert efm.indicator == _wrong_indicator(p1, p2)
    assert not verify_chain(birnbaum)
    assert not verify_chain(efm.chain)


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
    assert set(columns(cond.model)) == {
        (F(1, 3), F(1, 2)),
        (F(2, 3), F(1, 2)),
    }


def _assert_own_witnesses(p1, p2):
    """The chains carry the constructions' own ancillaries, with the
    bijections that embed each component, and verify; returns whether
    ``c_related``'s first column match at Birnbaum's last step and at EFM's
    second step differs from them."""
    n1, n2 = p1.model.n_points, p2.model.n_points
    indicator = component_indicator(p1, p2)
    _, e1, e2 = birnbaumize(p1, p2)
    chain = birnbaum_chain(p1, p2)
    assert chain.nodes == (p1, e1, e2, p2)
    assert chain.steps[1].witness == s_related(e1, e2)
    first, last = chain.steps[0].witness, chain.steps[2].witness
    assert first == CWitness(
        "second", indicator, condition_on_block(e1, indicator), tuple(range(n1))
    )
    assert last == CWitness(
        "first", indicator, condition_on_block(e2, indicator), tuple(range(n2))
    )
    assert verify_chain(chain)

    efm = efm_parent(p1, p2)
    parent = efm.parent
    obs1, obs2 = parent.observed, n1 + p2.observed
    swap = {obs1: obs2, obs2: obs1}
    swapped = Partition.from_labels(
        [indicator.labels[swap.get(x, x)] for x in range(n1 + n2)]
    )
    assert efm.indicator == indicator and efm.swapped_indicator == swapped
    to_p1, to_p2 = (step.witness for step in efm.chain.steps)
    assert to_p1 == CWitness(
        "second", indicator, condition_on_block(parent, indicator), tuple(range(n1))
    )
    block = swapped.blocks[swapped.labels[obs1]]
    assert to_p2 == CWitness(
        "first",
        swapped,
        condition_on_block(parent, swapped),
        tuple(p2.observed if x == obs1 else x - n1 for x in block),
    )
    assert efm.chain.nodes == (p1, parent, p2)
    assert verify_chain(efm.chain)
    return (
        c_related(e2, p2).ancillary != indicator,
        c_related(parent, p2).ancillary != swapped,
    )


def test_constructions_own_ancillaries_certify_on_the_grid():
    # on 58 and 65 of the 299 pairs c_related's first column match is
    # another ancillary than the construction's own
    grid = list(enumerate_pairs(2, 3, 3))
    related = [
        (p1, p2)
        for i, p1 in enumerate(grid)
        for p2 in grid[i + 1:]
        if l_related(p1, p2) is not None
    ]
    assert len(related) == 299
    other = [_assert_own_witnesses(p1, p2) for p1, p2 in related]
    assert [sum(column) for column in zip(*other)] == [58, 65]


def test_constructions_own_ancillaries_certify_on_random_pairs():
    rng = random.Random(11)
    pairs = [
        random_l_related_pair(rng, rng.randint(2, 3), 4) for _ in range(60)
    ]
    other = [_assert_own_witnesses(p1, p2) for p1, p2 in pairs]
    assert all(any(column) for column in zip(*other))


def test_durbin_breakage(fb, fc, at):
    attempt = birnbaum_chain_durbin(at(fb, "y2"), at(fc, "z1"))
    assert not attempt.indicator_is_function_of_mss
    assert not attempt.succeeded


def test_durbin_attempt_succeeds_only_with_both_steps(fb, at):
    p = at(fb, "y1")
    step = c_related(p, p)
    assert step is not None
    assert DurbinChainAttempt(True, step, step).succeeded
    assert not DurbinChainAttempt(True, step, None).succeeded
    assert not DurbinChainAttempt(True, None, step).succeeded
    assert not DurbinChainAttempt(True, None, None).succeeded


def test_durbin_steps_fail_on_every_l_related_grid_pair():
    # each pair with itself included: a Durbin block of the mixture holds
    # both embedded observations, so no outer step can reach p1 or p2
    grid = list(enumerate_pairs(2, 3, 3))
    attempts = [
        birnbaum_chain_durbin(a, b)
        for i, a in enumerate(grid)
        for b in grid[i:]
        if l_related(a, b) is not None
    ]
    assert len(attempts) == 355
    for attempt in attempts:
        assert not attempt.indicator_is_function_of_mss
        assert attempt.first_step is None and attempt.last_step is None


def _l_related_grid_and_random_pairs() -> list[tuple[ModelDataPair, ModelDataPair]]:
    grid = Universe.of(enumerate_pairs(2, 3, 3)).members
    pairs = [(grid[i], grid[j]) for i, j in l_class_pairs(grid)]
    assert len(pairs) == 299
    rng = random.Random(11)
    return pairs + [random_l_related_pair(rng, max_space=4) for _ in range(60)]


def test_every_mixture_c_step_cuts_a_likelihood_class_of_its_parent():
    """Lemma: each C step of ``birnbaum_chain`` and of ``efm_parent``
    conditions on an ancillary that is not a function of its parent's
    minimal sufficient partition. The two embedded observations have
    proportional columns, so one likelihood class holds both, and the
    construction's ancillary separates them. That is why Durbin's
    restriction blocks both constructions."""
    steps = 0
    for p1, p2 in _l_related_grid_and_random_pairs():
        for chain in (birnbaum_chain(p1, p2), efm_parent(p1, p2).chain):
            for k, step in enumerate(chain.steps):
                if step.kind is not RelationKind.C:
                    continue
                parent = chain.nodes[k + (step.witness.parent == "second")]
                mss = likelihood_partition(parent.model)
                assert not is_function_of(step.witness.ancillary, mss)
                steps += 1
    assert steps == 4 * (299 + 60)


def test_birnbaum_mixture_reduction_depends_only_on_the_reductions():
    """Lemma: the Birnbaum mixture of two L-related pairs and the mixture of
    their MSS reductions have one canonical reduction at the first embedded
    observation. Summing within each component's likelihood classes first
    and merging proportional classes across components afterwards gives
    the same quotient."""
    for p1, p2 in _l_related_grid_and_random_pairs():
        r1, r2 = reduce_to_mss(p1).reduced, reduce_to_mss(p2).reduced
        whole = reduce_to_mss(birnbaumize(p1, p2)[1]).reduced
        reduced = reduce_to_mss(birnbaumize(r1, r2)[1]).reduced
        assert canonical_form(whole) == canonical_form(reduced)


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
    assert augment([p1, p2], "birnbaum") == [p1, p2, e1, e2]
    universe = Universe.of([p1, p2, e1, e2])
    result = closure(universe, RelationKind.S_OR_C)
    assert len(result.classes) == 1
    chain = result.chain(0, 1)
    assert chain is not None
    assert verify_chain(chain)


def test_closure_with_efm_augmentation(fb, fc, at):
    p1, p2 = at(fb, "y2"), at(fc, "z1")
    parent = efm_parent(p1, p2).parent
    assert augment([p1, p2], "efm") == [p1, p2, parent]
    universe = Universe.of([p1, p2, parent])
    result = closure(universe, RelationKind.C)
    assert len(result.classes) == 1
    with pytest.raises(ValueError):
        augment([p1, p2], "mixture")


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


def test_relation_properties_c_on_the_grid_is_not_an_equivalence():
    # reflexive and symmetric, but not transitive
    universe = Universe.of(list(enumerate_pairs(2, 3, 3)))
    report = relation_properties_report(universe, RelationKind.C)
    assert report.reflexive.holds and report.symmetric.holds
    assert not report.transitive.holds
    assert not report.is_equivalence
