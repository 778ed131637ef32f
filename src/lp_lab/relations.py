"""The relation algebra on model-data pairs: one-step oracles for S, C, L
and variants, finite-universe equivalence closure with witness chains, and
the Birnbaum / EFM mixture constructions."""

from __future__ import annotations

import enum
import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .ancillarity import CWitness, _c_step, c_related
from .certify import verify_c_witness, verify_l_witness, verify_s_witness
from .errors import NotLRelated, ParameterSpaceMismatch
from .model import (
    FiniteModel,
    ModelDataPair,
    canonical_form,
    check_same_theta,
)
from .partition import Partition, components, is_function_of
from .sufficiency import (
    SWitness,
    likelihood_partition,
    reduce_to_mss,
    s_related,
)


class RelationKind(enum.Enum):
    S = "S"
    C = "C"
    L = "L"
    S_OR_C = "SC"
    DURBIN_C = "DURBIN"


StepWitness = Union[SWitness, CWitness, Fraction]


def l_related(
    p1: ModelDataPair, p2: ModelDataPair
) -> Optional[Fraction]:
    """Positive c with likelihood(p1) = c * likelihood(p2), if any.

    Reads the ``(g, k)`` of each observed point from
    ``FiniteModel.likelihoods``: L holds iff the two k are equal. With D a
    model's common denominator a likelihood is g * k / D, so
    c = (g1 * D2) / (g2 * D1); all-zero likelihoods are related by c = 1.
    """
    check_same_theta(p1.model.theta_labels, p2.model.theta_labels)
    g1, k1 = p1.model.likelihoods[p1.observed]
    g2, k2 = p2.model.likelihoods[p2.observed]
    if k1 != k2:
        return None
    if not g1:
        return Fraction(1)
    return Fraction(g1 * p2.model.den, g2 * p1.model.den)


def l_class_key(pair: ModelDataPair) -> tuple[int, ...]:
    """Invariant of L: on one parameter space, two pairs have equal keys
    iff l_related holds between them. It is the primitive integer vector
    k of the observed point's likelihood."""
    return pair.model.likelihoods[pair.observed][1]


def l_class_pairs(pairs: Sequence[ModelDataPair]) -> Iterator[tuple[int, int]]:
    """Every (i, j) with i < j whose pairs share an l_class_key, in the
    order of i, then j.

    Every relation kind implies L, so only these can be related in one step.
    """
    classes = Partition.from_labels([l_class_key(p) for p in pairs])
    for i, b in enumerate(classes.labels):
        block = classes.blocks[b]
        yield from ((i, j) for j in block[block.index(i) + 1 :])


def related(
    p1: ModelDataPair, p2: ModelDataPair, kind: RelationKind
) -> Optional[StepWitness]:
    """Dispatch to the one-step oracle for the given relation kind."""
    if kind is RelationKind.S:
        return s_related(p1, p2)
    if kind is RelationKind.C:
        return c_related(p1, p2)
    if kind is RelationKind.DURBIN_C:
        return c_related(p1, p2, durbin=True)
    if kind is RelationKind.L:
        return l_related(p1, p2)
    witness = s_related(p1, p2)
    if witness is not None:
        return witness
    return c_related(p1, p2)


@dataclass(frozen=True)
class ChainStep:
    kind: RelationKind
    witness: StepWitness
    # False when the recorded witness was computed for the reversed node
    # order (relations are symmetric, certificates are oriented)
    forward: bool = True


@dataclass(frozen=True)
class WitnessChain:
    """An explicit chain of one-step relations certifying closure membership.

    ``steps[i]`` relates ``nodes[i]`` and ``nodes[i+1]``; each step can be
    re-checked independently with :func:`verify_chain`.
    """

    nodes: tuple[ModelDataPair, ...]
    steps: tuple[ChainStep, ...]


# the step kinds a C or an S certificate can witness
_C_KINDS = (RelationKind.C, RelationKind.DURBIN_C, RelationKind.S_OR_C)
_S_KINDS = (RelationKind.S, RelationKind.S_OR_C)


def verify_chain(chain: WitnessChain) -> bool:
    """Check every step between consecutive nodes by its certificate alone.

    Each step goes to :mod:`lp_lab.certify`, which re-checks it in integers
    and calls no oracle. A witness must fit its step's kind: a CWitness for
    C and Durbin-C, an SWitness for S, either for S-or-C, and a Fraction
    for L.
    """
    if len(chain.nodes) != len(chain.steps) + 1:
        return False
    for a, b, step in zip(chain.nodes, chain.nodes[1:], chain.steps):
        first, second = (a, b) if step.forward else (b, a)
        if not _step_holds(first, second, step.kind, step.witness):
            return False
    return True


def _step_holds(
    first: ModelDataPair,
    second: ModelDataPair,
    kind: RelationKind,
    witness: StepWitness,
) -> bool:
    if isinstance(witness, CWitness) and kind in _C_KINDS:
        durbin = kind is RelationKind.DURBIN_C
        return verify_c_witness(first, second, witness, durbin)
    if isinstance(witness, SWitness) and kind in _S_KINDS:
        return verify_s_witness(first, second, witness)
    if isinstance(witness, Fraction) and kind is RelationKind.L:
        return verify_l_witness(first, second, witness)
    return False


# ---------------------------------------------------------------------------
# Mixture constructions


def _mixture_model(
    p1: ModelDataPair,
    p2: ModelDataPair,
    w1: Fraction,
    w2: Fraction,
) -> FiniteModel:
    m1, m2 = p1.model, p2.model
    check_same_theta(m1.theta_labels, m2.theta_labels)
    labels = tuple(f"1:{s}" for s in m1.sample_labels) + tuple(
        f"2:{s}" for s in m2.sample_labels
    )
    # w * v / den over the common denominator lcm(w.den * den)
    d1, d2 = w1.denominator * m1.den, w2.denominator * m2.den
    den = math.lcm(d1, d2)
    k1, k2 = w1.numerator * (den // d1), w2.numerator * (den // d2)
    rows = tuple(
        tuple(k1 * v for v in r1) + tuple(k2 * v for v in r2)
        for r1, r2 in zip(m1.rows, m2.rows)
    )
    return FiniteModel(m1.theta_labels, labels, den, rows)


def component_indicator(p1: ModelDataPair, p2: ModelDataPair) -> Partition:
    """The two-block partition of a mixture space by component of origin."""
    n1, n2 = p1.model.n_points, p2.model.n_points
    return Partition((0,) * n1 + (1,) * n2)


def birnbaumize(
    p1: ModelDataPair, p2: ModelDataPair
) -> tuple[FiniteModel, ModelDataPair, ModelDataPair]:
    """Equal-weight mixture on the disjoint union, plus the embedded pairs.

    The component indicator is ancillary in the mixture (each component
    carries mass 1/2 under every parameter).
    """
    half = Fraction(1, 2)
    mixture = _mixture_model(p1, p2, half, half)
    e1 = ModelDataPair(mixture, p1.observed)
    e2 = ModelDataPair(mixture, p1.model.n_points + p2.observed)
    return mixture, e1, e2


def birnbaum_chain(p1: ModelDataPair, p2: ModelDataPair) -> WitnessChain:
    """The three-step chain p1 -C- (M*,(1,x1)) -S- (M*,(2,x2)) -C- p2.

    Requires proportional likelihoods. Every step comes from what the
    construction holds, with no oracle call. Both C steps carry Birnbaum's
    own ancillary, the component indicator: it conditions (M*,(1,x1)) to
    p1 by the identity and (M*,(2,x2)) to p2 by x -> x - |X1|, by
    ``_c_step``. The S step reduces the one mixture at both observations.
    They fall in one likelihood class of M*, so the two reductions are one
    ReductionResult, and the identity carries it onto itself. Nothing here
    re-checks the chain; callers do, with :func:`verify_chain`.
    """
    if l_related(p1, p2) is None:
        raise NotLRelated("inputs do not have proportional likelihoods")
    _, e1, e2 = birnbaumize(p1, p2)
    indicator = component_indicator(p1, p2)
    n1 = p1.model.n_points
    r1, r2 = reduce_to_mss(e1), reduce_to_mss(e2)
    identity = tuple(range(r1.reduced.model.n_points))
    return WitnessChain(
        (p1, e1, e2, p2),
        (
            ChainStep(
                RelationKind.C,
                _c_step(e1, indicator, "second", lambda x: x),
            ),
            ChainStep(RelationKind.S, SWitness(r1, r2, identity)),
            ChainStep(
                RelationKind.C,
                _c_step(e2, indicator, "first", lambda x: x - n1),
            ),
        ),
    )


@dataclass(frozen=True)
class DurbinChainAttempt:
    """Outcome of rebuilding the Birnbaum chain under the Durbin restriction."""

    indicator_is_function_of_mss: bool
    first_step: Optional[CWitness]
    last_step: Optional[CWitness]

    @property
    def succeeded(self) -> bool:
        return self.first_step is not None and self.last_step is not None


def birnbaum_chain_durbin(
    p1: ModelDataPair, p2: ModelDataPair
) -> DurbinChainAttempt:
    """Attempt the Birnbaum chain with only MSS-measurable ancillaries.

    For every L-related pair, isomorphic ones and a pair with itself
    included, the mixture's minimal sufficient partition merges the two
    embedded observations into one block, so the component indicator is
    inadmissible. That is one case of a lemma the tests check: every C
    step of ``birnbaum_chain`` and ``efm_parent`` conditions on an
    ancillary that cuts a likelihood class of its parent. Neither outer C
    step holds either. The step to p1 can only condition the mixture,
    which has more points than p1. A Durbin block is a union of the
    mixture's likelihood classes, so it holds both embedded observations,
    and its conditional has more columns proportional to the observed one
    than p1 has. The same holds at p2.
    """
    if l_related(p1, p2) is None:
        raise NotLRelated("inputs do not have proportional likelihoods")
    mixture, e1, e2 = birnbaumize(p1, p2)
    indicator = component_indicator(p1, p2)
    admissible = is_function_of(indicator, likelihood_partition(mixture))
    first = c_related(p1, e1, durbin=True)
    last = c_related(e2, p2, durbin=True)
    return DurbinChainAttempt(admissible, first, last)


@dataclass(frozen=True)
class EfmResult:
    """Unequal-weight mixture relating two L-related pairs by C steps alone.

    ``parent`` is the mixture observed at the embedded first observation.
    The steps of ``chain`` carry the construction's own ancillaries:
    ``indicator``, the component indicator, conditions the parent to p1,
    and ``swapped_indicator``, the indicator pushed through the swap of the
    two equal-probability observed points, conditions it to p2.
    """

    parent: ModelDataPair
    chain: WitnessChain

    @property
    def indicator(self) -> Partition:
        return self.chain.steps[0].witness.ancillary

    @property
    def swapped_indicator(self) -> Partition:
        return self.chain.steps[1].witness.ancillary


def efm_parent(p1: ModelDataPair, p2: ModelDataPair) -> EfmResult:
    """Mixture with weights 1/(1+c), c/(1+c) equalizing the observed points.

    With likelihood(p1) = c * likelihood(p2) the two embedded observed
    points get exactly equal probability under every parameter, so swapping
    them is measure-preserving and carries the component indicator to a
    second ancillary whose conditional reproduces p2. Returns the two-step
    C-only chain p1 - parent - p2: the indicator's step maps the parent's
    block to p1 by the identity, and the swapped indicator's maps it to p2
    by x -> x - |X1|, its observed point to p2's, both by ``_c_step`` with
    no oracle call. Callers check the chain with :func:`verify_chain`.
    """
    c = l_related(p1, p2)
    if c is None:
        raise NotLRelated("inputs do not have proportional likelihoods")
    w1 = Fraction(1, 1 + c)
    w2 = c / (1 + c)
    mixture = _mixture_model(p1, p2, w1, w2)
    n1 = p1.model.n_points
    i_obs1 = p1.observed
    i_obs2 = n1 + p2.observed
    columns = mixture.scaled_columns
    assert columns[i_obs1] == columns[i_obs2]
    parent = ModelDataPair(mixture, i_obs1)
    indicator = component_indicator(p1, p2)
    swap = {i_obs1: i_obs2, i_obs2: i_obs1}
    swapped = Partition.from_labels(
        [indicator.labels[swap.get(x, x)] for x in range(mixture.n_points)]
    )
    to_p1 = _c_step(parent, indicator, "second", lambda x: x)
    to_p2 = _c_step(
        parent,
        swapped,
        "first",
        lambda x: p2.observed if x == i_obs1 else x - n1,
    )
    chain = WitnessChain(
        (p1, parent, p2),
        (ChainStep(RelationKind.C, to_p1), ChainStep(RelationKind.C, to_p2)),
    )
    return EfmResult(parent, chain)


# ---------------------------------------------------------------------------
# Finite universes, closure, relation-law audit


@dataclass(frozen=True)
class Universe:
    """A finite set of canonical, pairwise non-isomorphic model-data pairs."""

    members: tuple[ModelDataPair, ...]

    @staticmethod
    def of(pairs: Sequence[ModelDataPair]) -> "Universe":
        canon = []
        seen = set()
        theta = None
        for p in pairs:
            if theta is None:
                theta = p.model.theta_labels
            elif p.model.theta_labels != theta:
                raise ParameterSpaceMismatch(
                    "universe members must share one parameter space"
                )
            c = canonical_form(p)
            if c not in seen:
                seen.add(c)
                canon.append(c)
        return Universe(tuple(canon))


def augment(pairs: Sequence[ModelDataPair], how: str) -> list[ModelDataPair]:
    """``pairs``, then the mixture pairs that join each two L-related members
    i < j in a chain: Birnbaum's two embedded pairs (``how="birnbaum"``) or
    the EFM parent (``how="efm"``), in the order of i, then j."""
    if how not in ("birnbaum", "efm"):
        raise ValueError(f"unknown augmentation {how!r}")
    members = list(pairs)
    for i, j in l_class_pairs(pairs):
        if how == "birnbaum":
            _, e1, e2 = birnbaumize(pairs[i], pairs[j])
            members += (e1, e2)
        else:
            members.append(efm_parent(pairs[i], pairs[j]).parent)
    return members


@dataclass(frozen=True)
class ClosureEdge:
    i: int
    j: int
    kind: RelationKind
    witness: StepWitness


@dataclass
class ClosureResult:
    """Connected components of the one-step relation graph on a universe."""

    universe: Universe
    kind: RelationKind
    classes: tuple[tuple[int, ...], ...]
    edges: tuple[ClosureEdge, ...]

    @functools.cached_property
    def _adjacency(self) -> dict[int, list[ClosureEdge]]:
        """The edges at each member, built once for every chain asked of
        this result."""
        adjacency: dict[int, list[ClosureEdge]] = {}
        for e in self.edges:
            adjacency.setdefault(e.i, []).append(e)
            adjacency.setdefault(e.j, []).append(e)
        return adjacency

    def chain(self, i: int, j: int) -> Optional[WitnessChain]:
        """Shortest witness chain between two members, if same class."""
        if i == j:
            members = self.universe.members
            return WitnessChain((members[i],), ())
        adjacency = self._adjacency
        prev: dict[int, tuple[int, ClosureEdge]] = {}
        queue = deque([i])
        seen = {i}
        while queue:
            u = queue.popleft()
            if u == j:
                break
            for e in adjacency.get(u, []):
                v = e.j if e.i == u else e.i
                if v not in seen:
                    seen.add(v)
                    prev[v] = (u, e)
                    queue.append(v)
        if j not in prev:
            return None
        path = [j]
        steps: list[ChainStep] = []
        node = j
        while node != i:
            node, edge = prev[node]
            path.append(node)
            steps.append(ChainStep(edge.kind, edge.witness, edge.i == node))
        path.reverse()
        steps.reverse()
        members = self.universe.members
        return WitnessChain(tuple(members[k] for k in path), tuple(steps))


def closure(universe: Universe, kind: RelationKind) -> ClosureResult:
    """Equivalence classes of the chain-closure restricted to the universe.

    Chains never leave the universe; enlarging it can only merge classes.
    The oracle runs only on pairs i < j of one L class, in the order of i
    then j; no other pair can hold a one-step edge.
    """
    members = universe.members
    edges = []
    for i, j in l_class_pairs(members):
        witness = related(members[i], members[j], kind)
        if witness is None:
            continue
        step_kind = kind
        if kind is RelationKind.S_OR_C:
            is_s = isinstance(witness, SWitness)
            step_kind = RelationKind.S if is_s else RelationKind.C
        edges.append(ClosureEdge(i, j, step_kind, witness))
    classes = components(len(members), [(e.i, e.j) for e in edges]).blocks
    return ClosureResult(universe, kind, classes, tuple(edges))


@dataclass(frozen=True)
class LawReport:
    holds: bool
    counterexamples: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RelationPropertiesReport:
    kind: RelationKind
    size: int
    reflexive: LawReport
    symmetric: LawReport
    transitive: LawReport

    @property
    def is_equivalence(self) -> bool:
        return (
            self.reflexive.holds
            and self.symmetric.holds
            and self.transitive.holds
        )


# failures relation_properties_report lists for each law
MAX_COUNTEREXAMPLES = 5


def relation_properties_report(
    universe: Universe, kind: RelationKind
) -> RelationPropertiesReport:
    """Audit reflexivity, symmetry and transitivity of the one-step relation.

    Every ordered pair within one L class is decided by the actual oracle;
    pairs across classes are related under no kind. Failures are reported
    with explicit index tuples into the universe.
    """
    members = universe.members
    n = len(members)
    asked = [(i, i) for i in range(n)]
    for i, j in l_class_pairs(members):
        asked += ((i, j), (j, i))
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for i, j in asked:
        if related(members[i], members[j], kind) is not None:
            neighbors[i].add(j)
    refl = [(i,) for i in range(n) if i not in neighbors[i]]
    sym = [
        (i, j)
        for i in range(n)
        for j in neighbors[i]
        if i not in neighbors[j]
    ]
    failures = (
        (i, j, k)
        for i in range(n)
        for j in neighbors[i]
        for k in sorted(neighbors[j] - neighbors[i])
    )
    # one failure beyond the cap decides the law even when none is listed
    trans = list(itertools.islice(failures, MAX_COUNTEREXAMPLES + 1))
    return RelationPropertiesReport(
        kind,
        n,
        LawReport(not refl, tuple(refl[:MAX_COUNTEREXAMPLES])),
        LawReport(not sym, tuple(sym[:MAX_COUNTEREXAMPLES])),
        LawReport(not trans, tuple(trans[:MAX_COUNTEREXAMPLES])),
    )
