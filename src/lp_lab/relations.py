"""The relation algebra on model-data pairs: one-step oracles for S, C, L
and variants, finite-universe equivalence closure with witness chains, and
the Birnbaum / EFM mixture constructions."""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .ancillarity import CWitness, c_related, verify_c_witness
from .errors import NotLRelated, ParameterSpaceMismatch
from .model import (
    FiniteModel,
    ModelDataPair,
    canonical_form,
    check_same_theta,
    primitive,
)
from .partition import Partition, is_function_of
from .sufficiency import SWitness, likelihood_partition, s_related


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

    Decided by equality of l_class_key. With D the common denominator and g
    the gcd of the observed integer column, a likelihood is g * key / D, so
    c = (g1 * D2) / (g2 * D1); all-zero likelihoods are related by c = 1.
    """
    check_same_theta(p1.model.theta_labels, p2.model.theta_labels)
    if l_class_key(p1) != l_class_key(p2):
        return None
    g1 = math.gcd(*p1.model.scaled_columns[p1.observed])
    g2 = math.gcd(*p2.model.scaled_columns[p2.observed])
    if not g1:
        return Fraction(1)
    return Fraction(g1 * p2.model.den, g2 * p1.model.den)


def l_class_key(pair: ModelDataPair) -> tuple[int, ...]:
    """Invariant of L: on one parameter space, two pairs have equal keys
    iff l_related holds between them. It is the primitive integer vector
    of the likelihood column."""
    return primitive(pair.model.scaled_columns[pair.observed])


def l_class_peers(pairs: Sequence[ModelDataPair]) -> list[list[int]]:
    """For each pair, the ascending indices of the pairs with its l_class_key.

    Every relation kind implies L, so only peers can be related in one step.
    """
    keys = [l_class_key(p) for p in pairs]
    buckets: dict[tuple[int, ...], list[int]] = {}
    for i, key in enumerate(keys):
        buckets.setdefault(key, []).append(i)
    return [buckets[key] for key in keys]


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


def verify_chain(chain: WitnessChain) -> bool:
    """Check every step between consecutive nodes.

    A C or Durbin-C step is checked by its certificate alone, with
    :func:`verify_c_witness`; any other step re-runs its oracle on the two
    nodes.
    """
    if len(chain.nodes) != len(chain.steps) + 1:
        return False
    for a, b, step in zip(chain.nodes, chain.nodes[1:], chain.steps):
        durbin = step.kind is RelationKind.DURBIN_C
        if durbin or step.kind is RelationKind.C:
            first, second = (a, b) if step.forward else (b, a)
            if not (
                isinstance(step.witness, CWitness)
                and verify_c_witness(first, second, step.witness, durbin)
            ):
                return False
        elif related(a, b, step.kind) is None:
            return False
    return True


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
    return Partition.of(n1 + n2, [range(n1), range(n1, n1 + n2)])


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

    Requires proportional likelihoods; every step is verified by the
    corresponding one-step oracle before the chain is returned.
    """
    if l_related(p1, p2) is None:
        raise NotLRelated("inputs do not have proportional likelihoods")
    _, e1, e2 = birnbaumize(p1, p2)
    w1 = c_related(p1, e1)
    ws = s_related(e1, e2)
    w2 = c_related(e2, p2)
    if w1 is None or ws is None or w2 is None:
        raise NotLRelated("mixture chain failed oracle verification")
    return WitnessChain(
        (p1, e1, e2, p2),
        (
            ChainStep(RelationKind.C, w1),
            ChainStep(RelationKind.S, ws),
            ChainStep(RelationKind.C, w2),
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

    For non-isomorphic L-related pairs the mixture's minimal sufficient
    partition merges the two embedded observations into one block, so the
    component indicator is inadmissible and the outer C steps fail.
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

    ``parent`` is the mixture observed at the embedded first observation;
    conditioning it on ``indicator`` recovers p1 and conditioning on
    ``swapped_indicator`` (the indicator pushed through the swap of the two
    equal-probability observed points) recovers p2.
    """

    parent: ModelDataPair
    indicator: Partition
    swapped_indicator: Partition
    chain: WitnessChain


def efm_parent(p1: ModelDataPair, p2: ModelDataPair) -> EfmResult:
    """Mixture with weights 1/(1+c), c/(1+c) equalizing the observed points.

    With likelihood(p1) = c * likelihood(p2) the two embedded observed
    points get exactly equal probability under every parameter, so swapping
    them is measure-preserving and carries the component indicator to a
    second ancillary whose conditional reproduces p2. Returns the verified
    two-step C-only chain p1 - parent - p2.
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
    swapped = Partition.of(
        mixture.n_points,
        [
            [swap.get(x, x) for x in block]
            for block in indicator.blocks
        ],
    )
    step1 = c_related(p1, parent)
    step2 = c_related(parent, p2)
    if step1 is None or step2 is None:
        raise NotLRelated("EFM chain failed oracle verification")
    chain = WitnessChain(
        (p1, parent, p2),
        (ChainStep(RelationKind.C, step1), ChainStep(RelationKind.C, step2)),
    )
    return EfmResult(parent, indicator, swapped, chain)


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

    def chain(self, i: int, j: int) -> Optional[WitnessChain]:
        """Shortest witness chain between two members, if same class."""
        if i == j:
            members = self.universe.members
            return WitnessChain((members[i],), ())
        adjacency: dict[int, list[ClosureEdge]] = {}
        for e in self.edges:
            adjacency.setdefault(e.i, []).append(e)
            adjacency.setdefault(e.j, []).append(e)
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
    n = len(members)
    peers = l_class_peers(members)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    edges = []
    for i in range(n):
        for j in peers[i]:
            if j <= i:
                continue
            witness = related(members[i], members[j], kind)
            if witness is None:
                continue
            step_kind = kind
            if kind is RelationKind.S_OR_C:
                is_s = isinstance(witness, SWitness)
                step_kind = RelationKind.S if is_s else RelationKind.C
            edges.append(ClosureEdge(i, j, step_kind, witness))
            parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    classes = tuple(
        tuple(sorted(g)) for g in sorted(groups.values(), key=min)
    )
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


def relation_properties_report(
    universe: Universe,
    kind: RelationKind,
    max_counterexamples: int = 5,
) -> RelationPropertiesReport:
    """Audit reflexivity, symmetry and transitivity of the one-step relation.

    Every ordered pair within one L class is decided by the actual oracle;
    pairs across classes are related under no kind. Failures are reported
    with explicit index tuples into the universe.
    """
    members = universe.members
    n = len(members)
    peers = l_class_peers(members)
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in peers[i]:
            if related(members[i], members[j], kind) is not None:
                neighbors[i].add(j)
    refl = [(i,) for i in range(n) if i not in neighbors[i]]
    sym = [
        (i, j)
        for i in range(n)
        for j in neighbors[i]
        if i not in neighbors[j]
    ]
    trans = []
    for i in range(n):
        for j in neighbors[i]:
            missing = neighbors[j] - neighbors[i]
            for k in sorted(missing):
                trans.append((i, j, k))
                if len(trans) >= max_counterexamples:
                    break
            if len(trans) >= max_counterexamples:
                break
        if len(trans) >= max_counterexamples:
            break
    return RelationPropertiesReport(
        kind,
        n,
        LawReport(not refl, tuple(refl[:max_counterexamples])),
        LawReport(not sym, tuple(sym[:max_counterexamples])),
        LawReport(not trans, tuple(trans)),
    )
