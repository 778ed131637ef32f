"""All-pairs references for the closure layer, for tests only.

``all_pairs_closure`` and ``all_pairs_properties_report`` call the one-step
oracle on every pair of the universe, with no grouping by L class.
``enumerated_conditional_pairs`` conditions on every ancillary partition,
found by filtering all Bell(|X|) partitions. The library's versions skip
pairs across L classes and visit balanced blocks only; differential tests
compare the two.
"""

from __future__ import annotations

from lp_lab.ancillarity import condition_on_block, enumerate_ancillaries
from lp_lab.model import ModelDataPair
from lp_lab.relations import (
    ClosureEdge,
    LawReport,
    RelationKind,
    RelationPropertiesReport,
    Universe,
    related,
)
from lp_lab.sufficiency import SWitness


def all_pairs_closure(universe: Universe, kind: RelationKind):
    """(classes, edges) of the closure, deciding every pair i < j."""
    members = universe.members
    n = len(members)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    edges = []
    for i in range(n):
        for j in range(i + 1, n):
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
    classes = tuple(sorted(tuple(sorted(g)) for g in groups.values()))
    return classes, tuple(edges)


def all_pairs_properties_report(
    universe: Universe, kind: RelationKind, max_counterexamples: int = 5
) -> RelationPropertiesReport:
    """The relation-law audit, deciding every ordered pair."""
    members = universe.members
    n = len(members)
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if related(members[i], members[j], kind) is not None:
                neighbors[i].add(j)
    refl = [(i,) for i in range(n) if i not in neighbors[i]]
    sym = [(i, j) for i in range(n) for j in neighbors[i] if i not in neighbors[j]]
    trans = []
    for i in range(n):
        for j in neighbors[i]:
            for k in sorted(neighbors[j] - neighbors[i]):
                trans.append((i, j, k))
    trans = trans[:max_counterexamples]
    return RelationPropertiesReport(
        kind,
        n,
        LawReport(not refl, tuple(refl[:max_counterexamples])),
        LawReport(not sym, tuple(sym[:max_counterexamples])),
        LawReport(not trans, tuple(trans)),
    )


def enumerated_conditional_pairs(pair: ModelDataPair):
    """(ancillary, conditional) for every ancillary partition, in
    restricted-growth order."""
    return [
        (a, condition_on_block(pair, a))
        for a in enumerate_ancillaries(pair.model)
    ]
