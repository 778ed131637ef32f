"""Birnbaum's theorem and Durbin's restriction, over a whole grid universe.

The universe is ``enumerate_pairs(2, 3, 3)``: the 56 canonical pairs with
two parameters, at most three sample points and denominators at most 3.
It is closed under each relation as it stands, and after adding, for every
two L-related members, Birnbaum's two embedded pairs of their equal-weight
mixture (544 members) or their Evans-Fraser-Monette parent (352 members),
as ``lp-lab closure --augment`` adds them. Classes are counted on the 56
grid members; "S | DURBIN" is the closure of the S and DURBIN edge sets
together.

| universe            | S  | C  | DURBIN | SC | L | S or DURBIN |
|---------------------|----|----|--------|----|---|-------------|
| grid                | 38 | 37 | 41     | 23 | 9 | 23          |
| Birnbaum-augmented  |    | 9  | 41     | 9  |   | 23          |
| EFM-augmented       |    | 9  | 41     | 9  |   | 23          |

Theorems, which hold on any universe:
- S and C each imply L, so no count is below L's 9.
- Enlarging a universe can only merge classes, so no augmented count is
  above the grid's.
- SC with Birnbaum augmentation equals L: p1 -C- (M*, (1, x1)) -S-
  (M*, (2, x2)) -C- p2 (Birnbaum, JASA 1962).
- C with EFM augmentation equals L: p1 -C- parent -C- p2 (Evans, Fraser
  and Monette, Canad. J. Statist. 1986), and so does SC, which contains C.

Facts of this grid only: the S, C, DURBIN and SC counts of the grid, C
with Birnbaum augmentation reaching L, and every DURBIN and S or DURBIN
count. Durbin (JASA 1970) admits only ancillaries that are functions of
the minimal sufficient statistic; here neither augmentation merges a
single DURBIN class, with or without S.
"""

from closure_reference import closure_chain
from lp_lab.partition import components
from lp_lab.relations import (
    RelationKind,
    Universe,
    augment,
    closure,
    verify_chain,
)
from lp_lab.search import enumerate_pairs

K = RelationKind
KINDS = (K.S, K.C, K.DURBIN_C, K.S_OR_C, K.L)


def _count(classes, n):
    """Classes holding one of the first n members (classes are ascending)."""
    return sum(cls[0] < n for cls in classes)


def test_grid_census_of_the_2_3_3_universe():
    grid = list(enumerate_pairs(2, 3, 3))
    n = len(grid)
    census = {}
    for how, size in ((None, 56), ("birnbaum", 544), ("efm", 352)):
        universe = Universe.of(augment(grid, how) if how else grid)
        assert len(universe.members) == size
        assert universe.members[:n] == tuple(grid)
        results = {kind: closure(universe, kind) for kind in KINDS}
        row = {kind.value: _count(results[kind].classes, n) for kind in KINDS}
        edges = [
            (e.i, e.j) for kind in (K.S, K.DURBIN_C) for e in results[kind].edges
        ]
        row["S|DURBIN"] = _count(components(size, edges).blocks, n)
        census[how] = row
        if how == "birnbaum":
            # every chain within the smallest L class that holds at least
            # four grid members (4 of them and 9 embedded pairs) certifies,
            # and equals the chain of a BFS over freshly built adjacency
            chains = results[K.S_OR_C]
            cls = min(
                (c for c in results[K.L].classes if sum(i < n for i in c) >= 4),
                key=len,
            )
            assert len(cls) == 13
            for i in cls:
                for j in cls:
                    chain = chains.chain(i, j)
                    assert chain is not None and verify_chain(chain), (i, j)
                    assert chain == closure_chain(chains, i, j), (i, j)

    assert census[None] == {
        "S": 38, "C": 37, "DURBIN": 41, "SC": 23, "L": 9, "S|DURBIN": 23
    }
    birnbaum, efm = census["birnbaum"], census["efm"]
    # theorems
    assert birnbaum["SC"] == birnbaum["L"] == 9
    assert efm["C"] == efm["SC"] == efm["L"] == 9
    for row in (birnbaum, efm):
        assert all(9 <= row[kind] <= census[None][kind] for kind in row)
    # facts of this grid
    assert birnbaum["C"] == 9
    for row in (birnbaum, efm):
        assert row["DURBIN"] == 41 and row["S|DURBIN"] == 23
