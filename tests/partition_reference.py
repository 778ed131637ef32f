"""Set partitions as tuples of frozensets, for tests only.

This is lp_lab's earlier ``Partition``: blocks are stored canonically as
frozensets ordered by smallest element, ``Partition.of`` validates, sorts
and checks disjointness on every construction, and ``block_index_of``
scans the blocks. ``lp_lab.partition`` stores the restricted-growth string
instead; ``test_partition`` compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from lp_lab.errors import GroundSetMismatch, LpLabError


@dataclass(frozen=True)
class Partition:
    size: int
    blocks: tuple[frozenset[int], ...]

    @staticmethod
    def of(size: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        """Build and validate a partition of range(size)."""
        raw = [frozenset(b) for b in blocks]
        if any(not b for b in raw):
            raise LpLabError("empty block in partition")
        normalized = tuple(sorted(raw, key=min))
        seen: set[int] = set()
        for block in normalized:
            if block & seen:
                raise LpLabError("blocks are not disjoint")
            seen |= block
        if seen != set(range(size)):
            raise LpLabError(
                f"blocks cover {sorted(seen)}, expected range({size})"
            )
        return Partition(size, normalized)

    @staticmethod
    def trivial(size: int) -> "Partition":
        return Partition.of(size, [range(size)])

    @staticmethod
    def discrete(size: int) -> "Partition":
        return Partition.of(size, [[i] for i in range(size)])

    @staticmethod
    def from_labels(assignment: Sequence[object]) -> "Partition":
        """Group indices by equal assigned values."""
        groups: dict[object, list[int]] = {}
        for i, key in enumerate(assignment):
            groups.setdefault(key, []).append(i)
        return Partition.of(len(assignment), groups.values())

    def block_index_of(self, x: int) -> int:
        for i, block in enumerate(self.blocks):
            if x in block:
                return i
        raise GroundSetMismatch(f"{x} not in ground set of size {self.size}")

    def block_of(self, x: int) -> frozenset[int]:
        return self.blocks[self.block_index_of(x)]

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies inside a block of other."""
        if self.size != other.size:
            raise GroundSetMismatch(
                f"ground sets of size {self.size} and {other.size}"
            )
        return all(
            block <= other.block_of(min(block)) for block in self.blocks
        )

    def join(self, other: "Partition") -> "Partition":
        """Finest common coarsening (connected components of the overlay)."""
        if self.size != other.size:
            raise GroundSetMismatch(
                f"ground sets of size {self.size} and {other.size}"
            )
        parent = list(range(self.size))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for part in (self, other):
            for block in part.blocks:
                root = find(min(block))
                for x in block:
                    parent[find(x)] = root
        return Partition.from_labels([find(i) for i in range(self.size)])


def is_function_of(coarse: Partition, fine: Partition) -> bool:
    """True iff the statistic `coarse` is a function of the statistic `fine`,

    i.e. every block of `fine` lies inside a block of `coarse`.
    """
    return fine.refines(coarse)


def all_partitions(size: int) -> Iterator[Partition]:
    """All set partitions of range(size) in restricted-growth order.

    Deterministic: enumerates restricted growth strings, so the first
    partition is the trivial one and the last is the discrete one.
    """
    if size == 0:
        return
    assignment = [0] * size

    def grow(i: int, max_used: int) -> Iterator[Partition]:
        if i == size:
            yield Partition.from_labels(assignment)
            return
        for value in range(max_used + 2):
            assignment[i] = value
            yield from grow(i + 1, max(max_used, value))

    yield from grow(1, 0)
