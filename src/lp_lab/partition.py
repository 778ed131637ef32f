"""Set partitions of a finite sample space.

A statistic on a finite sample space is identified with the partition it
induces, so statistics are compared and enumerated as partitions. A
partition of range(n) is stored as its restricted-growth string: labels[x]
is the index of the block holding x, and blocks are numbered in order of
their smallest point. Every string the constructor accepts is a valid,
canonical partition, which makes equality and hashing structural.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import GroundSetMismatch, LpLabError


@dataclass(frozen=True)
class Partition:
    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        # restricted growth: the labels, in order of first occurrence, are
        # exactly 0, 1, 2, ...
        firsts = list(dict.fromkeys(self.labels))
        if type(self.labels) is not tuple or firsts != list(range(len(firsts))):
            raise LpLabError(
                f"labels {self.labels!r} are not a restricted-growth tuple"
            )

    @staticmethod
    def of(size: int, blocks: Iterable[Iterable[int]]) -> "Partition":
        """Build and validate a partition of range(size) from its blocks."""
        raw = [list(b) for b in blocks]
        if any(not b for b in raw):
            raise LpLabError("empty block in partition")
        if any(len(set(b)) < len(b) for b in raw):
            raise LpLabError("a block repeats a point")
        owner = {x: i for i, block in enumerate(raw) for x in block}
        if len(owner) < sum(map(len, raw)):
            raise LpLabError("blocks are not disjoint")
        if owner.keys() != set(range(size)):
            raise LpLabError(
                f"blocks cover {sorted(owner)}, expected range({size})"
            )
        return Partition.from_labels([owner[x] for x in range(size)])

    @staticmethod
    def trivial(size: int) -> "Partition":
        return Partition((0,) * size)

    @staticmethod
    def discrete(size: int) -> "Partition":
        return Partition(tuple(range(size)))

    @staticmethod
    def from_labels(assignment: Sequence[object]) -> "Partition":
        """Group indices by equal assigned values."""
        first_seen: dict[object, int] = {}
        labels = [first_seen.setdefault(key, len(first_seen)) for key in assignment]
        return Partition(tuple(labels))

    @property
    def size(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks as ascending tuples, in order of their smallest point."""
        out: list[list[int]] = []
        for x, b in enumerate(self.labels):
            if b == len(out):
                out.append([x])
            else:
                out[b].append(x)
        return tuple(map(tuple, out))

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self lies inside a block of other."""
        if len(self.labels) != len(other.labels):
            raise GroundSetMismatch(
                f"ground sets of size {self.size} and {other.size}"
            )
        # each block of self must meet a single block of other
        image: dict[int, int] = {}
        for a, b in zip(self.labels, other.labels):
            if image.setdefault(a, b) != b:
                return False
        return True

    def join(self, other: "Partition") -> "Partition":
        """Finest common coarsening (connected components of the overlay)."""
        if self.size != other.size:
            raise GroundSetMismatch(
                f"ground sets of size {self.size} and {other.size}"
            )
        # link every point to the first point of its block, in both
        edges = [(b[0], x) for p in (self, other) for b in p.blocks for x in b]
        return components(self.size, edges)


def components(size: int, edges: Iterable[tuple[int, int]]) -> Partition:
    """The connected components of a graph on range(size), as a partition."""
    parent = list(range(size))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        parent[find(i)] = find(j)
    return Partition.from_labels([find(i) for i in range(size)])


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
            yield Partition(tuple(assignment))
            return
        for value in range(max_used + 2):
            assignment[i] = value
            yield from grow(i + 1, max(max_used, value))

    yield from grow(1, 0)
