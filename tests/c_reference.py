"""Exhaustive reference for the relations C and Durbin-C, for tests only.

It decides C straight from the definition: scan every ancillary partition
of the parent, condition on the block of the observed point and test the
result for isomorphism with the child. The library's oracle decides the
same relation by a multiset-inclusion test; differential tests compare
the two.
"""

from __future__ import annotations

from typing import Optional

from lp_lab.ancillarity import (
    DEFAULT_MAX_SPACE,
    CWitness,
    condition_on_block,
    enumerate_ancillaries,
)
from lp_lab.model import ModelDataPair, pairs_isomorphic
from lp_lab.partition import is_function_of
from lp_lab.sufficiency import likelihood_partition


def _exhaustive_witness(
    parent: ModelDataPair,
    child: ModelDataPair,
    which: str,
    durbin: bool,
    max_space: int,
) -> Optional[CWitness]:
    if child.model.n_points > parent.model.n_points:
        return None
    mss = likelihood_partition(parent.model) if durbin else None
    for a in enumerate_ancillaries(parent.model, max_space):
        if len(a.block_of(parent.observed)) != child.model.n_points:
            continue
        if mss is not None and not is_function_of(a, mss):
            continue
        conditional = condition_on_block(parent, a)
        phi = pairs_isomorphic(conditional, child)
        if phi is not None:
            return CWitness(which, a, conditional, phi)
    return None


def exhaustive_c_related(
    p1: ModelDataPair,
    p2: ModelDataPair,
    durbin: bool = False,
    max_space: int = DEFAULT_MAX_SPACE,
) -> Optional[CWitness]:
    """C (or Durbin-C) by scanning all Bell(|X|) partitions of each side."""
    witness = _exhaustive_witness(p1, p2, "first", durbin, max_space)
    if witness is not None:
        return witness
    return _exhaustive_witness(p2, p1, "second", durbin, max_space)
