"""Exhaustive reference for the relations C and Durbin-C, for tests only.

It decides C straight from the definition: scan every ancillary partition
of the parent, condition on the block of the observed point and test the
result for isomorphism with the child, by ``model_reference``'s
``Fraction`` column match. The library's oracle decides the same relation
by a multiset-inclusion test; differential tests compare the two.
"""

from __future__ import annotations

from typing import Optional

from lp_lab.ancillarity import CWitness, condition_on_block, enumerate_ancillaries
from lp_lab.model import ModelDataPair
from lp_lab.partition import is_function_of
from lp_lab.sufficiency import likelihood_partition
from model_reference import pairs_isomorphic


def _exhaustive_witness(
    parent: ModelDataPair,
    child: ModelDataPair,
    which: str,
    durbin: bool,
) -> Optional[CWitness]:
    if child.model.n_points > parent.model.n_points:
        return None
    mss = likelihood_partition(parent.model) if durbin else None
    for a in enumerate_ancillaries(parent.model):
        if len(a.blocks[a.labels[parent.observed]]) != child.model.n_points:
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
) -> Optional[CWitness]:
    """C (or Durbin-C) by scanning all Bell(|X|) partitions of each side."""
    witness = _exhaustive_witness(p1, p2, "first", durbin)
    if witness is not None:
        return witness
    return _exhaustive_witness(p2, p1, "second", durbin)
