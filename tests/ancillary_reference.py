"""Brute-force laminal ancillary, for tests only.

``brute_force_laminal`` searches every ancillary for the finest one that is
a function of every maximal ancillary, as the library did before it took
the join of the maximal ancillaries. When no candidate is finest it reports
the antichain of refinement-minimal candidates instead; the differential
test checks that this never happens.
"""

from __future__ import annotations

from typing import Optional

from lp_lab.ancillarity import enumerate_ancillaries, maximal_ancillaries
from lp_lab.model import FiniteModel
from lp_lab.partition import Partition, is_function_of


def brute_force_laminal(
    model: FiniteModel,
) -> tuple[Optional[Partition], Optional[list[Partition]]]:
    """(laminal, None) if a finest candidate exists, else (None, antichain)."""
    ancillaries = enumerate_ancillaries(model)
    maximal = maximal_ancillaries(model)
    candidates = [
        a for a in ancillaries if all(is_function_of(a, m) for m in maximal)
    ]
    finest = [a for a in candidates if all(a.refines(b) for b in candidates)]
    if len(finest) == 1:
        return finest[0], None
    minimal = [
        a
        for a in candidates
        if not any(b != a and b.refines(a) for b in candidates)
    ]
    return None, minimal
