"""The laminal ancillary as a join, against the brute-force reference.

Inputs: every model of three small rational grids. The reference searches
all ancillaries for the finest common coarsening of the maximal ones; it
must always find exactly one, and it must equal the join.
"""

from ancillary_reference import brute_force_laminal
from lp_lab.ancillarity import laminal_ancillary, maximal_ancillaries
from lp_lab.partition import Partition
from lp_lab.search import enumerate_models

GRIDS = [(2, 5, 4), (3, 4, 3), (2, 4, 6)]


def test_laminal_is_join_of_maximal_on_grids():
    models = nontrivial = joined = 0
    for grid in GRIDS:
        for model in enumerate_models(*grid):
            laminal = laminal_ancillary(model)
            reference, antichain = brute_force_laminal(model)
            assert antichain is None, model
            assert laminal == reference, model
            models += 1
            if laminal != Partition.trivial(model.n_points):
                nontrivial += 1
                joined += len(maximal_ancillaries(model)) > 1
    assert (models, nontrivial) == (1161, 411)
    # some non-trivial laminal ancillaries join distinct maximal ones
    assert joined > 0
