"""What the installed package holds: every name the benchmark traces, and
none of the helpers that only tests use.

The benchmark's tracer wraps the functions it names in ``TRACED``; a name it
cannot find is reported as 0, so deleting or renaming one would silently
turn a traced metric into a zero. The seeded random-model generators, the
``Fraction`` views of a model and the other helpers only tests use live
under ``tests/``.
"""

import importlib
import importlib.util
from pathlib import Path

import lp_lab
from lp_lab import ancillarity, fixtures, model, sufficiency
from lp_lab.evidence import Prior
from lp_lab.model import FiniteModel, ModelDataPair
from lp_lab.partition import Partition

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_every_traced_name_resolves_in_lp_lab():
    traced = _traced()
    assert traced
    for prefix, module_name, path, _ in traced:
        owner = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name)
        # the tracer looks a name up in its owner's own namespace
        assert attr in vars(owner), prefix


def test_test_only_helpers_are_not_in_the_package():
    assert importlib.util.find_spec("lp_lab.generate") is None
    moved = {
        "likelihood_vector",
        "balanced_blocks",
        "conditional_pairs",
        "random_model",
        "random_pair",
        "random_prior",
        "random_l_related_pair",
    }
    assert not moved & set(lp_lab.__all__)
    for owner, name in [
        (model, "likelihood_vector"),
        (ancillarity, "balanced_blocks"),
        (ancillarity, "conditional_pairs"),
        (FiniteModel, "column"),
        (FiniteModel, "columns"),
        (Partition, "block_index_of"),
        (Prior, "uniform"),
    ]:
        assert not hasattr(owner, name), name


def test_the_traced_mss_counters_count_models():
    # the tracer reads sufficiency.mss_cache.* from reduce_to_mss.cache_info,
    # which reports the one reduction cache: by model, not by pair
    reduce = sufficiency.reduce_to_mss
    reduce.cache_clear()
    assert sufficiency._quotient.cache_info().currsize == 0
    fd = fixtures.fix_d()
    for x in range(fd.n_points):
        reduce(ModelDataPair(fd, x))
    info = reduce.cache_info()
    assert info == sufficiency._quotient.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
