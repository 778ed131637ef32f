"""Per-layer tracing of lp_lab from outside the library.

Each traced public function is replaced by a wrapper in every ``lp_lab.*``
module that binds it, found by identity: ``relations``, ``search``,
``evidence`` and ``cli`` import ``c_related``, ``reduce_to_mss`` and others
by name, so patching only the defining module would miss their calls.
Calls, total time and self time (total minus traced callees) are kept as
aggregates, not per-call spans, because inner functions such as
``block_masses`` run more than 10^5 times per enumeration.
"""

from __future__ import annotations

import sys
import time

# (metric prefix, module, attribute path, what to count beyond calls/time)
TRACED = (
    ("partition.all_partitions", "lp_lab.partition", "all_partitions", "yields"),
    ("partition.Partition.of", "lp_lab.partition", "Partition.of", None),
    ("partition.Partition.refines", "lp_lab.partition", "Partition.refines", None),
    ("ancillarity.enumerate_ancillaries", "lp_lab.ancillarity", "enumerate_ancillaries", "length"),
    ("ancillarity.block_masses", "lp_lab.ancillarity", "block_masses", None),
    ("ancillarity.maximal_ancillaries", "lp_lab.ancillarity", "maximal_ancillaries", None),
    ("ancillarity.laminal_ancillary", "lp_lab.ancillarity", "laminal_ancillary", None),
    ("ancillarity.c_related", "lp_lab.ancillarity", "c_related", "positive"),
    ("ancillarity.condition_on_block", "lp_lab.ancillarity", "condition_on_block", None),
    ("ancillarity.verify_c_witness", "lp_lab.ancillarity", "verify_c_witness", None),
    ("sufficiency.reduce_to_mss", "lp_lab.sufficiency", "reduce_to_mss", None),
    ("sufficiency.s_related", "lp_lab.sufficiency", "s_related", "positive"),
    ("sufficiency.likelihood_partition", "lp_lab.sufficiency", "likelihood_partition", None),
    ("model.validate_model", "lp_lab.model", "validate_model", None),
    ("model.canonical_form", "lp_lab.model", "canonical_form", None),
    ("model.pairs_isomorphic", "lp_lab.model", "pairs_isomorphic", None),
    ("relations.related", "lp_lab.relations", "related", None),
    ("relations.l_related", "lp_lab.relations", "l_related", "positive"),
    ("relations.closure", "lp_lab.relations", "closure", None),
    ("relations.Universe.of", "lp_lab.relations", "Universe.of", None),
    ("relations.verify_chain", "lp_lab.relations", "verify_chain", None),
    ("relations.birnbaum_chain", "lp_lab.relations", "birnbaum_chain", None),
    ("relations.efm_parent", "lp_lab.relations", "efm_parent", None),
    ("relations.birnbaum_chain_durbin", "lp_lab.relations", "birnbaum_chain_durbin", None),
    ("search.search_c_transitivity_counterexample", "lp_lab.search", "search_c_transitivity_counterexample", None),
    ("search.search_l_minus_sc", "lp_lab.search", "search_l_minus_sc", None),
    ("evidence.evidence_report", "lp_lab.evidence", "evidence_report", None),
    ("evidence.posterior", "lp_lab.evidence", "posterior", None),
    ("evidence.rb_strength", "lp_lab.evidence", "rb_strength", None),
    ("evidence.check_model_mss", "lp_lab.evidence", "check_model_mss", None),
    ("evidence.check_prior_conflict", "lp_lab.evidence", "check_prior_conflict", None),
    ("serialization.load_pair", "lp_lab.serialization", "load_pair", None),
    ("serialization.load_model", "lp_lab.serialization", "load_model", None),
    ("serialization.render_machine", "lp_lab.serialization", "render_machine", None),
    ("cli.run", "lp_lab.cli", "run", None),
)

# metric name -> unit, in the order they are reported
METRICS = {
    "partition.all_partitions.yielded": "count",
    "partition.Partition.of.calls": "count",
    "partition.Partition.refines.calls": "count",
    "partition.Partition.refines.self_s": "s",
    "ancillarity.enumerate_ancillaries.calls": "count",
    "ancillarity.enumerate_ancillaries.self_s": "s",
    "ancillarity.block_masses.calls": "count",
    "ancillarity.block_masses.self_s": "s",
    "ancillarity.accept_ratio": "ratio",
    "ancillarity.maximal_ancillaries.self_s": "s",
    "ancillarity.laminal_ancillary.self_s": "s",
    "ancillarity.c_related.calls": "count",
    "ancillarity.c_related.positive": "count",
    "ancillarity.c_related.self_s": "s",
    "ancillarity.condition_on_block.calls": "count",
    "ancillarity.verify_c_witness.self_s": "s",
    "sufficiency.reduce_to_mss.calls": "count",
    "sufficiency.reduce_to_mss.self_s": "s",
    "sufficiency.mss_cache.hits": "count",
    "sufficiency.mss_cache.misses": "count",
    "sufficiency.mss_cache.currsize": "count",
    "sufficiency.s_related.calls": "count",
    "sufficiency.s_related.positive": "count",
    "sufficiency.likelihood_partition.calls": "count",
    "model.validate_model.calls": "count",
    "model.validate_model.self_s": "s",
    "model.canonical_form.calls": "count",
    "model.canonical_form.self_s": "s",
    "model.pairs_isomorphic.calls": "count",
    "model.pairs_isomorphic.self_s": "s",
    "relations.related.calls": "count",
    "relations.l_related.calls": "count",
    "relations.l_related.positive": "count",
    "relations.closure.self_s": "s",
    "relations.Universe.of.self_s": "s",
    "relations.verify_chain.self_s": "s",
    "relations.birnbaum_chain.self_s": "s",
    "relations.efm_parent.self_s": "s",
    "relations.birnbaum_chain_durbin.self_s": "s",
    "search.search_c_transitivity_counterexample.self_s": "s",
    "search.search_l_minus_sc.self_s": "s",
    "evidence.evidence_report.self_s": "s",
    "evidence.posterior.calls": "count",
    "evidence.rb_strength.self_s": "s",
    "evidence.check_model_mss.self_s": "s",
    "evidence.check_prior_conflict.self_s": "s",
    "serialization.load_pair.calls": "count",
    "serialization.load_pair.self_s": "s",
    "serialization.load_model.self_s": "s",
    "serialization.render_machine.self_s": "s",
    "cli.run.calls": "count",
    "cli.run.self_s": "s",
}


class Tracer:
    """Aggregate calls, total and self time of the traced functions."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # prefix -> [calls, total, self, extra]
        self.stack: list[float] = []  # time spent in traced callees, per open span
        self.missing: list[str] = []
        self._cache = None

    def _timed(self, prefix, fn, extra):
        stat = self.stats.setdefault(prefix, [0, 0.0, 0.0, 0])
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if extra == "positive" and result is not None:
                    stat[3] += 1
                elif extra == "length" and result is not None:
                    stat[3] += len(result)

        return wrapper

    def _counted(self, prefix, fn):
        stat = self.stats.setdefault(prefix, [0, 0.0, 0.0, 0])

        def wrapper(*args, **kwargs):
            stat[0] += 1
            for item in fn(*args, **kwargs):
                stat[3] += 1
                yield item

        return wrapper

    def install(self) -> None:
        """Wrap every function in TRACED wherever lp_lab binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "lp_lab" or n.startswith("lp_lab.")]
        for prefix, module_name, path, extra in TRACED:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(prefix)
                continue
            if prefix == "sufficiency.reduce_to_mss":
                self._cache = raw
            if owner_name:
                # a method or staticmethod lives in one class dict
                is_static = isinstance(raw, staticmethod)
                fn = raw.__func__ if is_static else raw
                wrapped = self._timed(prefix, fn, extra)
                setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                continue
            wrapped = self._counted(prefix, raw) if extra == "yields" else self._timed(prefix, raw, extra)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, name, wrapped)

    def metrics(self) -> dict[str, float]:
        """Every METRICS entry; a function that was not found reads 0."""
        out = {}
        for name in METRICS:
            prefix, _, field = name.rpartition(".")
            stat = self.stats.get(prefix, [0, 0.0, 0.0, 0])
            if field == "calls":
                out[name] = stat[0]
            elif field == "self_s":
                out[name] = stat[2]
            elif field in ("positive", "yielded"):
                out[name] = stat[3]
        yielded = out["partition.all_partitions.yielded"]
        returned = self.stats.get("ancillarity.enumerate_ancillaries", [0, 0, 0, 0])[3]
        out["ancillarity.accept_ratio"] = returned / yielded if yielded else 0.0
        info = getattr(self._cache, "cache_info", None)
        info = info() if info else None
        out["sufficiency.mss_cache.hits"] = info.hits if info else 0
        out["sufficiency.mss_cache.misses"] = info.misses if info else 0
        out["sufficiency.mss_cache.currsize"] = info.currsize if info else 0
        return out
