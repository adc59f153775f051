"""Regression tests for ``ResultCache.stats``: synthesis payloads must
be enumerated, not lumped into (or dropped from) the eval totals.

``repro cache info`` historically reported only ``results`` / ``setups``
/ ``bytes``; SynthesisCell payloads (designs and infeasible-seed
markers) and service job bundles were invisible.  These tests pin the
categorized breakdown and that ``clear`` removes every family.
"""

import pytest

from repro.eval.parallel import (
    PerformanceCell,
    ResultCache,
    SynthesisCell,
    run_cells,
)
from repro.eval.runner import prepare
from repro.simulator.config import SimConfig
from repro.synthesis import DesignConstraints
from repro.workloads import benchmark

#: No cg-8 seed satisfies a degree-2 bound (every synthesis attempt
#: fails), so this constraint deterministically produces an
#: infeasible-seed cache entry.
INFEASIBLE = DesignConstraints(max_degree=2)


@pytest.fixture(scope="module")
def populated_cache(tmp_path_factory):
    cache = ResultCache(str(tmp_path_factory.mktemp("cache")))
    pattern = benchmark("cg", 8).pattern
    setup = prepare("cg", 8, seed=0)
    cells = [
        SynthesisCell(
            label="synth:ok", pattern=pattern, seed=0,
            constraints=DesignConstraints(max_degree=5),
        ),
        SynthesisCell(
            label="synth:infeasible", pattern=pattern, seed=0,
            constraints=INFEASIBLE,
        ),
        PerformanceCell(
            label="perf:mesh",
            program=setup.benchmark.program,
            topology=setup.topology("mesh"),
            config=SimConfig(),
            link_delays=setup.link_delays("mesh"),
        ),
    ]
    run_cells(cells, cache=cache)
    cache.put_bundle("f" * 64, {"schema": 1, "kind": "simulate", "results": {}})
    return cache


class TestStatsBreakdown:
    def test_synthesis_payloads_are_enumerated(self, populated_cache):
        stats = populated_cache.stats()
        assert stats["synthesis_results"] == 2
        assert stats["synthesis_ok"] == 1
        assert stats["synthesis_infeasible"] == 1
        assert stats["synthesis_bytes"] > 0

    def test_eval_payloads_stay_separate(self, populated_cache):
        stats = populated_cache.stats()
        assert stats["eval_results"] == 1
        assert stats["eval_bytes"] > 0

    def test_bundles_are_counted(self, populated_cache):
        stats = populated_cache.stats()
        assert stats["bundles"] == 1
        assert stats["bundle_bytes"] > 0

    def test_totals_remain_backward_compatible(self, populated_cache):
        stats = populated_cache.stats()
        assert stats["results"] == stats["eval_results"] + stats["synthesis_results"]
        assert stats["bytes"] == (
            stats["eval_bytes"] + stats["synthesis_bytes"] + stats["bundle_bytes"]
        )


class TestBundleStore:
    def test_roundtrip_and_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get_bundle("a" * 64) is None
        cache.put_bundle("a" * 64, {"schema": 1, "kind": "sweep"})
        assert cache.get_bundle("a" * 64) == {"schema": 1, "kind": "sweep"}

    def test_corrupt_bundle_is_a_miss_and_dropped(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put_bundle("b" * 64, {"schema": 1})
        path = cache.jobs_dir / ("b" * 64 + ".json")
        path.write_text("{torn")
        assert cache.get_bundle("b" * 64) is None
        assert not path.exists()

    def test_clear_removes_bundles_too(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put_bundle("c" * 64, {"schema": 1})
        cache.put_result("d" * 64, {"status": "ok"})
        assert cache.clear() == 2
        assert cache.stats()["results"] == 0
        assert cache.stats()["bundles"] == 0
