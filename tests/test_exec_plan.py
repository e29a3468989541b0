"""Execution-plan construction, levels, and the plan cache."""

import numpy as np
import pytest

from repro.exec import build_plan, clear_exec_caches, exec_cache_stats, plan_for
from repro.symbolic.analyze import analyze


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_exec_caches()
    yield
    clear_exec_caches()


class TestPlanStructure:
    def test_partition_and_topology(self, sym_grid8, sym_grid3d5):
        # One step per supernode, in id order, each reducing exactly its
        # assembly-tree children in ascending order.
        for sym in (sym_grid8, sym_grid3d5):
            stree = sym.stree
            plan = build_plan(stree)
            assert [st.s for st in plan.steps] == list(range(stree.nsuper))
            for st in plan.steps:
                assert list(st.children) == sorted(stree.children[st.s])
                assert len(st.child_scatter) == len(st.children)


class TestLevels:
    def test_node_levels_match_stree(self, sym_grid8):
        stree = sym_grid8.stree
        plan = build_plan(stree)
        assert np.array_equal(plan.node_level, stree.bottom_up_levels())

    def test_bottom_up_levels_invariants(self, sym_grid3d5):
        stree = sym_grid3d5.stree
        lv = stree.bottom_up_levels()
        for s in range(stree.nsuper):
            if not stree.children[s]:
                assert lv[s] == 0
            else:
                assert lv[s] == 1 + max(lv[c] for c in stree.children[s])


class TestPlanCache:
    def test_hit_returns_same_object(self, sym_grid8):
        p1 = plan_for(sym_grid8.stree)
        p2 = plan_for(sym_grid8.stree)
        assert p1 is p2
        stats = exec_cache_stats()
        assert stats["plan_hits"] >= 1 and stats["plan_misses"] == 1

    def test_distinct_structures_get_distinct_plans(self, grid8):
        sym_a = analyze(grid8)
        sym_b = analyze(grid8)
        pa = plan_for(sym_a.stree)
        pb = plan_for(sym_b.stree)
        assert pa is not pb

    def test_clear_resets_counters(self, sym_grid8):
        plan_for(sym_grid8.stree)
        clear_exec_caches()
        stats = exec_cache_stats()
        assert stats["plan_entries"] == 0 and stats["plan_misses"] == 0

    def test_entries_evicted_when_structure_dies(self, grid8):
        import gc

        sym = analyze(grid8)
        plan_for(sym.stree)
        assert exec_cache_stats()["plan_entries"] == 1
        del sym
        gc.collect()
        assert exec_cache_stats()["plan_entries"] == 0
