"""The static schedule certifier: effects, level order, certificates."""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import (
    clear_exec_caches,
    fused_certificate_for,
    plan_for,
    program_for,
)
from repro.exec.plan import build_plan, compile_level_program
from repro.sparse.generators import grid2d_laplacian, grid3d_laplacian
from repro.symbolic.analyze import analyze
from repro.verify import VerificationError, gate, schedule
from repro.verify.corpus import known_bad_cases
from repro.verify.effects import (
    FORWARD,
    READ,
    WRITE,
    X_SPACE,
    Effect,
    acc_space,
    backward_effects,
    contrib_space,
    effect_conflicts,
    format_index_set,
    forward_effects,
)
from repro.verify.gate import run_schedule_certification
from repro.verify.schedule import certify_level_program, plan_digest


def certify(plan, stree):
    """Compile *plan* and certify the program against it."""
    return certify_level_program(compile_level_program(plan), plan, stree)


def reference_conflicts(effects):
    """Brute-force conflict finder: every pair, ``np.intersect1d``, no shortcut."""
    by_space = {}
    for e in effects:
        by_space.setdefault(e.space, []).append(e)
    out = []
    for effs in by_space.values():
        for i, a in enumerate(effs):
            for b in effs[i + 1 :]:
                if a.node == b.node or (a.mode == READ and b.mode == READ):
                    continue
                overlap = np.intersect1d(a.rows, b.rows)
                if overlap.size:
                    out.append((a, b, overlap))
    return out


def assert_same_conflicts(got, want):
    assert len(got) == len(want)
    for (a, b, overlap), (ra, rb, roverlap) in zip(got, want):
        assert a is ra and b is rb
        assert overlap.dtype == roverlap.dtype
        np.testing.assert_array_equal(overlap, roverlap)


_SPACES = [X_SPACE, contrib_space(0), contrib_space(1), acc_space(2)]

effect_lists = st.lists(
    st.builds(
        lambda level, node, mode, space, rows: Effect(
            level, node, FORWARD, mode, space, np.array(rows, dtype=np.int64)
        ),
        st.integers(0, 3),
        st.integers(0, 4),
        st.sampled_from([READ, WRITE]),
        st.sampled_from(_SPACES),
        st.lists(st.integers(0, 15), max_size=8),
    ),
    max_size=14,
)


@pytest.fixture(scope="module")
def sym():
    return analyze(grid2d_laplacian(6))


@pytest.fixture(scope="module")
def plan(sym):
    return build_plan(sym.stree)


class TestEffects:
    def test_forward_covers_all_columns_once(self, sym, plan):
        writes = [
            e for e in forward_effects(plan) if e.space == X_SPACE and e.mode == WRITE
        ]
        rows = np.concatenate([e.rows for e in writes])
        assert sorted(rows.tolist()) == list(range(sym.stree.n))

    def test_every_contribution_written_and_read_once(self, plan):
        effects = forward_effects(plan)
        for st in plan.steps:
            if not st.below.size:
                continue
            touching = [e for e in effects if e.space == contrib_space(st.s)]
            assert sorted(e.mode for e in touching) == [READ, WRITE]
            w = next(e for e in touching if e.mode == WRITE)
            assert w.node == st.s
            np.testing.assert_array_equal(w.rows, st.below)

    def test_backward_reads_ancestor_rows(self, plan):
        effects = backward_effects(plan)
        by_node = {}
        for e in effects:
            if e.mode == READ and e.rows.size and e.space == X_SPACE:
                by_node.setdefault(e.node, []).append(e)
        for st in plan.steps:
            if st.below.size:
                reads = by_node[st.s]
                assert any(np.array_equal(e.rows, st.below) for e in reads)

    def test_conflicts_exclude_same_node_and_read_read(self, plan):
        for a, b, overlap in effect_conflicts(forward_effects(plan)):
            assert a.node != b.node
            assert WRITE in (a.mode, b.mode)
            assert overlap.size

    def test_unsorted_rows_still_conflict(self):
        # A write of rows [5, 1] overlaps a read of row 1 whatever the order.
        w = Effect(0, 0, FORWARD, WRITE, X_SPACE, np.array([5, 1]))
        r = Effect(1, 1, FORWARD, READ, X_SPACE, np.array([1]))
        [(a, b, overlap)] = effect_conflicts([w, r])
        assert a is w and b is r
        np.testing.assert_array_equal(overlap, [1])

    @settings(max_examples=300, deadline=None)
    @given(effect_lists)
    def test_sweep_matches_pairwise_reference(self, effects):
        assert_same_conflicts(effect_conflicts(effects), reference_conflicts(effects))

    def test_format_index_set(self):
        assert format_index_set(np.array([], dtype=np.int64)) == "[]"
        assert format_index_set(np.array([3, 4, 5, 9])) == "[3..5, 9]"
        assert format_index_set(np.array([7])) == "[7]"


class TestCertifyClean:
    def test_grid_program_certifies_clean(self, sym, plan):
        cert = certify(plan, sym.stree)
        assert cert.ok, cert.report.render()
        assert cert.nsuper == sym.stree.nsuper
        assert cert.nlevels == int(plan.node_level.max()) + 1

    def test_nrhs_does_not_change_verdict_or_digest(self, sym):
        # Every access spans all right-hand-side columns: solves of any
        # width carry the one certificate of the structure.
        from repro.core.solver import ParallelSparseSolver

        a = grid2d_laplacian(6)
        solver = ParallelSparseSolver(a, p=1).prepare()
        digests = {
            solver.solve(np.ones((a.n, w)), backend="fused")[1].schedule_certificate
            for w in (1, 4)
        }
        assert digests == {fused_certificate_for(solver.symbolic.stree).digest}

    def test_digest_stable_across_rebuilds(self, sym):
        p1 = build_plan(sym.stree)
        p2 = build_plan(sym.stree)
        assert plan_digest(p1) == plan_digest(p2)

    def test_digest_distinguishes_schedules(self, sym, plan):
        other = build_plan(analyze(grid2d_laplacian(5)).stree)
        assert plan_digest(plan) != plan_digest(other)
        # The levels are part of the schedule: moving a node changes it.
        node_level = plan.node_level.copy()
        node_level[0] += 1
        moved = dataclasses.replace(plan, node_level=node_level)
        assert plan_digest(plan) != plan_digest(moved)

    def test_gate_battery_certifies_clean(self):
        report = run_schedule_certification()
        assert report.ok, report.render()


class TestCertifyMutants:
    """Direct mutations beyond the seeded corpus (which has its own test)."""

    def test_missing_node_is_flagged(self, sym, plan):
        program = compile_level_program(plan)
        li, gi = next(
            (li, gi)
            for li, lvl in enumerate(program.levels)
            for gi, g in enumerate(lvl.groups)
            if g.nodes.size
        )
        lvl = program.levels[li]
        g = lvl.groups[gi]
        groups = list(lvl.groups)
        groups[gi] = dataclasses.replace(g, nodes=g.nodes[1:])
        levels = list(program.levels)
        levels[li] = dataclasses.replace(lvl, groups=tuple(groups))
        mutant = dataclasses.replace(program, levels=tuple(levels))
        report = certify_level_program(mutant, plan, sym.stree).report
        assert "schedule-program-partition" in report.rules()

    def test_wrong_scatter_target_is_flagged(self, sym, plan):
        steps = list(plan.steps)
        si = next(
            i for i, st in enumerate(steps)
            if any(idx.size for idx in st.child_scatter)
        )
        st = steps[si]
        scatters = list(st.child_scatter)
        ci = next(i for i, idx in enumerate(scatters) if idx.size)
        idx = scatters[ci].copy()
        idx[0] += 1  # lands the contribution on the wrong parent row
        scatters[ci] = idx
        steps[si] = dataclasses.replace(st, child_scatter=tuple(scatters))
        mutant = dataclasses.replace(plan, steps=steps)
        report = certify(mutant, sym.stree).report
        assert report.rules() & {
            "schedule-scatter-mismatch",
            "schedule-scatter-overlap",
            "schedule-scatter-bounds",
        }, report.render()

    @pytest.mark.parametrize("phase", ["forward", "backward"])
    def test_stale_read_names_the_levels(self, sym, plan, phase):
        # Lift a parent's first child above it: forward, the parent reads
        # the child's contribution a level too early; backward, the child
        # reads its ancestors' rows before the parent has solved them.
        parent = next(st for st in plan.steps if st.children)
        child = parent.children[0]
        node_level = plan.node_level.copy()
        node_level[child] = node_level[parent.s] + 1
        mutant = dataclasses.replace(plan, node_level=node_level)
        report = certify(mutant, sym.stree).report
        stale = [
            f for f in report.by_rule("schedule-stale-read")
            if f.message.startswith(f"[{phase}]")
        ]
        assert stale, report.render()
        lo, hi = int(node_level[parent.s]), int(node_level[child])
        first, second = (lo, hi) if phase == "forward" else (hi, lo)
        assert any(
            f"level {first} runs before level {second}" in f.message for f in stale
        ), report.render()


def _certified(run, monkeypatch, finder):
    """Findings and certificate digests of everything *run* certifies."""
    digests = []
    with monkeypatch.context() as m:
        m.setattr(schedule, "effect_conflicts", finder)
        certify_level_program = schedule.certify_level_program

        def record(*args, **kwargs):
            cert = certify_level_program(*args, **kwargs)
            digests.append(cert.digest)
            return cert

        m.setattr(schedule, "certify_level_program", record)
        report = run()
    return [(f.rule, f.message, f.location) for f in report], digests


_SCHEDULE_MUTANTS = [
    c for c in known_bad_cases() if c.name.startswith(("plan-", "program-"))
]


class TestFindingsParity:
    """The sweep and the pairwise reference agree on every certificate."""

    @pytest.mark.parametrize("case", _SCHEDULE_MUTANTS, ids=lambda c: c.name)
    def test_corpus_mutants(self, case, monkeypatch):
        findings, digests = _certified(case.run, monkeypatch, effect_conflicts)
        assert findings and digests
        assert (findings, digests) == _certified(
            case.run, monkeypatch, reference_conflicts
        )

    def test_gate_battery(self, monkeypatch):
        # grid2d(96) is left to the scale guard: the reference is quadratic.
        monkeypatch.setattr(
            gate,
            "SCHEDULE_BATTERY",
            tuple(e for e in gate.SCHEDULE_BATTERY if e[0] != "grid2d(96)"),
        )
        findings, digests = _certified(
            run_schedule_certification, monkeypatch, effect_conflicts
        )
        assert digests
        assert (findings, digests) == _certified(
            run_schedule_certification, monkeypatch, reference_conflicts
        )


class TestCertificationScale:
    def test_grid2d_96_certifies_clean_within_bound(self):
        # n = 9216: a pairwise conflict search took about 370 s here.
        stree = analyze(grid2d_laplacian(96)).stree
        start = time.perf_counter()
        cert = fused_certificate_for(stree)
        elapsed = time.perf_counter() - start
        assert cert.ok, cert.report.render()
        assert elapsed < 20.0, f"certification took {elapsed:.1f} s"


class TestCachedCertification:
    def test_certificate_for_matches_direct_certification(self, sym):
        clear_exec_caches()
        cert = fused_certificate_for(sym.stree)
        direct = certify(plan_for(sym.stree), sym.stree)
        assert cert.digest == direct.digest
        assert cert.ok


class TestSolveReportCertificate:
    def test_certificate_identical_across_solvers(self):
        from repro.core.solver import ParallelSparseSolver

        a = grid3d_laplacian(4)
        rng = np.random.default_rng(7)
        b = rng.normal(size=(a.n, 4))
        certs = set()
        xs = []
        for _ in range(3):
            solver = ParallelSparseSolver(a, p=1).prepare()
            x, rep = solver.solve(b, backend="fused")
            assert rep.schedule_certificate is not None
            certs.add(rep.schedule_certificate)
            xs.append(x)
        assert len(certs) == 1
        assert np.array_equal(xs[0], xs[1]) and np.array_equal(xs[0], xs[2])

    def test_no_certificate_without_verify_or_off_fused(self):
        from repro.core.solver import ParallelSparseSolver

        a = grid2d_laplacian(5)
        b = np.ones(a.n)
        _, rep = ParallelSparseSolver(a, p=1, verify=False).prepare().solve(
            b, backend="fused"
        )
        assert rep.schedule_certificate is None
        _, rep = ParallelSparseSolver(a, p=1).prepare().solve(b, backend="serial")
        assert rep.schedule_certificate is None

    def test_certified_plan_failure_raises_verification_error(self, sym):
        # Corrupt the cached certificate's report: every later certified
        # call for this structure must fail loudly, not solve anyway.
        clear_exec_caches()
        cert = fused_certificate_for(sym.stree)
        cert.report.add("schedule-stale-read", "seeded for the test", location="test")
        with pytest.raises(VerificationError):
            program_for(sym.stree, certify=True)
        clear_exec_caches()
        assert fused_certificate_for(sym.stree).ok
