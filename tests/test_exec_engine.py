"""Cross-validation battery and fault/edge tests for the real execution layer.

Every matrix in the shared fixtures must solve on the fused level program
exactly as the serial supernodal solvers do (bitwise) and agree with the
SPMD-simulated solvers to 1e-10; the solver's backend selection and
right-hand-side checks must refuse what they cannot run; and the layer
must fail cleanly — never return a wrong answer — on bad inputs.
"""

import numpy as np
import pytest

from repro.core.solver import ParallelSparseSolver
from repro.exec import (
    backward_fused,
    clear_exec_caches,
    forward_fused,
    prepare_factor,
    solve_fused,
)
from repro.exec import fused as fused_mod
from repro.numeric.supernodal import SupernodalFactor, cholesky_supernodal
from repro.numeric.trisolve import (
    backward_supernodal,
    forward_supernodal,
    solve_supernodal,
)
from repro.sparse.build import from_triplets
from repro.symbolic.analyze import analyze
from repro.symbolic.etree import NO_PARENT
from repro.symbolic.stree import Supernode, SupernodalTree


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_exec_caches()
    yield
    clear_exec_caches()


@pytest.fixture(scope="module", params=["grid8", "grid3d5", "fe9", "rand60"])
def factored(request):
    a = request.getfixturevalue(request.param)
    sym = analyze(a)
    return a, sym, cholesky_supernodal(sym)


class TestCrossValidation:
    def test_matches_serial_supernodal(self, factored, rng):
        a, sym, factor = factored
        b = rng.normal(size=(a.n, 7))
        assert np.array_equal(solve_fused(factor, b), solve_supernodal(factor, b))

    def test_forward_backward_match_serial(self, factored, rng):
        a, sym, factor = factored
        b = rng.normal(size=(a.n, 3))
        assert np.array_equal(forward_fused(factor, b), forward_supernodal(factor, b))
        assert np.array_equal(
            backward_fused(factor, b), backward_supernodal(factor, b)
        )

    def test_vector_rhs_round_trip(self, factored, rng):
        a, sym, factor = factored
        v = rng.normal(size=a.n)
        x = solve_fused(factor, v)
        assert x.shape == (a.n,)
        assert np.array_equal(x, solve_supernodal(factor, v))

    def test_matches_spmd_simulated_numerics(self, factored, rng):
        a, sym, factor = factored
        solver = ParallelSparseSolver(a, p=4)
        solver.symbolic = sym
        solver.factor = factor
        from repro.mapping.subtree_subcube import subtree_to_subcube

        solver.assign = subtree_to_subcube(sym.stree, 4)
        b = rng.normal(size=(a.n, 4))
        x_sim, rep_sim = solver.solve(b, backend="sim")
        x_fused, rep_fused = solver.solve(b, backend="fused")
        assert np.allclose(x_fused, x_sim, atol=1e-10)
        assert rep_sim.backend == "sim" and rep_fused.backend == "fused"
        assert rep_fused.forward.sim is None and rep_sim.forward.sim is not None


class TestSolverBackends:
    def test_serial_backend_reports_wall_clock(self, prepared_grid12, rng):
        b = rng.normal(size=(prepared_grid12.a.n, 2))
        x, rep = prepared_grid12.solve(b, backend="serial")
        assert rep.backend == "serial"
        assert rep.forward.sim is None and rep.backward.sim is None
        assert rep.fbsolve_seconds > 0
        assert rep.residual < 1e-12

    def test_fused_backend_with_refinement(self, prepared_grid12, rng):
        b = rng.normal(size=prepared_grid12.a.n)
        x, rep = prepared_grid12.solve(b, backend="fused", refine=1)
        assert rep.residual < 1e-13

    def test_unknown_backend_rejected(self, prepared_grid12, rng):
        for backend in ("mpi", "threads"):
            with pytest.raises(ValueError, match="backend"):
                prepared_grid12.solve(
                    rng.normal(size=prepared_grid12.a.n), backend=backend
                )

    def test_workers_require_threads_backend(self, prepared_grid12, rng):
        # No backend of solve() or serving() takes a workers argument.
        b = rng.normal(size=prepared_grid12.a.n)
        for backend in ("sim", "serial", "fused"):
            with pytest.raises(TypeError, match="workers"):
                prepared_grid12.solve(b, backend=backend, workers=2)
        with pytest.raises(TypeError, match="workers"):
            prepared_grid12.serving(workers=2)

    @pytest.mark.parametrize("backend", ["sim", "serial", "fused"])
    def test_bad_rhs_rejected_with_typed_errors(self, prepared_grid12, backend):
        n = prepared_grid12.a.n
        for bad in (np.full(n, np.nan), np.r_[np.zeros(n - 1), -np.inf]):
            with pytest.raises(ValueError, match="non-finite"):
                prepared_grid12.solve(bad, backend=backend)
        for bad in (np.ones((n, 2)) * (1 + 1j), np.array([None] * n)):
            with pytest.raises(TypeError, match="real"):
                prepared_grid12.solve(bad, backend=backend)

    def test_integer_rhs_still_accepted(self, prepared_grid12):
        b = np.arange(prepared_grid12.a.n)
        x, rep = prepared_grid12.solve(b, backend="fused")
        x_ref, _ = prepared_grid12.solve(b.astype(np.float64), backend="fused")
        assert np.array_equal(x, x_ref) and rep.residual < 1e-12


class TestEdgeCases:
    def test_n1_system(self):
        a = from_triplets(1, np.array([0]), np.array([0]), np.array([4.0]))
        sym = analyze(a)
        factor = cholesky_supernodal(sym)
        x = solve_fused(factor, np.array([8.0]))
        assert np.allclose(x, [2.0])

    def test_empty_supernode_is_tolerated(self):
        # A hand-built factor containing a zero-width supernode: the fused
        # program must skip it without touching the solution.
        stree = SupernodalTree(
            supernodes=[
                Supernode(index=0, col_lo=0, col_hi=1, rows=np.array([0])),
                Supernode(index=1, col_lo=1, col_hi=1, rows=np.array([], dtype=np.int64)),
                Supernode(index=2, col_lo=1, col_hi=2, rows=np.array([1])),
            ],
            parent=np.array([NO_PARENT, NO_PARENT, NO_PARENT]),
        )
        factor = SupernodalFactor(
            stree=stree,
            blocks=[np.array([[2.0]]), np.zeros((0, 0)), np.array([[4.0]])],
        )
        x = solve_fused(factor, np.array([2.0, 8.0]))
        assert np.allclose(x, [0.5, 0.5])

    def test_multi_rhs_wide_block(self, sym_grid8, rng):
        factor = cholesky_supernodal(sym_grid8)
        b = rng.normal(size=(sym_grid8.n, 16))
        assert np.array_equal(solve_fused(factor, b), solve_supernodal(factor, b))

    def test_rhs_shape_mismatch_rejected(self, sym_grid8, rng):
        factor = cholesky_supernodal(sym_grid8)
        with pytest.raises(ValueError, match="rows"):
            solve_fused(factor, rng.normal(size=3))
        with pytest.raises(ValueError, match="vector"):
            solve_fused(factor, rng.normal(size=(sym_grid8.n, 2, 2)))


class TestFaults:
    def test_singular_diagonal_raises_value_error(self, sym_grid8, rng):
        base = cholesky_supernodal(sym_grid8)
        blocks = [blk.copy() for blk in base.blocks]
        blocks[0][0, 0] = 0.0
        broken = SupernodalFactor(stree=base.stree, blocks=blocks)
        with pytest.raises(ValueError, match="singular"):
            solve_fused(broken, rng.normal(size=sym_grid8.n))

    def test_nonfinite_diagonal_raises_value_error(self, sym_grid8, rng):
        base = cholesky_supernodal(sym_grid8)
        blocks = [blk.copy() for blk in base.blocks]
        blocks[-1][0, 0] = np.nan
        broken = SupernodalFactor(stree=base.stree, blocks=blocks)
        with pytest.raises(ValueError, match="singular or non-finite"):
            prepare_factor(broken)

    @pytest.mark.parametrize("workers", [0, -1, -7])
    def test_nonpositive_workers_rejected(self, sym_grid8, rng, workers):
        factor = cholesky_supernodal(sym_grid8)
        with pytest.raises(TypeError, match="workers"):
            solve_fused(factor, rng.normal(size=sym_grid8.n), workers=workers)

    @pytest.mark.parametrize("workers", [1.5, "2", True])
    def test_non_integral_workers_rejected(self, prepared_grid12, rng, workers):
        with pytest.raises(TypeError, match="workers"):
            prepared_grid12.solve(
                rng.normal(size=prepared_grid12.a.n), backend="fused", workers=workers
            )

    def test_raising_kernel_inside_engine_propagates(self, sym_grid8, rng, monkeypatch):
        # sym_grid8 has panels wider than one column, so the level loop
        # reaches the dtrsm call; the failure must surface, and the
        # leased workspace must go back to the arena for the next solve.
        factor = cholesky_supernodal(sym_grid8)
        b = rng.normal(size=(sym_grid8.n, 2))

        def boom(*args, **kwargs):
            raise RuntimeError("kernel failure injected")

        with monkeypatch.context() as patch:
            patch.setattr(fused_mod, "dtrsm", boom)
            with pytest.raises(RuntimeError, match="kernel failure injected"):
                forward_fused(factor, b)
        assert prepare_factor(factor).arena.stats()["free"] == 1
        assert np.array_equal(forward_fused(factor, b), forward_supernodal(factor, b))

    def test_plan_rejects_rows_not_contained_in_parent(self):
        # Child below-row 2 does not appear in its parent's rows [1].
        stree = SupernodalTree(
            supernodes=[
                Supernode(index=0, col_lo=0, col_hi=1, rows=np.array([0, 2])),
                Supernode(index=1, col_lo=1, col_hi=2, rows=np.array([1])),
                Supernode(index=2, col_lo=2, col_hi=3, rows=np.array([2])),
            ],
            parent=np.array([1, NO_PARENT, NO_PARENT]),
        )
        from repro.exec import build_plan

        with pytest.raises(ValueError, match="assembly tree"):
            build_plan(stree)


class TestPreparedFactorCache:
    def test_prepare_is_cached_per_factor(self, sym_grid8):
        factor = cholesky_supernodal(sym_grid8)
        assert prepare_factor(factor) is prepare_factor(factor)

    def test_plan_reused_across_solves(self, sym_grid8, rng):
        from repro.exec import exec_cache_stats

        factor = cholesky_supernodal(sym_grid8)
        for _ in range(3):
            solve_fused(factor, rng.normal(size=sym_grid8.n))
        stats = exec_cache_stats()
        assert stats["plan_misses"] == 1 and stats["program_misses"] == 1
        assert stats["program_hits"] >= 2
