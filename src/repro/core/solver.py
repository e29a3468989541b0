"""End-to-end parallel sparse SPD solver.

:class:`ParallelSparseSolver` strings the phases together exactly as the
paper's experimental code does:

1. fill-reducing ordering + symbolic factorization (``repro.symbolic``);
2. numeric supernodal Cholesky (``repro.numeric``), with a modeled
   factorization time for the requested processor count;
3. 2-D -> 1-D redistribution of the factor (``repro.mapping``), with its
   simulated cost;
4. simulated-parallel forward elimination and backward substitution
   (``repro.core.forward`` / ``repro.core.backward``).

``solve`` returns the solution in the *original* ordering plus a
:class:`SolveReport` containing every quantity Figure 7 tabulates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.verify.findings import Report

from repro.core.backward import parallel_backward
from repro.core.factor_model import parallel_factor_time, serial_factor_time
from repro.core.forward import parallel_forward
from repro.machine.events import SimResult
from repro.machine.presets import cray_t3d
from repro.machine.spec import MachineSpec
from repro.mapping.redistribution import total_redistribution_time
from repro.mapping.subtree_subcube import ProcSet, subtree_to_subcube
from repro.numeric.supernodal import SupernodalFactor, cholesky_supernodal
from repro.sparse.csc import SymCSC
from repro.symbolic.analyze import SymbolicFactor, analyze
from repro.util.validation import check_power_of_two, require


@dataclass
class TrisolveRun:
    """Timing and verification data for one triangular-solve phase."""

    seconds: float
    flops: int
    sim: SimResult | None = None

    @property
    def mflops(self) -> float:
        return self.flops / self.seconds / 1e6 if self.seconds > 0 else float("inf")


@dataclass
class SolveReport:
    """Everything the paper's Figure 7 reports for one (matrix, p, NRHS).

    ``backend`` records where the triangular-solve seconds came from:
    ``"sim"`` (simulated machine makespans, the default), or the real
    wall-clock backends ``"serial"`` / ``"threads"`` / ``"fused"`` of
    :mod:`repro.exec`.

    ``schedule_certificate`` (``threads`` or ``fused`` backend with
    ``verify=True``) is the determinism certificate of the statically
    certified execution plan: a canonical hash over the schedule's
    reduction orders and task topology.  It is a pure function of the
    symbolic structure — two reports with equal certificates ran
    schedule-equivalent (hence bitwise-identical) solves, for *any*
    worker count and either real backend, without either run having to
    be repeated.
    """

    n: int
    p: int
    nrhs: int
    factor_seconds: float
    factor_flops: float
    redistribute_seconds: float
    forward: TrisolveRun
    backward: TrisolveRun
    residual: float | None = None
    backend: str = "sim"
    workers: int | None = None
    schedule_certificate: str | None = None

    @property
    def fbsolve_seconds(self) -> float:
        """Total forward+backward time (the paper's "FBsolve time")."""
        return self.forward.seconds + self.backward.seconds

    @property
    def fbsolve_mflops(self) -> float:
        total = self.forward.flops + self.backward.flops
        return total / self.fbsolve_seconds / 1e6 if self.fbsolve_seconds > 0 else float("inf")

    @property
    def factor_mflops(self) -> float:
        return self.factor_flops / self.factor_seconds / 1e6 if self.factor_seconds else 0.0

    @property
    def redistribution_ratio(self) -> float:
        """Redistribution time over FBsolve time (paper: <= 0.9, avg ~0.5)."""
        return self.redistribute_seconds / self.fbsolve_seconds if self.fbsolve_seconds else 0.0


@dataclass
class ParallelSparseSolver:
    """Direct solver for sparse SPD systems on the simulated machine.

    Parameters
    ----------
    a :
        The SPD coefficient matrix.
    p :
        Number of (simulated) processors; a power of two.
    spec :
        Machine parameters; defaults to the Cray-T3D-like preset.
    b :
        Block size of the block-cyclic supernode partitioning.
    ordering :
        Fill-reducing ordering method (see :func:`repro.ordering.order`).
    variant :
        "column" or "row" priority for the pipelined forward solver.
    relax :
        Supernode amalgamation slack (see
        :func:`repro.symbolic.find_supernodes`).
    verify :
        When true (the default), :meth:`prepare` runs the cheap static
        invariant checkers of :mod:`repro.verify` over the input matrix,
        the symbolic factorization, and the subtree-to-subcube mapping,
        raising :class:`repro.verify.VerificationError` before any
        simulated run can consume a bad structure.
    """

    a: SymCSC
    p: int = 1
    spec: MachineSpec = field(default_factory=cray_t3d)
    b: int = 8
    ordering: str = "nested_dissection"
    variant: str = "column"
    relax: int = 0
    factor_time_mode: str = "model"  # "model" (closed form) | "simulate"
    verify: bool = True

    # Filled by prepare():
    symbolic: SymbolicFactor | None = None
    factor: SupernodalFactor | None = None
    assign: list[ProcSet] | None = None
    _factor_seconds: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check_power_of_two(self.p, "p")

    # ------------------------------------------------------------------
    def prepare(self) -> "ParallelSparseSolver":
        """Run ordering, symbolic analysis, numeric factorization, mapping.

        With ``verify=True`` every structure produced here is passed
        through the static invariant checkers before the solver accepts
        it (CSC well-formedness, etree postorder, supernode chains,
        subcube containment, block-cyclic layout conformance).
        """
        self.symbolic = analyze(self.a, method=self.ordering, relax=self.relax)
        self.factor = cholesky_supernodal(self.symbolic)
        self.assign = subtree_to_subcube(self.symbolic.stree, self.p)
        if self.verify:
            self.verify_prepared().raise_if_errors(
                "solver structural verification failed"
            )
        return self

    def verify_prepared(self) -> "Report":
        """Run the static invariant checkers over the prepared structures.

        Returns the :class:`repro.verify.Report`; callers that want
        fail-fast semantics use ``.raise_if_errors()`` (which
        :meth:`prepare` does when ``verify=True``).
        """
        from repro.verify.invariants import (
            check_assignment,
            check_block_cyclic_conformance,
            check_csc,
            check_symbolic,
        )

        sym, _, assign = self._require_prepared()
        report = check_csc(self.a, name="A")
        report.extend(check_symbolic(sym, name="symbolic"))
        report.extend(check_assignment(sym.stree, assign, self.p, name="assign"))
        report.extend(
            check_block_cyclic_conformance(sym.stree, assign, self.b, name="layout")
        )
        return report

    def _require_prepared(self) -> tuple[SymbolicFactor, SupernodalFactor, list[ProcSet]]:
        require(
            self.symbolic is not None and self.factor is not None and self.assign is not None,
            "call prepare() before solve()",
        )
        return self.symbolic, self.factor, self.assign  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def factorization_seconds(self) -> float:
        """Factorization time on p processors (serial sum at p=1).

        ``factor_time_mode="model"`` uses the closed-form critical-path
        model; ``"simulate"`` runs the full 2-D block-cyclic task graph
        through the event simulator (slower, higher fidelity).  The result
        is cached per solver instance.
        """
        if self._factor_seconds is not None:
            return self._factor_seconds
        sym, _, assign = self._require_prepared()
        if self.p == 1:
            out = serial_factor_time(self.spec, sym.stree)
        elif self.factor_time_mode == "simulate":
            from repro.core.parallel_factor import simulated_factor_time

            out, _ = simulated_factor_time(
                self.spec, sym.stree, assign, b=self.b, nproc=self.p
            )
        elif self.factor_time_mode == "model":
            out = parallel_factor_time(self.spec, sym.stree, assign, b=self.b)
        else:
            raise ValueError(
                f"factor_time_mode must be 'model' or 'simulate', got "
                f"{self.factor_time_mode!r}"
            )
        self._factor_seconds = out
        return out

    def redistribution_seconds(self) -> float:
        """Simulated 2-D -> 1-D factor redistribution time."""
        sym, _, assign = self._require_prepared()
        return total_redistribution_time(self.spec, sym.stree, assign)

    # ------------------------------------------------------------------
    def solve(
        self,
        bvec: np.ndarray,
        *,
        check: bool = True,
        refine: int = 0,
        backend: str = "sim",
        workers: int | None = None,
    ) -> tuple[np.ndarray, SolveReport]:
        """Solve ``A x = b`` and report per-phase times.

        *bvec* may be a vector or an ``(n, nrhs)`` block.  The returned
        solution is in the original (pre-permutation) ordering.
        ``refine`` adds that many steps of iterative refinement
        (``x += A^{-1}(b - A x)``); each step re-runs both triangular
        solves, and their time is accumulated in the report.

        ``backend`` selects how the triangular solves run and what their
        reported seconds mean:

        * ``"sim"`` (default) — the paper's SPMD solvers walked through
          the machine simulator; seconds are simulated makespans.
        * ``"serial"`` — the serial supernodal solvers of
          :mod:`repro.numeric.trisolve`; seconds are measured wall-clock.
        * ``"threads"`` — the shared-memory engine of :mod:`repro.exec`
          with ``workers`` threads (default: one per core, capped);
          seconds are measured wall-clock.  Results are bitwise
          reproducible across worker counts.  With ``verify=True`` (the
          solver default) the execution plan is first put through the
          static schedule certifier — race-freedom, exactly-once
          coverage, canonical reduction order — and the resulting
          determinism certificate is recorded on the report
          (``schedule_certificate``).  Certification is memoized per
          structure, so only the first solve of a structure pays for the
          proof: a sorted sweep over the plan's read/write effects,
          ``O(R log R + P)`` in effect row entries ``R`` and overlapping
          row entries ``P`` — near-linear in the factor's size.
        * ``"fused"`` — the vectorized level program of
          :mod:`repro.exec.fused`: whole elimination-tree levels batched
          into a handful of array ops, no per-node Python dispatch, no
          per-node allocations.  Bitwise identical to ``serial`` and
          ``threads``.  With ``verify=True`` the compiled program is
          certified against its plan
          (:func:`repro.verify.schedule.certify_level_program`) and the
          report carries the *same* determinism certificate the
          ``threads`` backend earns — one structure, one certificate.
          The first certified fused solve of a structure pays for this
          proof once, at the same near-linear cost; measured on a 2-core
          x86-64 box it takes about 0.05 s for ``fe_mesh_3d(10)``
          (n = 1000) and about 0.9 s for ``grid2d_laplacian(96)``
          (n = 9216).

        Factorization and redistribution seconds always come from the
        machine model — only the repo's real hot path (the solves) is
        measured for now.
        """
        sym, factor, assign = self._require_prepared()
        require(backend in ("sim", "serial", "threads", "fused"),
                f"backend must be 'sim', 'serial', 'threads' or 'fused', "
                f"got {backend!r}")
        require(workers is None or backend == "threads",
                "workers is only meaningful with backend='threads'")
        bvec = np.asarray(bvec, dtype=np.float64)
        squeeze = bvec.ndim == 1
        bmat = bvec[:, None] if squeeze else bvec
        require(bmat.shape[0] == self.a.n, "rhs size mismatch")
        require(bmat.shape[1] > 0, "rhs must have at least one column")
        require(refine >= 0, "refine must be >= 0")
        nrhs = bmat.shape[1]

        x, fwd_seconds, bwd_seconds, fwd_sim, bwd_sim = self._one_solve(
            bmat, backend, workers
        )
        for _ in range(refine):
            from repro.sparse.ops import matvec

            residual = bmat - matvec(self.a, x)
            dx, fs, bs, _, _ = self._one_solve(residual, backend, workers)
            x = x + dx
            fwd_seconds += fs
            bwd_seconds += bs

        solve_flops = sym.stree.solve_flops(nrhs) * (1 + refine)
        report = SolveReport(
            n=self.a.n,
            p=self.p,
            nrhs=nrhs,
            factor_seconds=self.factorization_seconds(),
            factor_flops=sym.stree.factor_flops(),
            redistribute_seconds=self.redistribution_seconds(),
            forward=TrisolveRun(seconds=fwd_seconds, flops=solve_flops, sim=fwd_sim),
            backward=TrisolveRun(seconds=bwd_seconds, flops=solve_flops, sim=bwd_sim),
            backend=backend,
            workers=workers,
        )
        if self.verify and backend in ("threads", "fused"):
            from repro.exec import certificate_for, fused_certificate_for

            cert = (fused_certificate_for if backend == "fused"
                    else certificate_for)(sym.stree)
            report.schedule_certificate = cert.digest
        if check:
            from repro.sparse.ops import relative_residual

            report.residual = relative_residual(self.a, x, bmat)
        return (x[:, 0] if squeeze else x), report

    # ------------------------------------------------------------------
    def serving(
        self,
        *,
        backend: str = "fused",
        max_batch: int = 16,
        max_wait: float = 2e-3,
        idle_wait: float | None = -1.0,
        max_queue: int | None = None,
        clock=None,
        workers: int | None = None,
        key: str = "default",
    ):
        """A request-coalescing solve service over this prepared solver.

        Context manager: yields a started
        :class:`~repro.serve.service.SolveService` with this solver
        registered under *key* (default ``"default"``), and drains and
        closes it on exit.  ``submit()`` single- or few-column requests
        from any thread; the service packs concurrent requests into one
        multi-RHS solve on the cached factor, and every response is
        bitwise identical to the corresponding standalone
        ``solve(..., backend=backend)`` solution::

            with solver.serving(max_batch=16) as svc:
                fut = svc.submit(b)          # b: (n,) or (n, w)
                x = fut.result()

        Pass a :class:`~repro.serve.clock.FakeClock` as *clock* to run
        the service in deterministic manual-pump mode (tests).
        """
        from contextlib import contextmanager

        from repro.serve import SolveService

        @contextmanager
        def _serving():
            service = SolveService(
                backend=backend,
                max_batch=max_batch,
                max_wait=max_wait,
                idle_wait=idle_wait,
                max_queue=max_queue,
                clock=clock,
                workers=workers,
            )
            service.register(key, self)
            try:
                yield service
            finally:
                service.close()

        return _serving()

    def _one_solve(
        self, bmat: np.ndarray, backend: str = "sim", workers: int | None = None
    ) -> tuple[np.ndarray, float, float, SimResult | None, SimResult | None]:
        """One forward+backward pass; returns x (original order) and times."""
        sym, factor, assign = self._require_prepared()
        b_perm = sym.perm.apply_to_vector(bmat)
        if backend == "sim":
            y, fwd_sim = parallel_forward(
                factor, assign, self.spec, b_perm, b=self.b, variant=self.variant,
                nproc=self.p,
            )
            x_perm, bwd_sim = parallel_backward(
                factor, assign, self.spec, y, b=self.b, nproc=self.p
            )
            x = sym.perm.unapply_to_vector(x_perm)
            return x, fwd_sim.makespan, bwd_sim.makespan, fwd_sim, bwd_sim

        from time import perf_counter

        if backend == "serial":
            from repro.numeric.trisolve import backward_supernodal, forward_supernodal

            t0 = perf_counter()
            y = forward_supernodal(factor, b_perm)
            t1 = perf_counter()
            x_perm = backward_supernodal(factor, y)
            t2 = perf_counter()
        elif backend == "fused":
            from repro.exec import backward_fused, forward_fused
            from repro.exec.cache import program_for

            # Cached per structure; with verify=True the compiled level
            # program is certified against its plan before first use.
            program = program_for(sym.stree, certify=self.verify)
            t0 = perf_counter()
            y = forward_fused(factor, b_perm, program=program)
            t1 = perf_counter()
            x_perm = backward_fused(factor, y, program=program)
            t2 = perf_counter()
        else:  # threads
            from repro.exec import backward_exec, forward_exec, plan_for

            # Cached across repeated solves; with verify=True the plan is
            # also statically certified (once per structure) before any
            # task is dispatched.
            plan = plan_for(sym.stree, certify=self.verify)
            t0 = perf_counter()
            y = forward_exec(factor, b_perm, workers=workers, plan=plan)
            t1 = perf_counter()
            x_perm = backward_exec(factor, y, workers=workers, plan=plan)
            t2 = perf_counter()
        x = sym.perm.unapply_to_vector(x_perm)
        return x, t1 - t0, t2 - t1, None, None
