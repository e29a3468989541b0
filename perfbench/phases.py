"""The three phases every workload runs, each a different kind of user.

* :func:`cold_pass` — one caller factors new systems and wants the
  first answer: ``ParallelSparseSolver(a).prepare()`` plus the first
  ``solve(backend="fused")``, with the default ``verify=True``.
* :class:`Stream` — one caller re-solves a prepared system in a closed
  loop, interleaving NRHS=1 and NRHS=16 ``solve()`` calls.
* :func:`open_loop` — independent requests arrive on a Poisson schedule
  at a :class:`~repro.serve.SolveService` holding two systems;
  :func:`capacity` searches for the highest rate the service sustains.

Only public entry points of ``repro`` are called, and layers are timed
from outside by timing the calls into them.  Every answer is checked
outside the timed regions and every failure lands in the
:class:`~harness.Tally`.
"""

from __future__ import annotations

import gc
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse.linalg as spla

from harness import Tally, Tracer, pct, same
from repro.core.solver import ParallelSparseSolver
from repro.exec import (
    backward_fused,
    forward_fused,
    fused_certificate_for,
    fused_panels_for,
    plan_for,
    prepare_factor,
    program_for,
)
from repro.mapping import subtree_to_subcube
from repro.numeric import cholesky_supernodal
from repro.ordering import order
from repro.serve import QueueFullError, SolveService
from repro.sparse import fe_mesh_2d, fe_mesh_3d, relative_residual
from repro.symbolic import analyze

#: Relative residual every checked solution must reach.
RESIDUAL_TOL = 1e-8

#: Requests per capacity-search window.
PROBE_REQUESTS = 500

#: p99 request-latency limit of the capacity search, in seconds.
LATENCY_LIMIT = 0.100

#: The capacity search stops once its bracket is this tight (5%).
SEARCH_RESOLUTION = 1.05

#: Factor by which the search widens its bracket.
SEARCH_STEP = 1.15

#: Probes the bracketing may spend before it gives up looking for a miss.
MAX_PROBES = 30

GENERATORS = {"fe2d": fe_mesh_2d, "fe3d": fe_mesh_3d}


@dataclass(frozen=True)
class Mesh:
    """An irregular FE mesh of the paper's 2-D or 3-D class."""

    kind: str
    k: int

    def build(self, seed: int):
        return GENERATORS[self.kind](self.k, seed=seed)


# --------------------------------------------------------------------- set-up
def _traced_prepare(solver: ParallelSparseSolver, tracer: Tracer, rid) -> None:
    """``prepare()`` and the first solve's lazy work, one public call at a time.

    Same calls as ``solver.prepare()`` followed by the compile and
    certification the first fused solve triggers, so each layer gets
    its own span.
    """
    with tracer.span("symbolic.analyze", rid):
        sym = analyze(solver.a, method=solver.ordering, relax=solver.relax)
    with tracer.span("numeric.factor", rid):
        factor = cholesky_supernodal(sym)
    with tracer.span("mapping.subtree_to_subcube", rid):
        assign = subtree_to_subcube(sym.stree, solver.p)
    solver.symbolic, solver.factor, solver.assign = sym, factor, assign
    with tracer.span("verify.invariants", rid):
        solver.verify_prepared().raise_if_errors("solver structural verification failed")
    with tracer.span("exec.compile", rid):
        plan_for(sym.stree)
        program_for(sym.stree)
        prepare_factor(factor)
        fused_panels_for(factor)
    with tracer.span("verify.certify", rid):
        fused_certificate_for(sym.stree).report.raise_if_errors(
            "fused level program failed schedule certification"
        )


def cold_pass(matrices, rhs, tag, tracer: Tracer,
              tally: Tally) -> tuple[float, list[ParallelSparseSolver]]:
    """Prepare every matrix from scratch and make its first fused solve.

    Returns the summed wall seconds and the new solvers.  New solvers
    mean new symbolic structures, so the structure-keyed caches of
    :mod:`repro.exec` miss exactly as they do for a new system.
    """
    solvers = []
    total = 0.0
    gc.collect()
    for i, (a, b) in enumerate(zip(matrices, rhs)):
        rid = f"{tag}.system{i}"
        if tracer.enabled:
            with tracer.span("ordering.order", rid):
                order(a)
        t0 = time.perf_counter()
        with tracer.span("setup.system", rid):
            solver = ParallelSparseSolver(a)
            if tracer.enabled:
                _traced_prepare(solver, tracer, rid)
            else:
                solver.prepare()
            with tracer.span("core.solve", rid):
                x, report = solver.solve(b, backend="fused")
        total += time.perf_counter() - t0
        x_serial, _ = solver.solve(b, backend="serial", check=False)
        tally.record(report.residual <= RESIDUAL_TOL, "setup: residual")
        tally.record(same(x, x_serial), "setup: fused != serial")
        solvers.append(solver)
    return total, solvers


#: Small meshes of both classes, set up once before anything is timed.
WARM_UP = (Mesh("fe2d", 8), Mesh("fe3d", 4))


def warm_up(tally: Tally) -> None:
    """One untimed cold pass on small meshes of both classes.

    It pays the process's one-time costs: the first import of the
    modules ``repro`` loads lazily (the verifier and the certifier) and
    the first call of each kernel.  No timed pass, and neither side of
    the tracing overhead, then carries them.
    """
    matrices = [m.build(0) for m in WARM_UP]
    rhs = [np.ones(a.n) for a in matrices]
    cold_pass(matrices, rhs, "warmup", Tracer(False), tally)


def setup_layers(tracer: Tracer, solvers, passes: int) -> dict[str, float]:
    """Per-layer set-up metrics: per-pass sums, as setup_s is."""

    def per_pass(name: str) -> float:
        return sum(s.seconds for s in tracer.by_name(name)) / passes

    order_s = per_pass("ordering.order")
    factor_s = per_pass("numeric.factor")
    factor_flops = sum(s.symbolic.stree.factor_flops() for s in solvers)
    return {
        "ordering.order_s": order_s,
        "symbolic.analyze_self_s": per_pass("symbolic.analyze") - order_s,
        "symbolic.nnz_l": float(sum(s.symbolic.factor_nnz for s in solvers)),
        "symbolic.supernodes": float(sum(s.symbolic.stree.nsuper for s in solvers)),
        "numeric.factor_s": factor_s,
        "numeric.factor_mflops": factor_flops / factor_s / 1e6,
        "verify.invariants_s": per_pass("verify.invariants"),
        "verify.certify_s": per_pass("verify.certify"),
        "exec.compile_s": per_pass("exec.compile"),
    }


# --------------------------------------------------------------------- stream
class Stream:
    """Closed loop: one caller, seeded interleaving of NRHS=1 and NRHS=16.

    ``solve()`` runs with its default arguments (``check=True``), because
    users pay for that check.  Every answer is compared bitwise with the
    ``serial`` oracle for its right-hand side, outside the timed call.
    A run calls :meth:`run_slice` several times, so its samples come
    from several separate stretches of time.
    """

    WIDTHS = (1, 16)

    def __init__(self, solver: ParallelSparseSolver, rng, tally: Tally):
        self.solver = solver
        self.rng = rng
        n = solver.a.n
        self.pool = {
            1: [rng.standard_normal(n) for _ in range(16)],
            16: [rng.standard_normal((n, 16)) for _ in range(4)],
        }
        self.oracle = {
            w: [solver.solve(b, backend="serial", check=False)[0] for b in bs]
            for w, bs in self.pool.items()
        }
        for w in self.WIDTHS:  # the first call at each width leases its workspace
            x, _ = solver.solve(self.pool[w][0], backend="fused")
            tally.record(same(x, self.oracle[w][0]), "stream: fused != serial")
        self.latency: dict[int, list[float]] = {w: [] for w in self.WIDTHS}
        self.calls = 0
        self.probes = {k: {w: [] for w in self.WIDTHS}
                       for k in ("forward", "backward", "check", "model", "perm")}

    def run_slice(self, seconds: float, min_calls: int, tracer: Tracer, tally: Tally) -> None:
        """Solve until *seconds* pass and each width has had *min_calls* calls."""
        calls = dict.fromkeys(self.WIDTHS, 0)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or min(calls.values()) < min_calls:
            for w in self.rng.permutation([1] * 8 + [16] * 8):
                w = int(w)
                calls[w] += 1
                self.calls += 1
                j = int(self.rng.integers(len(self.pool[w])))
                b = self.pool[w][j]
                with tracer.span("core.solve", self.calls):
                    t0 = time.perf_counter()
                    try:
                        x, report = self.solver.solve(b, backend="fused")
                    except Exception as exc:  # counted as a failed call; the loop goes on
                        tally.fail(f"stream: {type(exc).__name__}")
                        continue
                    t1 = time.perf_counter()
                self.latency[w].append(t1 - t0)
                ok = same(x, self.oracle[w][j]) and report.residual <= RESIDUAL_TOL
                tally.record(ok, "stream: wrong answer")
                if tracer.enabled:
                    self._probe(b, x, report, t1 - t0, w, self.calls, tracer)

    def _probe(self, b, x, report, solve_s, w, rid, tracer) -> None:
        """Time the layers under one ``solve()`` by calling each directly.

        The sweeps run on the same right-hand side as the ``solve()``
        call; ``core`` is the solve's wall time minus the sweeps it
        reported, split into the residual check, the factor and
        redistribution model, and the remainder (permutation and
        argument handling).
        """
        solver = self.solver
        sym, factor = solver.symbolic, solver.factor
        b_perm = sym.perm.apply_to_vector(b if b.ndim == 2 else b[:, None])
        program = program_for(sym.stree)
        with tracer.span("exec.forward", rid):
            t0 = time.perf_counter()
            y = forward_fused(factor, b_perm, program=program)
            t1 = time.perf_counter()
        with tracer.span("exec.backward", rid):
            backward_fused(factor, y, program=program)
            t2 = time.perf_counter()
        with tracer.span("core.check", rid):
            relative_residual(solver.a, x, b)
            t3 = time.perf_counter()
        with tracer.span("core.model", rid):
            solver.factorization_seconds()
            solver.redistribution_seconds()
            t4 = time.perf_counter()
        p = self.probes
        p["forward"][w].append(t1 - t0)
        p["backward"][w].append(t2 - t1)
        p["check"][w].append(t3 - t2)
        p["model"][w].append(t4 - t3)
        sweeps = report.forward.seconds + report.backward.seconds
        p["perm"][w].append(solve_s - sweeps - (t3 - t2) - (t4 - t3))

    def layers(self) -> dict[str, float]:
        stree = self.solver.symbolic.stree
        factor_bytes = 8 * sum(blk.size for blk in self.solver.factor.blocks)
        p = self.probes
        out: dict[str, float] = {}
        for w in self.WIDTHS:
            fwd = float(np.median(p["forward"][w]))
            bwd = float(np.median(p["backward"][w]))
            flops = 2 * stree.solve_flops(w)
            out[f"exec.forward_ms.w{w}"] = fwd * 1e3
            out[f"exec.backward_ms.w{w}"] = bwd * 1e3
            out[f"exec.flops.w{w}"] = float(flops)
            out[f"exec.solve_mflops.w{w}"] = flops / (fwd + bwd) / 1e6
            # Computed, not measured: each sweep reads every factor
            # trapezoid once and reads and writes the n x w block once.
            out[f"exec.bytes_computed.w{w}"] = 2.0 * (factor_bytes + 2 * 8 * stree.n * w)
        for part in ("perm", "check", "model"):
            both = p[part][1] + p[part][16]
            out[f"core.{part}_ms"] = float(np.median(both)) * 1e3
        return out


# --------------------------------------------------------------------- serve
@dataclass
class Target:
    """One registered system: its solver, request share and answer pool."""

    key: str
    solver: ParallelSparseSolver
    share: float
    pool: list[np.ndarray] = field(default_factory=list)
    expected: list[np.ndarray] = field(default_factory=list)


@dataclass
class Window:
    """One open-loop arrival window against a fresh service."""

    due: np.ndarray
    submitted: np.ndarray
    done: np.ndarray
    submit_s: np.ndarray
    refused: int
    aborted: bool
    wall: float
    report: object
    order: list[int]

    @property
    def latency(self) -> np.ndarray:
        """Seconds from when each request was due to its answer (inf if none)."""
        return self.done - self.due


#: Pool slots per system: the first NARROW right-hand sides are vectors,
#: the remaining WIDE are (n, 4) blocks.
NARROW, WIDE = 18, 2


def serve_pool(targets: list[Target], rng) -> None:
    """Seeded right-hand sides and the answer each request must get.

    The expected answer is the standalone fused solve of the right-hand
    side; a coalesced column must equal it bitwise.
    """
    for t in targets:
        n = t.solver.a.n
        t.pool = [rng.standard_normal(n) for _ in range(NARROW)]
        t.pool += [rng.standard_normal((n, 4)) for _ in range(WIDE)]
        t.expected = [t.solver.solve(b, backend="fused", check=False)[0] for b in t.pool]


def open_loop(targets: list[Target], rate: float, count: int, rng, tracer: Tracer,
              tally: Tally, *, abort_backlog: int | None, label: str) -> Window:
    """Offer *count* Poisson arrivals at *rate* per second to a new service.

    The service uses its default policy and the real clock; the calling
    thread is the generator, the service's dispatcher the only other
    thread.  Each request is timed from when it was due, so a stall in
    the generator or the dispatcher is charged to every request behind
    it.  With *abort_backlog*, arrivals stop once that many columns are
    queued: the window has already missed the latency limit, and
    stopping short of the queue bound keeps the search from provoking
    refusals.
    """
    shares = np.array([t.share for t in targets])
    tix = rng.choice(len(targets), size=count, p=shares / shares.sum())
    wide = rng.random(count) < 0.1
    slot = np.where(wide, NARROW + rng.integers(WIDE, size=count),
                    rng.integers(NARROW, size=count))
    service = SolveService()
    with tracer.span("serve.register", label):
        for t in targets:
            service.register(t.key, t.solver)

    done = np.full(count, np.inf)
    submit_s = np.zeros(count)
    order: list[int] = []
    futures: list = [None] * count

    def finished(i: int, _fut) -> None:
        done[i] = time.perf_counter()
        order.append(i)

    refused = 0
    issued = count
    start = time.perf_counter() + 0.005
    due = start + np.cumsum(rng.exponential(1.0 / rate, count))
    submitted = np.zeros(count)
    for i in range(count):
        delay = due[i] - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if abort_backlog is not None and service.pending_columns > abort_backlog:
            issued = i
            break
        t = targets[tix[i]]
        submitted[i] = time.perf_counter()
        try:
            with tracer.span("serve.submit", i):
                fut = service.submit(t.pool[slot[i]], key=t.key)
        except QueueFullError:
            refused += 1
            tally.fail(f"{label}: refused")
            continue
        except Exception as exc:  # counted as a failed request; the load goes on
            tally.fail(f"{label}: {type(exc).__name__}")
            continue
        submit_s[i] = time.perf_counter() - submitted[i]
        fut.add_done_callback(partial(finished, i))
        futures[i] = fut
    service.close()

    for i in range(issued):
        fut = futures[i]
        if fut is None:
            continue
        if not fut.done():
            tally.fail(f"{label}: unanswered")
        elif fut.exception() is not None:
            tally.fail(f"{label}: {type(fut.exception()).__name__}")
        else:
            expected = targets[tix[i]].expected[slot[i]]
            tally.record(same(fut.result(), expected), f"{label}: wrong answer")
    answered = done[:issued][np.isfinite(done[:issued])]
    end = answered.max() if answered.size else time.perf_counter()
    return Window(due=due[:issued], submitted=submitted[:issued],
                  done=done[:issued], submit_s=submit_s[:issued], refused=refused,
                  aborted=issued < count, wall=end - start,
                  report=service.report(), order=order)


def _within_limit(win: Window) -> bool:
    """p99 latency under the limit, nothing refused, no growing backlog.

    The backlog counts as growing when the window was aborted: at some
    point more than one latency limit's worth of arrivals was queued.
    """
    return not (win.aborted or win.refused) and pct(win.latency, 99) <= LATENCY_LIMIT


def capacity(targets: list[Target], start: float, floor: float, rng, tracer: Tracer,
             tally: Tally) -> tuple[float, list[tuple[float, bool]]]:
    """Highest rate whose window stays within the latency limit.

    Brackets the rate from *start* in SEARCH_STEP steps, then bisects
    (geometrically) until the bracket is within SEARCH_RESOLUTION.
    Returns 0 when even *floor* requests per second miss the limit, and
    the highest rate tried when MAX_PROBES probes never miss it.
    """
    probes: list[tuple[float, bool]] = []

    def probe(r: float) -> bool:
        backlog = max(16, min(200, int(r * LATENCY_LIMIT)))
        win = open_loop(targets, r, PROBE_REQUESTS, rng, tracer, tally,
                        abort_backlog=backlog, label="search")
        probes.append((r, _within_limit(win)))
        return probes[-1][1]

    lo = hi = None
    r = start
    while lo is None or hi is None:
        if len(probes) == MAX_PROBES:
            return lo or 0.0, probes
        if probe(r):
            lo, r = r, r * SEARCH_STEP
        else:
            hi, r = r, r / SEARCH_STEP
            if r < floor:
                return 0.0, probes
    while hi / lo > SEARCH_RESOLUTION:
        mid = math.sqrt(lo * hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return lo, probes


def serve_layers(windows: list[Window], tracer: Tracer) -> dict[str, float]:
    """Serve-layer metrics of the nominal windows, from ServeReport and our clock.

    Futures resolve in batch order on the single dispatcher thread, so
    each window's completion order splits into its report's batches; a
    request's queue wait runs from its submit to the start of its
    batch's solve.
    """
    waits: list[float] = []
    triggers: Counter = Counter()
    exec_s = wall = 0.0
    batches = columns = rejected = 0
    for win in windows:
        report = win.report
        pos = 0
        for rec in report.batches:
            members = win.order[pos:pos + rec.requests]
            pos += rec.requests
            started = win.done[members[0]] - rec.exec_seconds
            tracer.add("serve.batch", started, win.done[members[0]], rid=rec.key, tid=2)
            waits.extend(started - win.submitted[i] for i in members)
        triggers.update(report.trigger_counts)
        exec_s += report.exec_seconds
        wall += win.wall
        batches += report.nbatches
        columns += report.total_columns
        rejected += report.rejected
    submit_s = np.concatenate([w.submit_s[w.submit_s > 0] for w in windows])
    lag = np.concatenate([w.submitted - w.due for w in windows])
    out = {
        "serve.submit_us": float(np.median(submit_s)) * 1e6,
        "serve.queue_wait_ms.p50": pct(waits, 50) * 1e3,
        "serve.queue_wait_ms.p99": pct(waits, 99) * 1e3,
        "serve.exec_ms_per_batch": exec_s / batches * 1e3,
        "serve.batch_width_mean": columns / batches,
        "serve.dispatcher_busy_frac": exec_s / wall,
        "serve.rejected": float(rejected),
        "serve.gen_lag_p99_ms": pct(lag, 99) * 1e3,
    }
    for name in ("full", "deadline", "idle", "drain"):
        out[f"serve.trigger.{name}"] = float(triggers.get(name, 0))
    return out


# --------------------------------------------------------------------- references
def scipy_refs(solver: ParallelSparseSolver, matrices, rng, tally: Tally) -> dict[str, float]:
    """Same-run external baselines, recorded and never gated.

    ``spsolve_triangular`` runs both sweeps on the solver's own factor
    scattered to CSR, at NRHS 1 and 16; ``splu`` factors each set-up
    matrix (summed, as setup_s is).
    """
    sym = solver.symbolic
    lower = solver.factor.to_lower_csc(sym.l_indptr, sym.l_indices).to_scipy().tocsr()
    upper = lower.T.tocsr()
    out: dict[str, float] = {}
    for w in (1, 16):
        b = rng.standard_normal((solver.a.n, w))
        b_perm = sym.perm.apply_to_vector(b)
        times = []
        for _ in range(15):
            t0 = time.perf_counter()
            y = spla.spsolve_triangular(lower, b_perm, lower=True)
            x_perm = spla.spsolve_triangular(upper, y, lower=False)
            times.append(time.perf_counter() - t0)
        x_ref = sym.perm.unapply_to_vector(x_perm)
        x, _ = solver.solve(b, backend="fused", check=False)
        scale = float(np.abs(x).max())
        tally.record(bool(np.allclose(x_ref, x, rtol=1e-8, atol=1e-10 * scale)),
                     "ref: scipy disagrees with fused")
        out[f"ref.scipy_solve_ms.w{w}"] = float(np.median(times)) * 1e3
    total = 0.0
    for a in matrices:
        full = a.to_scipy().tocsc()
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            spla.splu(full)
            times.append(time.perf_counter() - t0)
        total += float(np.median(times))
    out["ref.splu_s"] = total
    return out
