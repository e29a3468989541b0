"""Measured-performance harness for the real execution backends.

Times forward+backward triangular solves over generated 2-D/3-D grid
problems for NRHS in {1, 4, 16} on three backends:

* ``serial``  — the reference supernodal solvers in ``repro.numeric.trisolve``;
* ``fused``   — the vectorized level program of ``repro.exec.fused``
  (whole elimination-tree levels batched into flat array ops; caches
  warmed first, as in steady state);
* ``scipy``   — ``scipy.sparse.linalg.spsolve_triangular`` on the scattered
  CSR factor, as an external baseline.

Every backend's solution is cross-checked against the serial one before
its timing is accepted — and the repo's own ``fused`` backend must match
*bitwise*, not just to tolerance — so a fast-but-wrong backend can never
produce a flattering number.  Each
record carries per-phase seconds (plan build, factor preparation /
program compile, forward sweep, backward sweep) next to the end-to-end
solve time.  Results are written machine-readable to
``BENCH_exec.json`` at the repo root — the repo's perf trajectory; CI
runs ``--quick --guard`` and uploads the file as an artifact.

Run::

    PYTHONPATH=src python benchmarks/bench_exec_backend.py \
        [--quick] [--guard] [--out PATH]

(The script falls back to inserting ``src/`` on ``sys.path`` itself, and
pins BLAS to one thread so backend comparisons measure scheduling, not
BLAS-internal parallelism.)
"""

# BLAS must be pinned before numpy loads: the comparison is between solve
# schedules, not between BLAS thread pools.
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if "repro" not in sys.modules:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, str(ROOT / "src"))

import numpy as np

SCHEMA = "repro-bench-exec/3"
REQUIRED_KEYS = {"backend", "n", "nrhs", "seconds", "mflops", "phases"}
PHASE_KEYS = {"plan", "prepare", "forward", "backward"}
BACKENDS = ("serial", "fused", "scipy")
#: Backends whose results must be *bitwise* equal to the serial reference.
BITWISE_BACKENDS = {"fused"}
DEFAULT_OUT = ROOT / "BENCH_exec.json"

#: --guard fails when fused exceeds this multiple of serial on grid3d
#: at NRHS=1 — a coarse regression tripwire, not a performance target.
GUARD_RATIO = 1.5

FULL_PROBLEMS = [("grid2d", 32), ("grid2d", 48), ("grid3d", 8), ("grid3d", 10)]
QUICK_PROBLEMS = [("grid2d", 16), ("grid3d", 5)]
NRHS_LIST = (1, 4, 16)


def _best_of(fn, repeats: int) -> float:
    """Min wall-clock over *repeats* calls, after one untimed warm-up."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _build_problem(kind: str, size: int):
    from repro.numeric.supernodal import cholesky_supernodal
    from repro.sparse.generators import grid2d_laplacian, grid3d_laplacian
    from repro.symbolic.analyze import analyze

    a = grid2d_laplacian(size) if kind == "grid2d" else grid3d_laplacian(size)
    sym = analyze(a)
    factor = cholesky_supernodal(sym)
    return a, sym, factor


def bench_problem(kind: str, size: int, *, repeats: int, tol: float = 1e-9):
    """All backend timings for one problem; yields result records."""
    from repro.exec import (
        backward_fused,
        clear_exec_caches,
        forward_fused,
        fused_panels_for,
        plan_for,
        prepare_factor,
        program_for,
        solve_fused,
    )
    from repro.numeric.trisolve import backward_supernodal, forward_supernodal
    from scipy.sparse.linalg import spsolve_triangular

    a, sym, factor = _build_problem(kind, size)
    clear_exec_caches()
    # One-time per-structure costs, measured cold (the caches amortize
    # them across every subsequent solve — that is the point of the
    # per-phase breakdown).
    t0 = time.perf_counter()
    plan_for(sym.stree)
    t_plan = time.perf_counter() - t0
    t0 = time.perf_counter()
    prepare_factor(factor)
    t_prepare = time.perf_counter() - t0
    t0 = time.perf_counter()
    program = program_for(sym.stree)
    fused_panels_for(factor)
    t_compile = time.perf_counter() - t0
    lower = factor.to_lower_csc(sym.l_indptr, sym.l_indices).to_scipy().tocsr()
    upper = lower.T.tocsr()
    label = f"{kind}({size})"

    for nrhs in NRHS_LIST:
        rng = np.random.default_rng(2026)
        b = rng.normal(size=(a.n, nrhs))
        x_ref = backward_supernodal(factor, forward_supernodal(factor, b))
        flops = 2 * sym.stree.solve_flops(nrhs)

        def record(backend: str, seconds: float, x: np.ndarray, phases: dict) -> dict:
            err = float(np.max(np.abs(x - x_ref)))
            if backend in BITWISE_BACKENDS:
                if not np.array_equal(x, x_ref):
                    raise AssertionError(
                        f"{label} nrhs={nrhs}: backend {backend} is not bitwise "
                        f"identical to the serial reference (max dev {err:.2e}) "
                        "— refusing to record its timing"
                    )
            elif err > tol:
                raise AssertionError(
                    f"{label} nrhs={nrhs}: backend {backend} deviates from the "
                    f"serial reference by {err:.2e} — refusing to record its timing"
                )
            return {
                "matrix": label,
                "backend": backend,
                "n": int(a.n),
                "nrhs": int(nrhs),
                "seconds": float(seconds),
                "mflops": float(flops / seconds / 1e6) if seconds > 0 else 0.0,
                "nsuper": int(program.nsuper),
                "nlevels": int(program.nlevels),
                "phases": {k: float(v) for k, v in phases.items()},
            }

        y_ref = forward_supernodal(factor, b)
        yield record(
            "serial",
            _best_of(lambda: backward_supernodal(factor, forward_supernodal(factor, b)),
                     repeats),
            x_ref,
            {
                "plan": 0.0,
                "prepare": 0.0,
                "forward": _best_of(lambda: forward_supernodal(factor, b), repeats),
                "backward": _best_of(lambda: backward_supernodal(factor, y_ref),
                                     repeats),
            },
        )
        yield record(
            "fused",
            _best_of(lambda: solve_fused(factor, b, program=program), repeats),
            solve_fused(factor, b, program=program),
            {
                "plan": t_plan,
                "prepare": t_compile,
                "forward": _best_of(
                    lambda: forward_fused(factor, b, program=program), repeats
                ),
                "backward": _best_of(
                    lambda: backward_fused(factor, y_ref, program=program), repeats
                ),
            },
        )
        yield record(
            "scipy",
            _best_of(
                lambda: spsolve_triangular(
                    upper, spsolve_triangular(lower, b, lower=True), lower=False
                ),
                repeats,
            ),
            spsolve_triangular(upper, spsolve_triangular(lower, b, lower=True), lower=False),
            {
                "plan": 0.0,
                "prepare": 0.0,
                "forward": _best_of(
                    lambda: spsolve_triangular(lower, b, lower=True), repeats
                ),
                "backward": _best_of(
                    lambda: spsolve_triangular(upper, y_ref, lower=False), repeats
                ),
            },
        )


def validate_payload(payload: dict) -> list[str]:
    """Schema check for BENCH_exec.json; returns a list of problems."""
    errors: list[str] = []
    if payload.get("schema") != SCHEMA:
        errors.append(f"schema must be {SCHEMA!r}, got {payload.get('schema')!r}")
    results = payload.get("results")
    if not isinstance(results, list) or not results:
        return errors + ["results must be a non-empty list"]
    for i, rec in enumerate(results):
        missing = REQUIRED_KEYS - set(rec)
        if missing:
            errors.append(f"results[{i}] missing keys {sorted(missing)}")
            continue
        if rec["backend"] not in BACKENDS:
            errors.append(f"results[{i}] unknown backend {rec['backend']!r}")
        for key in ("n", "nrhs"):
            if not isinstance(rec[key], int) or rec[key] < 1:
                errors.append(f"results[{i}].{key} must be a positive int")
        for key in ("seconds", "mflops"):
            if not isinstance(rec[key], (int, float)) or rec[key] <= 0:
                errors.append(f"results[{i}].{key} must be a positive number")
        phases = rec["phases"]
        if not isinstance(phases, dict) or set(phases) != PHASE_KEYS:
            errors.append(
                f"results[{i}].phases must map exactly {sorted(PHASE_KEYS)}"
            )
            continue
        for key, val in phases.items():
            if not isinstance(val, (int, float)) or val < 0:
                errors.append(
                    f"results[{i}].phases.{key} must be a non-negative number"
                )
    return errors


def render_table(results: list[dict]) -> str:
    lines = [
        f"{'matrix':<12} {'nrhs':>4} {'backend':<8} "
        f"{'ms':>10} {'MFLOPS':>9} {'fwd ms':>9} {'bwd ms':>9}"
    ]
    for rec in results:
        ph = rec["phases"]
        lines.append(
            f"{rec['matrix']:<12} {rec['nrhs']:>4} {rec['backend']:<8} "
            f"{rec['seconds'] * 1e3:>10.3f} {rec['mflops']:>9.1f} "
            f"{ph['forward'] * 1e3:>9.3f} {ph['backward'] * 1e3:>9.3f}"
        )
    return "\n".join(lines)


def summarize_speedups(results: list[dict]) -> str:
    """Per (matrix, nrhs): fused vs serial."""
    serial = {(r["matrix"], r["nrhs"]): r["seconds"]
              for r in results if r["backend"] == "serial"}
    return "\n".join(
        f"{r['matrix']:<12} nrhs={r['nrhs']:<3} fused vs serial: "
        f"{serial[(r['matrix'], r['nrhs'])] / r['seconds']:5.2f}x"
        for r in sorted(
            (r for r in results if r["backend"] == "fused"),
            key=lambda r: (r["matrix"], r["nrhs"]),
        )
    )


def check_guard(results: list[dict]) -> list[str]:
    """The CI regression tripwire: fused must not lag serial on grid3d.

    Returns violation messages for every grid3d problem at NRHS=1 where
    the fused solve exceeds ``GUARD_RATIO`` x the serial solve.
    """
    serial = {(r["matrix"], r["nrhs"]): r["seconds"]
              for r in results if r["backend"] == "serial"}
    violations: list[str] = []
    for r in results:
        if r["backend"] != "fused" or r["nrhs"] != 1:
            continue
        if not r["matrix"].startswith("grid3d"):
            continue
        limit = GUARD_RATIO * serial[(r["matrix"], r["nrhs"])]
        if r["seconds"] > limit:
            violations.append(
                f"{r['matrix']} nrhs=1: fused took {r['seconds'] * 1e3:.3f} ms, "
                f"over the guard of {GUARD_RATIO}x serial "
                f"({limit * 1e3:.3f} ms) — the fused backend regressed"
            )
    return violations


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small problems, fewer repeats (CI smoke)")
    parser.add_argument("--guard", action="store_true",
                        help=f"fail if fused exceeds {GUARD_RATIO}x serial on "
                             "grid3d at NRHS=1 (CI regression tripwire)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per configuration (best-of)")
    args = parser.parse_args(argv)

    problems = QUICK_PROBLEMS if args.quick else FULL_PROBLEMS
    repeats = args.repeats or (2 if args.quick else 5)

    results: list[dict] = []
    for kind, size in problems:
        t0 = time.perf_counter()
        for rec in bench_problem(kind, size, repeats=repeats):
            results.append(rec)
        print(f"{kind}({size}) done in {time.perf_counter() - t0:.1f}s", file=sys.stderr)

    payload = {
        "schema": SCHEMA,
        "meta": {
            "quick": bool(args.quick),
            "repeats": repeats,
            "cpu_count": os.cpu_count() or 1,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "results": results,
    }
    errors = validate_payload(payload)
    if errors:
        for e in errors:
            print(f"schema error: {e}", file=sys.stderr)
        return 1

    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    print(render_table(results))
    print()
    print(summarize_speedups(results))
    print(f"\nwrote {args.out}")
    if args.guard:
        violations = check_guard(results)
        for v in violations:
            print(f"guard violation: {v}", file=sys.stderr)
        if violations:
            return 1
        print(f"guard: fused within {GUARD_RATIO}x of serial on grid3d")
    return 0


if __name__ == "__main__":
    sys.exit(run())
