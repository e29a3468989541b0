"""Measured-throughput harness for the request-coalescing solve service.

Serves ``--requests`` independent single-RHS solve requests through a
:class:`repro.serve.SolveService` at a range of offered loads (how many
requests are outstanding at once), coalescer widths (``max_batch``) and
execution backends, and records amortised columns/second for each
configuration next to the *uncoalesced* baseline — the same requests
submitted serially, one at a time, each solved at width 1.  The ratio
between the two is the serving layer's whole reason to exist: the
paper's Figures 7–8 argue that widening NRHS turns vector ops into
matrix ops, and this harness measures how much of that win online
coalescing recovers for a stream of width-1 requests.

Methodology: every run drives the service in deterministic manual-pump
mode (fake clock, ``max_wait=0`` so a pump flushes ``min(pending,
max_batch)`` columns) — batch composition is a pure function of the
configuration, so the numbers measure coalescing economics, not thread
scheduling jitter.  The submit-and-pump loop keeps ``load`` requests
outstanding, exactly like ``load`` concurrent clients that re-issue on
completion.

Before any timing is accepted, every response of a warm-up pass is
checked **bitwise** against the standalone width-1 solve of the same
right-hand side (``np.array_equal``) — coalescing must be observably
transparent, so a fast-but-wrong batcher can never produce a flattering
number.

Results go to ``BENCH_serve.json`` (schema ``repro-bench-serve/1``) at
the repo root; CI runs ``--quick --check`` and uploads the file.
``--check`` enforces the acceptance bar: coalesced throughput at least
``CHECK_RATIO`` x the uncoalesced baseline on grid3d at offered load
>= 16.

Run::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick] [--check] \
        [--out PATH]
"""

# BLAS must be pinned before numpy loads, as in bench_exec_backend: the
# comparison is between batching policies, not BLAS thread pools.
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

SCHEMA = "repro-bench-serve/1"
REQUIRED_KEYS = {
    "matrix", "backend", "max_batch", "load", "requests", "columns",
    "seconds", "cols_per_sec", "mean_batch_width", "n_batches", "coalesced",
}
BACKENDS = ("serial", "fused")
DEFAULT_OUT = ROOT / "BENCH_serve.json"

#: --check fails unless coalesced throughput reaches this multiple of the
#: uncoalesced serial-submission baseline on grid3d at load >= 16.
CHECK_RATIO = 2.0
CHECK_LOAD = 16

FULL_PROBLEMS = [("grid2d", 32), ("grid3d", 8)]
QUICK_PROBLEMS = [("grid3d", 5)]
FULL_BATCHES = (4, 16, 32)
QUICK_BATCHES = (8,)
FULL_LOADS = (1, 4, 16, 64)
QUICK_LOADS = (1, 16)


def _build_problem(kind: str, size: int):
    from repro.numeric.supernodal import cholesky_supernodal
    from repro.sparse.generators import grid2d_laplacian, grid3d_laplacian
    from repro.symbolic.analyze import analyze

    a = grid2d_laplacian(size) if kind == "grid2d" else grid3d_laplacian(size)
    sym = analyze(a)
    return a, sym, cholesky_supernodal(sym)


def _make_service(factor, backend: str, max_batch: int, nreq: int):
    from repro.serve import FakeClock, SolveService

    service = SolveService(
        backend=backend,
        max_batch=max_batch,
        max_wait=0.0,       # every pending request is always due: a pump
        idle_wait=None,     # flushes min(pending, max_batch) columns
        max_queue=max(nreq, max_batch),
        clock=FakeClock(),
    )
    service.register("m", factor)
    return service


def _serve_all(service, rhs_list, load: int) -> list[np.ndarray]:
    """Serve every RHS keeping *load* requests outstanding; returns results."""
    futures = [None] * len(rhs_list)
    nxt = 0
    outstanding = []
    while nxt < len(rhs_list) or outstanding:
        while nxt < len(rhs_list) and len(outstanding) < load:
            futures[nxt] = service.submit(rhs_list[nxt], key="m")
            outstanding.append(futures[nxt])
            nxt += 1
        service.pump()
        outstanding = [f for f in outstanding if not f.done()]
    return [f.result() for f in futures]


def bench_problem(kind: str, size: int, *, backends, batches, loads,
                  nreq: int, repeats: int):
    """All serve timings for one problem; yields result records."""
    from repro.exec import clear_exec_caches, solve_fused

    a, sym, factor = _build_problem(kind, size)
    clear_exec_caches()
    label = f"{kind}({size})"
    rng = np.random.default_rng(2026)
    rhs_list = [rng.normal(size=a.n) for _ in range(nreq)]
    # The transparency references: standalone width-1 solves.
    refs = [solve_fused(factor, b) for b in rhs_list]

    def run(backend: str, max_batch: int, load: int) -> dict:
        # Warm-up pass doubles as the bitwise-transparency enforcement.
        service = _make_service(factor, backend, max_batch, nreq)
        try:
            results = _serve_all(service, rhs_list, load)
            for i, (got, ref) in enumerate(zip(results, refs)):
                if not np.array_equal(got, ref):
                    raise AssertionError(
                        f"{label} backend={backend} max_batch={max_batch} "
                        f"load={load}: request {i} is not bitwise identical "
                        "to its standalone width-1 solve — refusing to "
                        "record a timing for a non-transparent coalescer"
                    )
        finally:
            service.close()

        best = float("inf")
        report = None
        for _ in range(repeats):
            service = _make_service(factor, backend, max_batch, nreq)
            try:
                t0 = time.perf_counter()
                _serve_all(service, rhs_list, load)
                best = min(best, time.perf_counter() - t0)
                report = service.report()
            finally:
                service.close()
        return {
            "matrix": label,
            "backend": backend,
            "max_batch": int(max_batch),
            "load": int(load),
            "requests": int(nreq),
            "columns": int(report.total_columns),
            "seconds": float(best),
            "cols_per_sec": float(nreq / best),
            "mean_batch_width": float(report.mean_batch_width),
            "n_batches": int(report.nbatches),
            "coalesced": bool(max_batch > 1),
        }

    for backend in backends:
        # The uncoalesced serial-submission baseline: one request at a
        # time, each solved at width 1 through the identical service path.
        yield run(backend, 1, 1)
        for max_batch in batches:
            for load in loads:
                yield run(backend, max_batch, load)


def validate_payload(payload: dict) -> list[str]:
    """Schema check for BENCH_serve.json; returns a list of problems."""
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
        for key in ("max_batch", "load", "requests", "columns", "n_batches"):
            if not isinstance(rec[key], int) or rec[key] < 1:
                errors.append(f"results[{i}].{key} must be a positive int")
        for key in ("seconds", "cols_per_sec", "mean_batch_width"):
            if not isinstance(rec[key], (int, float)) or rec[key] <= 0:
                errors.append(f"results[{i}].{key} must be a positive number")
        if not isinstance(rec["coalesced"], bool):
            errors.append(f"results[{i}].coalesced must be a bool")
    return errors


def baseline_of(results: list[dict], matrix: str, backend: str) -> dict | None:
    for rec in results:
        if (rec["matrix"], rec["backend"]) == (matrix, backend) and not rec["coalesced"]:
            return rec
    return None


def render_table(results: list[dict]) -> str:
    lines = [
        f"{'matrix':<12} {'backend':<8} {'batch':>5} {'load':>5} "
        f"{'cols/s':>10} {'width':>6} {'vs serial-submit':>17}"
    ]
    for rec in results:
        base = baseline_of(results, rec["matrix"], rec["backend"])
        ratio = (
            f"{rec['cols_per_sec'] / base['cols_per_sec']:>16.2f}x"
            if base is not None and rec["coalesced"] else f"{'baseline':>17}"
        )
        lines.append(
            f"{rec['matrix']:<12} {rec['backend']:<8} {rec['max_batch']:>5} "
            f"{rec['load']:>5} {rec['cols_per_sec']:>10.0f} "
            f"{rec['mean_batch_width']:>6.2f} {ratio}"
        )
    return "\n".join(lines)


def check_acceptance(results: list[dict]) -> list[str]:
    """The CI bar: coalescing must pay on grid3d at offered load >= CHECK_LOAD.

    For every grid3d record with ``load >= CHECK_LOAD`` on the fused
    backend, coalesced throughput must be at least ``CHECK_RATIO`` x the
    uncoalesced serial-submission baseline of the same matrix/backend.
    """
    violations: list[str] = []
    checked = 0
    for rec in results:
        if (not rec["matrix"].startswith("grid3d") or rec["backend"] != "fused"
                or not rec["coalesced"] or rec["load"] < CHECK_LOAD):
            continue
        base = baseline_of(results, rec["matrix"], rec["backend"])
        if base is None:
            violations.append(f"{rec['matrix']}: no uncoalesced baseline recorded")
            continue
        checked += 1
        ratio = rec["cols_per_sec"] / base["cols_per_sec"]
        if ratio < CHECK_RATIO:
            violations.append(
                f"{rec['matrix']} max_batch={rec['max_batch']} "
                f"load={rec['load']}: coalesced throughput is only "
                f"{ratio:.2f}x the serial-submission baseline "
                f"(bar: {CHECK_RATIO}x)"
            )
    if checked == 0:
        violations.append(
            f"no grid3d fused record at load >= {CHECK_LOAD} — nothing to check"
        )
    return violations


def run(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small problem, fewer configurations (CI smoke)")
    parser.add_argument("--check", action="store_true",
                        help=f"fail unless coalescing reaches {CHECK_RATIO}x the "
                             f"serial-submission baseline on grid3d at load >= "
                             f"{CHECK_LOAD}")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default {DEFAULT_OUT})")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per configuration (default 256; quick 64)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats per configuration (best-of)")
    parser.add_argument("--backends", nargs="+", default=None,
                        choices=list(BACKENDS),
                        help="service backends to benchmark")
    args = parser.parse_args(argv)

    problems = QUICK_PROBLEMS if args.quick else FULL_PROBLEMS
    batches = QUICK_BATCHES if args.quick else FULL_BATCHES
    loads = QUICK_LOADS if args.quick else FULL_LOADS
    nreq = args.requests or (64 if args.quick else 256)
    repeats = args.repeats or (2 if args.quick else 3)
    backends = tuple(args.backends) if args.backends else (
        ("fused",) if args.quick else ("serial", "fused")
    )

    results: list[dict] = []
    for kind, size in problems:
        t0 = time.perf_counter()
        for rec in bench_problem(kind, size, backends=backends, batches=batches,
                                 loads=loads, nreq=nreq, repeats=repeats):
            results.append(rec)
        print(f"{kind}({size}) done in {time.perf_counter() - t0:.1f}s",
              file=sys.stderr)

    payload = {
        "schema": SCHEMA,
        "meta": {
            "quick": bool(args.quick),
            "requests": nreq,
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
    print(f"\nwrote {args.out}")
    if args.check:
        violations = check_acceptance(results)
        for v in violations:
            print(f"check violation: {v}", file=sys.stderr)
        if violations:
            return 1
        print(f"check: coalescing >= {CHECK_RATIO}x serial submission on "
              f"grid3d at load >= {CHECK_LOAD}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
