"""The repo benchmark: one command, every end-to-end or per-layer metric.

Run from the repository root::

    python3 perfbench/run.py --workload fe3d --seed 1 --seconds 30 --trace 0

Each workload runs three phases on its systems, one per kind of user
(see ``phases.py``): cold set-up of every system, a closed-loop stream
of NRHS=1 and NRHS=16 solves, and open-loop serving.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it has the per-layer metrics (including a
capacity search) and the tracing overhead, and the spans are written
as Chrome trace-event JSON under ``perfbench/out/``.  The line before
it carries the run's context: versions, nproc, the seed, sample
counts, failure reasons and the scipy baselines.
"""

import os

# One BLAS thread, pinned before numpy loads: the serve phase already
# runs two threads (generator and dispatcher) on a machine that may have
# no more cores than that.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Threads a run keeps busy: the serve generator and the dispatcher.
THREADS = 2

#: Stream samples per width in a run; p95 of 200 leaves ten beyond it.
STREAM_SAMPLES = 200

#: Requests at the nominal rate in a run; p99 of 1000 leaves ten beyond it.
SERVE_REQUESTS = 1000


@dataclass(frozen=True)
class Workload:
    """Systems of one matrix class and the serve rate fixed for them.

    ``meshes[0]`` is the stream system and takes 80% of the serve
    traffic, ``meshes[1]`` (the other class) the remaining 20%; both are
    set up cold.  ``nominal_rps`` is a third to a half of the service's
    measured capacity on these systems.
    """

    meshes: tuple
    nominal_rps: float


def _workloads():
    from phases import Mesh

    return {
        "fe3d": Workload((Mesh("fe3d", 10), Mesh("fe2d", 24)), nominal_rps=75.0),
        "fe2d": Workload((Mesh("fe2d", 31), Mesh("fe3d", 8)), nominal_rps=75.0),
    }


def run_workload(wl: Workload, seed: int, seconds: float, *, passes: int, slices: int,
                 min_samples: int, requests: int, tracer, tally) -> dict:
    """Run the three phases; returns metrics, layers and sample counts.

    The run makes *passes* cold set-up passes; the first one's solvers
    serve the stream and serve phases, later ones are timed and
    dropped.  After each pass, it alternates *slices* stream slices
    with as many nominal serve windows, so the stream and serve
    samples come from many separate stretches spread over the whole
    run, and a stretch in which the machine runs slow moves every
    percentile a little instead of deciding one of them.
    """
    import numpy as np

    import phases
    from harness import pct, settle

    matrices = [m.build(seed * 100 + i) for i, m in enumerate(wl.meshes)]
    rng = np.random.default_rng([seed, 1])
    rhs = [rng.standard_normal(a.n) for a in matrices]
    secs, solvers = phases.cold_pass(matrices, rhs, "pass0", tracer, tally)
    pass_seconds = [secs]
    stream = phases.Stream(solvers[0], np.random.default_rng([seed, 2]), tally)
    targets = [phases.Target(f"system{i}", s, share)
               for i, (s, share) in enumerate(zip(solvers, (0.8, 0.2)))]
    serve_rng = np.random.default_rng([seed, 3])
    phases.serve_pool(targets, serve_rng)
    n_slices = passes * slices
    per_window = max(-(-requests // n_slices),
                     int(wl.nominal_rps * 0.4 * seconds / n_slices))
    nominal = []
    for p in range(passes):
        if p:
            pass_seconds.append(
                phases.cold_pass(matrices, rhs, f"pass{p}", tracer, tally)[0])
        for _ in range(slices):
            settle()
            with tracer.span("phase.stream"):
                stream.run_slice(0.3 * seconds / n_slices, -(-min_samples // n_slices),
                                 tracer, tally)
            settle()
            with tracer.span("phase.serve"):
                nominal.append(phases.open_loop(
                    targets, wl.nominal_rps, per_window, serve_rng, tracer, tally,
                    abort_backlog=None, label="serve"))
    served = np.concatenate([w.latency for w in nominal]) * 1e3
    metrics = {"setup_s": float(np.median(pass_seconds)),
               "serve_p50_ms": pct(served, 50)}
    # The tails are recorded but not gated: over ten seeds their spread
    # exceeded the largest allowed bound (see README).
    layers: dict = {}
    for w in phases.Stream.WIDTHS:
        lat = np.asarray(stream.latency[w]) * 1e3
        metrics[f"solve{w}_p50_ms"] = pct(lat, 50)
        layers[f"core.solve{w}_p95_ms"] = pct(lat, 95)
    for q in (95, 99):
        layers[f"serve.p{q}_ms"] = pct(served, q)
    samples = {
        "slices": n_slices,
        "setup_s": len(pass_seconds),
        "solve1_ms": len(stream.latency[1]),
        "solve16_ms": len(stream.latency[16]),
        "serve_ms": len(served),
    }
    probes: list = []
    if tracer.enabled:
        layers.update(phases.setup_layers(tracer, solvers, len(pass_seconds)))
        layers.update(stream.layers())
        layers.update(phases.serve_layers(nominal, tracer))
        settle()
        busy = (sum(w.report.exec_seconds for w in nominal)
                / sum(w.wall for w in nominal))
        start = min(max(wl.nominal_rps / max(busy, 1e-3), 1.5 * wl.nominal_rps),
                    20 * wl.nominal_rps)
        with tracer.span("phase.search"):
            layers["serve.max_rps"], probes = phases.capacity(
                targets, start, wl.nominal_rps / 2, serve_rng, tracer, tally)
        samples["serve_max_rps_probes"] = len(probes)
    refs = phases.scipy_refs(solvers[0], matrices, np.random.default_rng([seed, 4]), tally)
    return {"metrics": metrics, "samples": samples, "layers": layers, "refs": refs,
            "probes": [[round(r, 3), ok] for r, ok in probes]}


def _finite(value: float) -> float:
    """JSON has no infinity: an unanswered request's latency reads 1e9."""
    return value if value == value and abs(value) != float("inf") else 1e9


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    nproc = len(os.sched_getaffinity(0))
    if THREADS > nproc:
        print(f"error: a run needs {THREADS} threads but only {nproc} CPUs are "
              "available", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import numpy as np
    import scipy

    import phases
    from harness import Tally, Tracer, peak_rss_mb

    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    wl = workloads[args.workload]
    tally = Tally()
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": nproc, "threads": THREADS,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
    }
    phases.warm_up(tally)
    if args.trace:
        # Tracing overhead: the same short run untraced, then traced.
        kw = dict(passes=1, slices=1, min_samples=STREAM_SAMPLES // 2,
                  requests=SERVE_REQUESTS * 2 // 3, tally=tally)
        plain = run_workload(wl, args.seed, args.seconds / 2, tracer=Tracer(False), **kw)
        tracer = Tracer(True)
        traced = run_workload(wl, args.seed, args.seconds / 2, tracer=tracer, **kw)
        metrics = {**traced["layers"], **traced["refs"]}
        for name, value in traced["metrics"].items():
            metrics[f"trace.overhead.{name}"] = value - plain["metrics"][name]
        path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write_chrome(path)
        meta.update(samples=traced["samples"], probes=traced["probes"],
                    trace_file=str(path.relative_to(ROOT)),
                    self_seconds=tracer.self_seconds())
    else:
        result = run_workload(wl, args.seed, args.seconds, passes=5, slices=4,
                              min_samples=STREAM_SAMPLES, requests=SERVE_REQUESTS,
                              tracer=Tracer(False), tally=tally)
        metrics = result["metrics"]
        metrics["peak_rss_mb"] = peak_rss_mb()
        meta.update(samples=result["samples"], refs=result["refs"], layers=result["layers"])
    meta.update(failed_frac=tally.failed / max(tally.attempted, 1),
                failures=dict(tally.reasons))
    print(json.dumps({"meta": meta}))
    if set(metrics) != set(declared):
        print(f"error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(declared))}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": _finite(metrics[name]), "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
