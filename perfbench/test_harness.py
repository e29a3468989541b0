"""Checks of the benchmark's own correctness accounting.

Run from the repository root::

    python3 -m pytest perfbench/test_harness.py -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import phases  # noqa: E402
from harness import Tally, Tracer, same  # noqa: E402
from repro.core.solver import ParallelSparseSolver  # noqa: E402
from repro.sparse import fe_mesh_2d  # noqa: E402


@pytest.fixture
def corrupt_fused(monkeypatch):
    """Make every fused solve answer one ulp off in its first entry."""
    real = ParallelSparseSolver.solve

    def solve(self, b, **kw):
        x, report = real(self, b, **kw)
        if kw.get("backend") == "fused":
            x = x.copy()
            x.flat[0] = np.nextafter(x.flat[0], np.inf)
        return x, report

    monkeypatch.setattr(ParallelSparseSolver, "solve", solve)


def _stream_round(tally: Tally) -> None:
    solver = ParallelSparseSolver(fe_mesh_2d(5, seed=3)).prepare()
    stream = phases.Stream(solver, np.random.default_rng(0), tally)
    stream.run_slice(0.0, 4, Tracer(False), tally)


def test_clean_stream_counts_no_failures():
    tally = Tally()
    _stream_round(tally)
    assert tally.attempted >= 8 and tally.failed == 0


def test_corrupted_stream_answer_is_counted_failed(corrupt_fused):
    tally = Tally()
    _stream_round(tally)
    assert tally.failed == tally.attempted >= 8
    assert set(tally.reasons) == {"stream: fused != serial", "stream: wrong answer"}


def test_corrupted_first_solve_is_counted_failed(corrupt_fused):
    tally = Tally()
    a = fe_mesh_2d(5, seed=3)
    phases.cold_pass([a], [np.ones(a.n)], "pass0", Tracer(False), tally)
    assert tally.reasons == {"setup: fused != serial": 1}


def test_mismatched_serve_response_is_counted_failed():
    solver = ParallelSparseSolver(fe_mesh_2d(5, seed=3)).prepare()
    target = phases.Target("system0", solver, 1.0)
    rng = np.random.default_rng(0)
    phases.serve_pool([target], rng)
    tally = Tally()
    phases.open_loop([target], 500.0, 20, rng, Tracer(False), tally,
                     abort_backlog=None, label="serve")
    assert tally.attempted == 20 and tally.failed == 0
    target.expected = [np.nextafter(x, np.inf) for x in target.expected]
    phases.open_loop([target], 500.0, 20, rng, Tracer(False), tally,
                     abort_backlog=None, label="serve")
    assert tally.reasons == {"serve: wrong answer": 20}


def test_same_is_bitwise():
    x = np.linspace(0.0, 1.0, 7)
    assert same(x.copy(), x)
    assert not same(x.astype(np.float32), x)
    y = x.copy()
    y[3] = np.nextafter(y[3], 2.0)
    assert not same(y, x)


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer(True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, = tracer.by_name("outer")
    inner, = tracer.by_name("inner")
    assert inner.parent == outer.sid
    own = tracer.self_seconds()
    assert own["outer"] == pytest.approx(outer.seconds - inner.seconds)


def test_run_refuses_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "harness.py", "phases.py"):
        shutil.copy(HERE / name, bench / name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fe3d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
