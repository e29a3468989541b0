"""The exec-backend benchmark harness must run and emit schema-valid JSON.

CI runs ``bench_exec_backend.py --quick --guard`` and uploads
``BENCH_exec.json`` as an artifact; this smoke test runs the same command
end to end in a temp directory and validates the payload against the
documented schema (required per-record keys: backend, n, nrhs, seconds,
mflops, and the per-phase seconds under ``phases``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "benchmarks" / "bench_exec_backend.py"


def _load_bench_module():
    sys.path.insert(0, str(ROOT))
    try:
        from benchmarks import bench_exec_backend
    finally:
        sys.path.pop(0)
    return bench_exec_backend


@pytest.fixture(scope="module")
def quick_payload(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_exec.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(BENCH), "--quick", "--guard", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    assert proc.returncode == 0, f"bench failed:\n{proc.stdout}\n{proc.stderr}"
    return json.loads(out.read_text()), proc.stdout


class TestBenchSmoke:
    def test_schema_is_valid(self, quick_payload):
        payload, _ = quick_payload
        bench = _load_bench_module()
        assert bench.validate_payload(payload) == []

    def test_required_record_keys(self, quick_payload):
        payload, _ = quick_payload
        for rec in payload["results"]:
            for key in ("backend", "n", "nrhs", "seconds", "mflops", "phases"):
                assert key in rec

    def test_all_backends_and_nrhs_covered(self, quick_payload):
        payload, _ = quick_payload
        backends = {rec["backend"] for rec in payload["results"]}
        assert backends == {"serial", "fused", "scipy"}
        assert {rec["nrhs"] for rec in payload["results"]} == {1, 4, 16}

    def test_phase_timings_present_and_consistent(self, quick_payload):
        payload, _ = quick_payload
        for rec in payload["results"]:
            phases = rec["phases"]
            assert set(phases) == {"plan", "prepare", "forward", "backward"}
            assert all(v >= 0 for v in phases.values())
            assert phases["forward"] > 0 and phases["backward"] > 0
            if rec["backend"] == "fused":
                # The fused backend compiles a plan / program once per structure.
                assert phases["plan"] > 0 and phases["prepare"] > 0

    def test_meta_records_worker_policy(self, quick_payload):
        # Every backend runs on one worker with BLAS pinned to one thread;
        # the machine's core count is recorded next to the numbers.
        payload, _ = quick_payload
        meta = payload["meta"]
        assert meta["cpu_count"] >= 1
        assert meta["blas_threads"] == "1"
        assert not any("workers" in key for key in meta)
        assert all("workers" not in rec for rec in payload["results"])

    def test_guard_passes_in_quick_mode(self, quick_payload):
        _, stdout = quick_payload
        assert "guard: fused within" in stdout

    def test_table_and_speedups_printed(self, quick_payload):
        _, stdout = quick_payload
        assert "MFLOPS" in stdout
        assert "vs serial" in stdout
        assert "fused vs serial" in stdout

    def test_validator_rejects_broken_payloads(self):
        bench = _load_bench_module()
        assert bench.validate_payload({"schema": "nope", "results": []})
        good_rec = {
            "backend": "fused",
            "n": 10,
            "nrhs": 1,
            "seconds": 0.1,
            "mflops": 1.0,
            "phases": {"plan": 0.01, "prepare": 0.01,
                       "forward": 0.05, "backward": 0.05},
        }
        good = {"schema": bench.SCHEMA, "results": [good_rec]}
        assert bench.validate_payload(good) == []
        bad = {"schema": bench.SCHEMA, "results": [{"backend": "fused"}]}
        errors = bench.validate_payload(bad)
        assert errors and "missing keys" in errors[0]
        threads = {"schema": bench.SCHEMA,
                   "results": [{**good_rec, "backend": "threads"}]}
        errors = bench.validate_payload(threads)
        assert errors and "unknown backend" in errors[0]
        no_phase = {"schema": bench.SCHEMA,
                    "results": [{**good_rec, "phases": {"plan": 0.01}}]}
        errors = bench.validate_payload(no_phase)
        assert errors and "phases" in errors[0]

    def test_guard_checker_flags_slow_fused(self):
        bench = _load_bench_module()
        phases = {"plan": 0.0, "prepare": 0.0, "forward": 0.1, "backward": 0.1}
        results = [
            {"matrix": "grid3d(5)", "backend": "serial", "n": 125, "nrhs": 1,
             "seconds": 0.01, "mflops": 1.0, "phases": phases},
            {"matrix": "grid3d(5)", "backend": "fused", "n": 125, "nrhs": 1,
             "seconds": 0.1, "mflops": 1.0, "phases": phases},
        ]
        assert bench.check_guard(results)
        results[1]["seconds"] = 0.005
        assert bench.check_guard(results) == []

    def test_committed_trajectory_file_is_valid_when_present(self):
        committed = ROOT / "BENCH_exec.json"
        if not committed.exists():
            pytest.skip("no committed BENCH_exec.json")
        bench = _load_bench_module()
        assert bench.validate_payload(json.loads(committed.read_text())) == []
