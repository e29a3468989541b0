"""Real shared-memory execution of the triangular solves.

The :mod:`repro.machine` layer *simulates* the paper's message-passing
solvers to reproduce its timing figures; this package *executes* the
solves on the host for real.  The schedule is a level chain compiled
from the supernodal tree: the fused backend runs each elimination-tree
level as a handful of whole-level array ops, leaves first forward and
root first backward.  The layers are deliberately separate from the
simulator: simulated seconds validate the paper's model, measured
seconds feed the repo's perf trajectory (``BENCH_exec.json``).

Public surface:

* :func:`forward_fused` / :func:`backward_fused` / :func:`solve_fused` —
  the fused level-program entry points (vector or ``(n, nrhs)``
  blocks), bitwise identical to the serial supernodal walker.
* :func:`build_plan` / :func:`plan_for` — explicit or cached
  :class:`ExecPlan` construction (per-supernode steps and levels).
* :func:`compile_level_program` / :func:`program_for` — explicit or
  cached compilation of a plan into a :class:`LevelProgram`;
  ``program_for(..., certify=True)`` runs the static schedule certifier
  (:mod:`repro.verify.schedule`) first.
* :func:`fused_certificate_for` — the memoized determinism certificate
  (race-freedom + exactly-once coverage proofs) of a structure's level
  program.
* :func:`prepare_factor`, :func:`fused_panels_for`,
  :func:`clear_exec_caches`, :func:`exec_cache_stats` — value
  preparation and cache control.
* :class:`WorkspaceArena` — the lease/return pool of reusable solve
  workspaces owned by each :class:`PreparedFactor`.
"""

from repro.exec.arena import WorkspaceArena
from repro.exec.cache import (
    PreparedFactor,
    clear_exec_caches,
    exec_cache_stats,
    fused_certificate_for,
    fused_panels_for,
    plan_for,
    prepare_factor,
    program_for,
)
from repro.exec.fused import (
    FusedPanels,
    backward_fused,
    build_fused_panels,
    forward_fused,
    solve_fused,
)
from repro.exec.plan import (
    ExecPlan,
    Level,
    LevelGroup,
    LevelOnes,
    LevelProgram,
    NodeStep,
    build_plan,
    compile_level_program,
)

__all__ = [
    "ExecPlan",
    "FusedPanels",
    "Level",
    "LevelGroup",
    "LevelOnes",
    "LevelProgram",
    "NodeStep",
    "PreparedFactor",
    "WorkspaceArena",
    "backward_fused",
    "build_fused_panels",
    "build_plan",
    "clear_exec_caches",
    "compile_level_program",
    "exec_cache_stats",
    "forward_fused",
    "fused_certificate_for",
    "fused_panels_for",
    "plan_for",
    "prepare_factor",
    "program_for",
    "solve_fused",
]
