"""Per-structure plan cache and per-factor value preparation.

Repeated solves against the same factorization are the common case (multi
right-hand-side workloads, iterative refinement, time stepping), so the
fused backend never rebuilds what it can reuse:

* :func:`plan_for` caches one :class:`~repro.exec.plan.ExecPlan` per
  symbolic structure.  The key is the identity of the
  :class:`~repro.symbolic.stree.SupernodalTree` — the object every
  :class:`~repro.symbolic.analyze.SymbolicFactor` and
  :class:`~repro.numeric.supernodal.SupernodalFactor` share — and entries
  are evicted automatically when the structure is garbage collected.
* :func:`program_for` caches the compiled
  :class:`~repro.exec.plan.LevelProgram` per structure, and
  :func:`fused_certificate_for` its schedule certificate
  (:func:`repro.verify.schedule.certify_level_program`, the one
  certifier), memoized with the same key and eviction so repeated
  certified solves pay for the proof exactly once per structure.
* :func:`prepare_factor` caches a :class:`PreparedFactor` per numeric
  factor: contiguous diagonal/rectangle views of each trapezoid plus a
  one-time singularity screen, so a zero or non-finite diagonal raises a
  clean :class:`ValueError` *before* any sweep starts (never a wrong
  answer).  Each prepared factor owns a
  :class:`~repro.exec.arena.WorkspaceArena`, so the solve workspaces
  share the factor's lifetime and eviction.
* :func:`fused_panels_for` caches the packed width-1 panel values per
  numeric factor.

All caches are thread-safe and observable (:func:`exec_cache_stats`),
and :func:`clear_exec_caches` resets them (tests, benchmarks).
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.exec.arena import WorkspaceArena
from repro.exec.plan import ExecPlan, LevelProgram, build_plan, compile_level_program
from repro.numeric.supernodal import SupernodalFactor
from repro.symbolic.stree import SupernodalTree

if TYPE_CHECKING:
    from repro.exec.fused import FusedPanels
    from repro.verify.schedule import ScheduleCertificate


class _IdentityCache:
    """A dict keyed by object identity with weakref-driven eviction."""

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self._entries: dict[tuple, tuple[weakref.ref, object]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, anchor: object, key: tuple):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0]() is anchor:
                self.hits += 1
                return entry[1]
            self.misses += 1
            return None

    def store(self, anchor: object, key: tuple, value: object) -> None:
        with self._lock:
            self._entries[key] = (weakref.ref(anchor), value)
        weakref.finalize(anchor, self._evict, key)

    def _evict(self, key: tuple) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_PLANS = _IdentityCache("plans")
_PREPARED = _IdentityCache("prepared")
_PROGRAMS = _IdentityCache("programs")
_FUSED_CERTS = _IdentityCache("fused-certs")
_PANELS = _IdentityCache("panels")


def plan_for(stree: SupernodalTree) -> ExecPlan:
    """The cached execution plan for *stree* (built on first use)."""
    key = ("plan", id(stree))
    plan = _PLANS.lookup(stree, key)
    if plan is None:
        plan = build_plan(stree)
        _PLANS.store(stree, key, plan)
    return plan  # type: ignore[return-value]


@dataclass(frozen=True)
class PreparedFactor:
    """Kernel-ready views of one numeric factor.

    ``diag[s]`` is the ``t x t`` lower-triangular diagonal block and
    ``rect[s]`` the ``(n - t) x t`` below-diagonal rectangle of supernode
    ``s`` — both C-contiguous views into the factor's trapezoids (no data
    is copied).  Construction validates every diagonal entry, so holding a
    ``PreparedFactor`` certifies the factor is cleanly solvable.

    ``arena`` pools the solve workspaces of every backend that runs
    against this factor; it lives and dies with the prepared factor, so
    repeated solves reuse buffers and eviction frees them together.
    """

    diag: list[np.ndarray]
    rect: list[np.ndarray]
    arena: WorkspaceArena = field(default_factory=WorkspaceArena, repr=False)


def _prepare(factor: SupernodalFactor) -> PreparedFactor:
    diag: list[np.ndarray] = []
    rect: list[np.ndarray] = []
    for s, (sn, block) in enumerate(zip(factor.stree.supernodes, factor.blocks)):
        t = sn.t
        d = block[:t, :t]
        dvals = np.diagonal(d)
        if t and (np.any(dvals == 0.0) or not np.all(np.isfinite(dvals))):
            bad = int(np.flatnonzero((dvals == 0.0) | ~np.isfinite(dvals))[0])
            raise ValueError(
                f"singular or non-finite diagonal in supernode {s} "
                f"(global column {sn.col_lo + bad}): triangular solve is "
                "undefined for this factor"
            )
        diag.append(d)
        rect.append(block[t:, :t])
    return PreparedFactor(diag=diag, rect=rect)


def prepare_factor(factor: SupernodalFactor) -> PreparedFactor:
    """Cached kernel-ready form of *factor* (validated on first use)."""
    key = ("factor", id(factor))
    prep = _PREPARED.lookup(factor, key)
    if prep is None:
        prep = _prepare(factor)
        _PREPARED.store(factor, key, prep)
    return prep  # type: ignore[return-value]


def program_for(stree: SupernodalTree, *, certify: bool = False) -> LevelProgram:
    """The cached fused :class:`LevelProgram` for *stree*.

    Level programs depend only on the symbolic structure, so one cached
    entry serves every factor of it.  With ``certify=True`` the program
    must additionally pass the schedule certifier
    (:func:`fused_certificate_for`) before it is handed out.
    """
    key = ("program", id(stree))
    prog = _PROGRAMS.lookup(stree, key)
    if prog is None:
        prog = compile_level_program(plan_for(stree))
        _PROGRAMS.store(stree, key, prog)
    if certify:
        fused_certificate_for(stree).report.raise_if_errors(
            "fused level program failed schedule certification"
        )
    return prog  # type: ignore[return-value]


def fused_certificate_for(stree: SupernodalTree) -> "ScheduleCertificate":
    """The cached schedule certificate for *stree*'s fused level program.

    Runs :func:`repro.verify.schedule.certify_level_program` on first
    use and returns the certificate whether or not it is clean — callers
    decide between inspecting ``.report`` and failing fast
    (:func:`program_for` with ``certify=True`` does the latter).
    """
    key = ("fused-cert", id(stree))
    cert = _FUSED_CERTS.lookup(stree, key)
    if cert is None:
        from repro.verify.schedule import certify_level_program

        cert = certify_level_program(program_for(stree), plan_for(stree), stree)
        _FUSED_CERTS.store(stree, key, cert)
    return cert  # type: ignore[return-value]


def fused_panels_for(factor: SupernodalFactor) -> "FusedPanels":
    """The cached packed width-1 panel values of *factor* (built once)."""
    key = ("panels", id(factor))
    panels = _PANELS.lookup(factor, key)
    if panels is None:
        from repro.exec.fused import build_fused_panels

        panels = build_fused_panels(
            program_for(factor.stree), prepare_factor(factor)
        )
        _PANELS.store(factor, key, panels)
    return panels  # type: ignore[return-value]


def clear_exec_caches() -> None:
    """Drop all cached plans, programs, prepared factors and certificates."""
    _PLANS.clear()
    _PREPARED.clear()
    _PROGRAMS.clear()
    _FUSED_CERTS.clear()
    _PANELS.clear()


def exec_cache_stats() -> dict[str, int]:
    """Hit/miss/size counters for all five caches."""
    return {
        "plan_hits": _PLANS.hits,
        "plan_misses": _PLANS.misses,
        "plan_entries": len(_PLANS),
        "factor_hits": _PREPARED.hits,
        "factor_misses": _PREPARED.misses,
        "factor_entries": len(_PREPARED),
        "program_hits": _PROGRAMS.hits,
        "program_misses": _PROGRAMS.misses,
        "program_entries": len(_PROGRAMS),
        "fused_cert_hits": _FUSED_CERTS.hits,
        "fused_cert_misses": _FUSED_CERTS.misses,
        "fused_cert_entries": len(_FUSED_CERTS),
        "panels_hits": _PANELS.hits,
        "panels_misses": _PANELS.misses,
        "panels_entries": len(_PANELS),
    }
