"""Read/write effect summaries for execution-plan supernodes.

The fused backend (:mod:`repro.exec.fused`) runs an
:class:`~repro.exec.plan.ExecPlan` as a chain of elimination-tree
levels; its correctness argument is that the level barriers order every
access that two supernodes share.  This module makes that argument
checkable: it derives, purely from the plan's column ranges and scatter
indices, exactly which locations every supernode reads and writes in
each sweep, tagged with the level the node runs in.

Three address spaces cover everything a sweep touches (the
right-hand-side *column* dimension is never split — every access spans
all ``nrhs`` columns — so row indices alone discriminate):

``("x",)``
    The shared solution block, indexed by global row ``0..n-1``.  The
    forward sweep reads and writes each supernode's own column range;
    the backward sweep additionally reads the ancestor rows ``below``.
``("contrib", c)``
    Supernode ``c``'s contribution buffer, indexed by the *global* rows
    it updates (``c``'s below-rows).  Written once by ``c``, read once
    by ``c``'s parent (the scatter).
``("acc", s)``
    Supernode ``s``'s local accumulator, indexed by local trapezoid row.
    Private to the node by construction — it appears in summaries so
    scatter indices can be bounds-checked against the trapezoid height.

:func:`effect_conflicts` then reports every pair of effects from
*different* supernodes that overlaps on a space with at least one write
— the exact pair set the level-order check in
:mod:`repro.verify.schedule` must prove ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.exec.plan import ExecPlan

FORWARD = "forward"
BACKWARD = "backward"
READ = "read"
WRITE = "write"

#: The shared solution block (rows of ``x`` / ``y``).
X_SPACE: tuple = ("x",)


def contrib_space(node: int) -> tuple:
    """The contribution buffer produced by supernode *node*."""
    return ("contrib", int(node))


def acc_space(node: int) -> tuple:
    """The node-local accumulator of supernode *node*."""
    return ("acc", int(node))


@dataclass(frozen=True)
class Effect:
    """One read or write of one index set in one address space.

    ``level`` is the elimination-tree level the access runs in, ``node``
    the supernode whose step performs the access, ``rows`` the affected
    indices (global rows for ``x``/``contrib`` spaces, local trapezoid
    rows for ``acc``).  The summaries built here list them ascending.
    """

    level: int
    node: int
    phase: str
    mode: str
    space: tuple
    rows: np.ndarray

    def describe(self) -> str:
        space = self.space[0] if self.space == X_SPACE else f"{self.space[0]}[{self.space[1]}]"
        return (
            f"{self.mode} of {space} rows {format_index_set(self.rows)} "
            f"by supernode {self.node} (level {self.level})"
        )


def _cols(lo: int, hi: int) -> np.ndarray:
    return np.arange(lo, hi, dtype=np.int64)


def forward_effects(plan: "ExecPlan") -> list[Effect]:
    """Effect summary of the forward sweep (``L y = b``), node by node.

    Each node reads its own slice of ``y`` and every child's
    contribution buffer, scatters into its private accumulator, writes
    its own ``y`` slice back, and (when it has below-rows) writes its own
    contribution buffer.
    """
    out: list[Effect] = []
    level = np.asarray(plan.node_level).tolist()
    for st in plan.steps:
        s, lv = st.s, level[st.s]
        if st.t:
            cols = _cols(st.col_lo, st.col_hi)
            out.append(Effect(lv, s, FORWARD, READ, X_SPACE, cols))
            out.append(Effect(lv, s, FORWARD, WRITE, X_SPACE, cols))
        for c, idx in zip(st.children, st.child_scatter):
            out.append(
                Effect(lv, s, FORWARD, READ, contrib_space(c), plan.steps[c].below)
            )
            out.append(Effect(lv, s, FORWARD, WRITE, acc_space(s), np.sort(idx)))
        if st.n > st.t:
            out.append(Effect(lv, s, FORWARD, WRITE, contrib_space(s), st.below))
    return out


def backward_effects(plan: "ExecPlan") -> list[Effect]:
    """Effect summary of the backward sweep (``L^T x = y``), node by node.

    Each node gathers the already-solved ancestor rows ``x[below]``,
    then solves and writes its own column range.  No contribution
    buffers exist in this sweep.
    """
    out: list[Effect] = []
    level = np.asarray(plan.node_level).tolist()
    for st in plan.steps:
        if not st.t:
            continue
        s, lv = st.s, level[st.s]
        cols = _cols(st.col_lo, st.col_hi)
        if st.n > st.t:
            out.append(Effect(lv, s, BACKWARD, READ, X_SPACE, st.below))
        out.append(Effect(lv, s, BACKWARD, READ, X_SPACE, cols))
        out.append(Effect(lv, s, BACKWARD, WRITE, X_SPACE, cols))
    return out


def effect_conflicts(
    effects: list[Effect],
) -> list[tuple[Effect, Effect, np.ndarray]]:
    """Every conflicting effect pair, with the overlapping index set.

    Two effects conflict when they name the same space, come from
    different supernodes, overlap on at least one index, and at least
    one of them is a write.  Pairs within one supernode are excluded:
    a node's own read-then-write sequence (and the legitimate ``+=``
    scatter reduction into its accumulator) is sequential by
    construction.  Same-*level* pairs across different nodes are
    included — the schedule checker validates their program order.

    Returns ``(a, b, overlap)`` triples grouped by space in order of
    first appearance, then by the positions of ``a`` before ``b`` in
    *effects*; ``overlap`` holds the shared indices ascending, once each.
    Row order and duplicates inside an effect do not matter.

    One sorted sweep finds them all: every ``(space, row, effect)``
    entry is sorted by space and row, and candidate pairs are formed
    only inside row groups that hold a write and at least two
    supernodes.  The cost is ``O(R log R + P)`` for ``R`` row entries
    and ``P`` overlapping ``(pair, row)`` entries — no pairwise scan.
    """
    if not effects:
        return []
    spaces: dict[tuple, int] = {}
    count = len(effects)
    space = np.fromiter(
        (spaces.setdefault(e.space, len(spaces)) for e in effects), np.int64, count
    )
    node = np.fromiter((e.node for e in effects), np.int64, count)
    write = np.fromiter((e.mode == WRITE for e in effects), bool, count)
    sizes = np.fromiter((e.rows.size for e in effects), np.int64, count)
    if not sizes.any():
        return []

    # Entries sorted by (space, row); the stable sort keeps effect order.
    rows = np.concatenate([e.rows for e in effects if e.rows.size])
    eff = np.repeat(np.arange(count), sizes)
    key = space[eff]
    perm = np.lexsort((rows, key))
    rows, eff, key = rows[perm], eff[perm], key[perm]
    fresh = np.ones(rows.size, dtype=bool)
    fresh[1:] = (rows[1:] != rows[:-1]) | (key[1:] != key[:-1])
    keep = fresh.copy()
    keep[1:] |= eff[1:] != eff[:-1]
    rows, eff, fresh = rows[keep], eff[keep], fresh[keep]

    # Row groups; only those with a write and two supernodes can conflict.
    starts = np.flatnonzero(fresh)
    glen = np.diff(np.append(starts, rows.size))
    enode, ewrite = node[eff], write[eff]
    live = np.maximum.reduceat(ewrite, starts) & (
        np.minimum.reduceat(enode, starts) != np.maximum.reduceat(enode, starts)
    )
    group = np.cumsum(fresh) - 1

    # Every write entry of a live group meets each other entry of it once:
    # a read always, a write only when it sorts later (each pair once).
    src = np.flatnonzero(ewrite & live[group])
    fan = glen[group[src]] - 1
    p = np.repeat(src, fan)
    q = np.arange(p.size) - np.repeat(np.cumsum(fan) - fan, fan)
    q += starts[group[p]]
    q += q >= p
    hit = (enode[p] != enode[q]) & (~ewrite[q] | (q > p))
    p, q = p[hit], q[hit]
    if not p.size:
        return []
    a = np.minimum(eff[p], eff[q])
    b = np.maximum(eff[p], eff[q])
    rows = rows[p]
    order = np.lexsort((rows, b, a, space[a]))
    a, b, rows = a[order], b[order], rows[order]
    heads = np.flatnonzero(np.diff(a, prepend=-1) | np.diff(b, prepend=-1))
    bounds = np.append(heads, a.size).tolist()
    return [
        (effects[i], effects[j], rows[lo:hi])
        for i, j, lo, hi in zip(
            a[heads].tolist(), b[heads].tolist(), bounds[:-1], bounds[1:]
        )
    ]


def format_index_set(rows: np.ndarray) -> str:
    """Compact run-length rendering of a sorted index set: ``[3..7, 12]``."""
    if rows.size == 0:
        return "[]"
    parts: list[str] = []
    start = prev = int(rows[0])
    for r in rows[1:]:
        r = int(r)
        if r == prev + 1:
            prev = r
            continue
        parts.append(f"{start}..{prev}" if prev > start else f"{start}")
        start = prev = r
    parts.append(f"{start}..{prev}" if prev > start else f"{start}")
    return "[" + ", ".join(parts) + "]"


__all__ = [
    "BACKWARD",
    "FORWARD",
    "READ",
    "WRITE",
    "X_SPACE",
    "Effect",
    "acc_space",
    "backward_effects",
    "contrib_space",
    "effect_conflicts",
    "format_index_set",
    "forward_effects",
]
