"""Property test: the certifier flags every plan mutant, never the pristine.

Hypothesis draws a mutation kind and its target (which reduction list
to permute, which scatter index to shift, by how much) against a fixed
small plan; every drawn mutant, compiled into a level program, must
produce at least one ERROR finding, while the untouched plan certifies
clean on every example.  Both mutations change the schedule's semantics,
so both must change the determinism digest.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exec.plan import build_plan, compile_level_program
from repro.sparse.generators import grid2d_laplacian
from repro.symbolic.analyze import analyze
from repro.verify.schedule import certify_level_program, plan_digest

SYM = analyze(grid2d_laplacian(6))
PLAN = build_plan(SYM.stree)
PRISTINE_DIGEST = plan_digest(PLAN)

_MULTI_CHILD = [i for i, s in enumerate(PLAN.steps) if len(s.children) >= 2]
_SCATTERED = [
    (si, ci)
    for si, s in enumerate(PLAN.steps)
    for ci, idx in enumerate(s.child_scatter)
    if idx.size
]


def _permute_reduction(draw):
    si = draw(st.sampled_from(_MULTI_CHILD))
    step = PLAN.steps[si]
    k = len(step.children)
    perm = draw(st.permutations(range(k)).filter(lambda p: list(p) != list(range(k))))
    steps = list(PLAN.steps)
    steps[si] = dataclasses.replace(
        step,
        children=tuple(step.children[j] for j in perm),
        child_scatter=tuple(step.child_scatter[j] for j in perm),
    )
    return dataclasses.replace(PLAN, steps=steps)


def _shift_scatter(draw):
    si, ci = draw(st.sampled_from(_SCATTERED))
    step = PLAN.steps[si]
    idx = step.child_scatter[ci].copy()
    k = draw(st.integers(0, idx.size - 1))
    idx[k] += draw(st.sampled_from([-3, -1, 1, 2, 5]))
    scatters = list(step.child_scatter)
    scatters[ci] = idx
    steps = list(PLAN.steps)
    steps[si] = dataclasses.replace(step, child_scatter=tuple(scatters))
    return dataclasses.replace(PLAN, steps=steps)


_MUTATORS = {
    "permute-reduction": _permute_reduction,
    "shift-scatter": _shift_scatter,
}


def _certify(plan):
    return certify_level_program(compile_level_program(plan), plan, SYM.stree)


@st.composite
def mutants(draw):
    kind = draw(st.sampled_from(sorted(_MUTATORS)))
    return kind, _MUTATORS[kind](draw)


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutant=mutants())
def test_certifier_flags_every_mutant(mutant):
    kind, plan = mutant
    pristine = _certify(PLAN)
    assert pristine.ok, pristine.report.render()
    assert pristine.digest == PRISTINE_DIGEST

    cert = _certify(plan)
    assert not cert.ok, f"{kind} mutant certified clean"
    # Anything that changes the hashed schedule must change the hash.
    assert cert.digest != PRISTINE_DIGEST


def test_fixture_has_all_mutation_targets():
    # The strategies above assume the base plan is rich enough to mutate.
    assert _MULTI_CHILD and _SCATTERED
    assert any(PLAN.steps[si].child_scatter[ci].size >= 2 for si, ci in _SCATTERED)


def test_scatter_shift_cannot_be_a_noop():
    # Every ±shift of a valid scatter index lands on a different parent
    # row (rows are strictly increasing), so the mapping check must fire.
    for si, ci in _SCATTERED:
        step = PLAN.steps[si]
        rows = np.concatenate(
            [np.arange(step.col_lo, step.col_hi, dtype=np.int64), step.below]
        )
        assert np.all(np.diff(rows) > 0)
