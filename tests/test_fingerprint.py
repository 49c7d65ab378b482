"""Collision and staleness suite for the one content fingerprint.

:func:`repro.schedule.fingerprint` keys the schedule cache, the
:func:`repro.runtime.plan.plan_for` memo and saved schedules. It must
collide exactly when the reuse contract holds — same kernel classes,
variables and operand patterns, same parameters — and differ on any
change that could alter a schedule or a plan, so that no consumer is
ever handed an artefact built for another pattern or order.
"""

import gc

import numpy as np
import pytest

from repro import fuse
from repro.fusion import build_combination
from repro.fusion import fused as fused_mod
from repro.kernels import SpMVCSR, SpTRSVCSR
from repro.obs import recording
from repro.runtime import (
    compile_plan,
    execute_schedule,
    execute_schedule_planned,
    plan_for,
    run_reference,
)
from repro.schedule import FusedSchedule, ScheduleCache
from repro.sparse import CSRMatrix, random_lower_triangular


class SpMVCSRVariant(SpMVCSR):
    """Same variables and operand as SpMVCSR; differs only by class."""


def _chain(a, *, y_var="z", mv=SpMVCSR):
    return [SpTRSVCSR(a), mv(a, x_var="x", y_var=y_var)]


def _move_one_index(a: CSRMatrix) -> CSRMatrix:
    """Copy of lower-triangular *a* with one off-diagonal column index
    moved one place left (still sorted, unique and lower-triangular)."""
    first = a.indices[a.indptr[:-1]]
    row = int(np.nonzero((np.diff(a.indptr) >= 2) & (first >= 1))[0][0])
    indices = a.indices.copy()
    indices[a.indptr[row]] -= 1
    return CSRMatrix(a.n_rows, a.n_cols, a.indptr, indices, a.data)


def _key(kernels, r=4, **kwargs):
    return fuse(kernels, r, validate=False, **kwargs).meta["fingerprint"]


@pytest.fixture
def lower():
    return random_lower_triangular(150, 3.0, seed=3)


def test_same_pattern_new_values_reuses_schedule_and_plan(lap2d_nd):
    cache = ScheduleCache()
    k1, s1 = build_combination(4, lap2d_nd, seed=1)
    f1 = fuse(k1, 4, cache=cache)
    p1 = plan_for(f1.schedule, k1)
    # new values on the same pattern, new kernel objects
    values = lap2d_nd.copy()
    values.data[:] *= 1.5
    k2, s2 = build_combination(4, values, seed=2)
    with recording() as rec:
        f2 = fuse(k2, 4, cache=cache)
        p2 = plan_for(f2.schedule, k2)
    assert f2.meta["fingerprint"] == f1.meta["fingerprint"]
    assert f2.meta["cache"] == "hit"
    assert rec.counter("plan.cache_hits") == 1
    assert rec.counter("plan.cache_misses") == 0
    assert p2 is p1
    want = run_reference(k2, {k: v.copy() for k, v in s2.items()})
    got = execute_schedule_planned(f2.schedule, k2, s2)
    for var in want:
        if not var.startswith("_"):
            assert np.allclose(got[var], want[var], rtol=1e-10, atol=1e-12), var


@pytest.mark.parametrize(
    "change",
    [
        "indices",
        "state_variable",
        "kernel_class",
        "n_threads",
        "scheduler",
        "scheduler_kwargs",
        "reuse_ratio",
    ],
)
def test_every_input_change_changes_the_key(lower, change):
    base = _key(_chain(lower))
    if change == "indices":
        other = _key(_chain(_move_one_index(lower)))
    elif change == "state_variable":
        other = _key(_chain(lower, y_var="w"))
    elif change == "kernel_class":
        other = _key(_chain(lower, mv=SpMVCSRVariant))
    elif change == "n_threads":
        other = _key(_chain(lower), r=8)
    elif change == "scheduler":
        other = _key(_chain(lower), scheduler="joint-wavefront")
    elif change == "scheduler_kwargs":
        other = _key(_chain(lower), initial_cut=2)
    else:
        fl = fuse(_chain(lower), 4, validate=False)
        other = _key(_chain(lower), reuse_ratio=fl.reuse_ratio + 1.0)
    assert other != base


def test_changed_key_misses_the_schedule_cache(lower):
    cache = ScheduleCache()
    assert fuse(_chain(lower), 4, cache=cache).meta["cache"] == "miss"
    assert fuse(_chain(lower), 4, cache=cache).meta["cache"] == "hit"
    moved = fuse(_chain(_move_one_index(lower)), 4, cache=cache)
    assert moved.meta["cache"] == "miss"
    moved.validate()


def test_gc_recycled_kernels_never_get_the_old_plan(rng):
    """A kernel list freed and replaced by one on a different pattern
    (object ids may be recycled) compiles its own plan."""
    n = 120
    # one sequential w-partition in program order: valid for any pair of
    # lower-triangular loops of this size, so both lists share it
    sched = FusedSchedule((n, n), [[np.arange(2 * n, dtype=np.int64)]])
    kernels = _chain(random_lower_triangular(n, 3.0, seed=1))
    old = plan_for(sched, kernels)
    old_steps = [st.iters.copy() for st in old.steps]
    del kernels
    gc.collect()
    a = random_lower_triangular(n, 3.0, seed=2)
    kernels = _chain(a)
    new = plan_for(sched, kernels)
    assert new is not old
    fresh = compile_plan(sched, kernels)
    assert len(new.steps) == len(fresh.steps)
    for got, want in zip(new.steps, fresh.steps):
        assert got.kind == want.kind and np.array_equal(got.iters, want.iters)
    assert len(old_steps) != len(new.steps) or any(
        not np.array_equal(it, st.iters) for it, st in zip(old_steps, new.steps)
    )
    state = {v: rng.random(s) for k in kernels for v, s in k.var_sizes().items()}
    state["Lx"][:] = state["Ax"][:] = a.data
    want = execute_schedule(sched, kernels, {k: v.copy() for k, v in state.items()})
    got = execute_schedule_planned(sched, kernels, state)
    for var in want:
        assert np.allclose(got[var], want[var], rtol=1e-10, atol=1e-12), var


def _adjacent_swappable(schedule, kernels):
    """(s, w, p): positions p, p+1 of w-partition (s, w) hold two
    iterations of one loop on the same intra-DAG level — independent,
    so swapping them keeps the schedule valid."""
    offsets = schedule.offsets
    levels = [k.intra_dag().levels() for k in kernels]
    for s, w, verts in schedule.iter_all():
        loops = np.searchsorted(offsets, verts, side="right") - 1
        for p in range(verts.shape[0] - 1):
            k = loops[p]
            if loops[p + 1] != k:
                continue
            i, j = verts[p] - offsets[k], verts[p + 1] - offsets[k]
            if levels[k][i] == levels[k][j]:
                return s, w, p
    raise AssertionError("no swappable pair")


def test_copy_shares_plan_until_mutated(lap2d_nd):
    kernels, state = build_combination(1, lap2d_nd, seed=3)
    fl = fuse(kernels, 4)
    plan = plan_for(fl.schedule, kernels)
    assert plan_for(fl.schedule.copy(), kernels) is plan
    swapped = fl.schedule.copy()
    s, w, p = _adjacent_swappable(swapped, kernels)
    verts = swapped.s_partitions[s][w]
    verts[[p, p + 1]] = verts[[p + 1, p]]
    with recording() as rec:
        stale_free = plan_for(swapped, kernels)
    assert rec.counter("plan.cache_misses") == 1
    assert stale_free is not plan
    fresh = compile_plan(swapped, kernels)
    for got, want in zip(stale_free.steps, fresh.steps):
        assert np.array_equal(got.iters, want.iters)
    fl.schedule = swapped
    fl.validate()
    want = execute_schedule(swapped, kernels, {k: v.copy() for k, v in state.items()})
    got = execute_schedule_planned(swapped, kernels, state)
    for var in want:
        if not var.startswith("_"):
            assert np.allclose(got[var], want[var], atol=1e-12), var


def test_cache_hit_never_inspects(lower, monkeypatch):
    calls = []
    original = fused_mod.inspect_loops

    def counting(kernels, **kwargs):
        calls.append(len(kernels))
        return original(kernels, **kwargs)

    monkeypatch.setattr(fused_mod, "inspect_loops", counting)
    cache = ScheduleCache()
    fuse(_chain(lower), 4, cache=cache, validate=False)
    assert len(calls) == 1  # the miss inspects
    hit = fuse(_chain(lower), 4, cache=cache, validate=False)
    assert hit.meta["cache"] == "hit" and len(calls) == 1
    # DAGs and F are built on first access, once, for validate & co.
    hit.validate()
    assert len(calls) == 2
    assert hit.inter and hit.dags
    assert len(calls) == 2
    # the default validate=True still checks a hit, over lazily built DAGs/F
    assert fuse(_chain(lower), 4, cache=cache).meta["cache"] == "hit"
    assert len(calls) == 3
