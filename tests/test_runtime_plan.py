"""Compiled-plan executor: equivalence, memoization, degenerate schedules.

The equivalence contract (docs/performance.md): for kernels whose batch
arithmetic is elementwise or preserves the scalar accumulation order
(DSCAL, SpIC0, SpILU0, the CSC/push solves), planned execution is
**bitwise identical** to the per-iteration oracle; for kernels whose
row reductions switch from ``np.dot`` to ``np.add.reduceat`` (CSR
gather kernels), results agree to tight tolerance — association order
is the only difference.
"""

import numpy as np
import pytest

from repro import fuse
from repro.fusion import COMBINATIONS, build_combination
from repro.kernels import SpTRSVCSR, internal_var
from repro.runtime import (
    allocate_state,
    compile_plan,
    execute_schedule,
    execute_schedule_planned,
    plan_for,
)
from repro.obs import recording
from repro.schedule import FusedSchedule


def _run_both(schedule, kernels, state, plan=None):
    st1 = {k: v.copy() for k, v in state.items()}
    st2 = {k: v.copy() for k, v in state.items()}
    execute_schedule(schedule, kernels, st1)
    execute_schedule_planned(schedule, kernels, st2, plan=plan)
    return st1, st2


class TestEquivalence:
    @pytest.mark.parametrize("cid", sorted(COMBINATIONS))
    def test_matches_per_iteration_all_combos(self, cid, lap3d_nd):
        kernels, state = build_combination(cid, lap3d_nd, seed=cid)
        fl = fuse(kernels, 8)
        st1, st2 = _run_both(fl.schedule, kernels, state)
        for var in st1:
            if internal_var(var):
                continue
            assert np.allclose(st1[var], st2[var], atol=1e-12), (cid, var)

    @pytest.mark.parametrize("cid", sorted(COMBINATIONS))
    def test_matches_on_band_matrix(self, cid, band_small):
        """Deep narrow DAG: most levels are single-vertex (scalar path)."""
        kernels, state = build_combination(cid, band_small, seed=cid)
        fl = fuse(kernels, 4)
        st1, st2 = _run_both(fl.schedule, kernels, state)
        for var in st1:
            if internal_var(var):
                continue
            assert np.allclose(st1[var], st2[var], atol=1e-12), (cid, var)

    @pytest.mark.parametrize("cid", (1, 3))
    @pytest.mark.parametrize("scheduler", ("ico", "joint-wavefront"))
    def test_matches_per_iteration_by_scheduler(self, cid, scheduler, lap2d_nd):
        """Schedules of the joint-DAG wavefront scheduler as well as ICO."""
        kernels, state = build_combination(cid, lap2d_nd, seed=cid)
        fl = fuse(kernels, 6, scheduler=scheduler)
        st1, st2 = _run_both(fl.schedule, kernels, state)
        for var in st1:
            assert np.allclose(st1[var], st2[var], atol=1e-12), (
                cid,
                scheduler,
                var,
            )

    def test_factorizations_bitwise(self, lap3d_nd):
        """SpIC0/SpILU0 level batches replay the exact scalar update
        order — not just close, identical."""
        for cid in (2, 6):  # the factorization combinations
            kernels, state = build_combination(cid, lap3d_nd, seed=cid)
            fl = fuse(kernels, 8)
            st1, st2 = _run_both(fl.schedule, kernels, state)
            for kern in kernels:
                if type(kern).__name__ in ("SpIC0", "SpILU0", "DScalCSR", "DScalCSC"):
                    for var in kern.write_vars:
                        assert np.array_equal(st1[var], st2[var]), (
                            cid,
                            type(kern).__name__,
                            var,
                        )

    def test_huge_min_batch_is_bitwise_scalar(self, lap2d_nd, monkeypatch):
        """MIN_BATCH beyond every group size forces the scalar path,
        which must be bitwise-faithful to the packed order."""
        monkeypatch.setattr("repro.runtime.plan.MIN_BATCH", 10**9)
        kernels, state = build_combination(3, lap2d_nd, seed=1)
        fl = fuse(kernels, 4)
        st1, st2 = _run_both(fl.schedule, kernels, state)
        assert plan_for(fl.schedule, kernels).n_scalar_iterations == sum(
            fl.schedule.loop_counts
        )
        for var in st1:
            assert np.array_equal(st1[var], st2[var]), var

    @pytest.mark.parametrize("scheduler", ("ico", "joint-wavefront"))
    def test_ic0_forward_backward_chain(self, scheduler, lap2d_nd, rng):
        """The PCG preconditioner chain: forward then backward SpTRSV."""
        from repro.solvers import build_ic0_preconditioner

        fused, state = build_ic0_preconditioner(
            lap2d_nd, 4, scheduler=scheduler
        )
        state["r"][:] = rng.random(lap2d_nd.n_rows)
        st1, st2 = _run_both(fused.schedule, fused.kernels, state)
        assert np.allclose(st1["z"], st2["z"], atol=1e-12)

    def test_step_kind_names_the_loop(self, lap3d_nd):
        """``"level"`` steps belong to loops with intra-DAG edges and
        ``"batch"`` steps to dependence-free loops; both dispatch
        ``run_level_batch``, and the plan counts them apart."""
        kernels, _ = build_combination(3, lap3d_nd, seed=1)  # TRSV -> SpMV
        plan = compile_plan(fuse(kernels, 8).schedule, kernels)
        kinds = {(s.loop, s.kind) for s in plan.steps if s.kind != "scalar"}
        assert kinds == {(0, "level"), (1, "batch")}
        assert plan.n_level_steps == sum(s.kind == "level" for s in plan.steps)
        assert plan.n_batch_steps == sum(s.kind == "batch" for s in plan.steps)

    def test_planned_deterministic_across_runs(self, lap3d_nd):
        """Two planned executions of the same plan are bitwise equal."""
        kernels, state = build_combination(3, lap3d_nd, seed=5)
        fl = fuse(kernels, 8)
        st1 = {k: v.copy() for k, v in state.items()}
        st2 = {k: v.copy() for k, v in state.items()}
        execute_schedule_planned(fl.schedule, kernels, st1)
        execute_schedule_planned(fl.schedule, kernels, st2)
        for var in st1:
            assert np.array_equal(st1[var], st2[var]), var


@pytest.fixture(scope="module")
def lap2d_natural():
    """Naturally ordered 2-D Laplacian (16x16): many narrow
    s-partitions, each spanning several w-partitions."""
    from repro.sparse import laplacian_2d

    return laplacian_2d(16)


def _levels_touched(schedule, kernels, per_w):
    """Steps a plan needs: per unit and loop, the number of intra-DAG
    levels the loop touches there."""
    offsets = schedule.offsets
    levels = [k.intra_dag().levels() for k in kernels]
    total = 0
    for wlist in schedule.s_partitions:
        units = wlist if per_w else [np.concatenate(wlist)]
        for verts in units:
            for k in range(len(kernels)):
                own = verts[(verts >= offsets[k]) & (verts < offsets[k + 1])]
                total += np.unique(levels[k][own - offsets[k]]).size
    return total


class TestCoalescing:
    """One step per (s-partition, loop, level) below
    ``COALESCE_MAX_VERTICES``, one per w-partition above it."""

    def test_steps_are_levels_touched_per_s_partition(self, lap2d_natural):
        kernels, _ = build_combination(1, lap2d_natural, seed=1)
        sched = fuse(kernels, 8).schedule
        plan = compile_plan(sched, kernels)
        assert max(len(w) for w in sched.s_partitions) >= 2
        assert plan.n_steps == _levels_touched(sched, kernels, per_w=False)
        assert plan.n_steps < _levels_touched(sched, kernels, per_w=True)

    def test_large_s_partition_keeps_per_w_steps(self, lap2d_nd, monkeypatch):
        kernels, state = build_combination(1, lap2d_nd, seed=1)
        sched = fuse(kernels, 6).schedule
        sizes = [sum(w.shape[0] for w in wl) for wl in sched.s_partitions]
        monkeypatch.setattr(
            "repro.runtime.plan.COALESCE_MAX_VERTICES", max(sizes) - 1
        )
        plan = compile_plan(sched, kernels)
        _, wp, _ = sched.assignment()
        big = int(np.argmax(sizes))
        assert len(sched.s_partitions[big]) >= 2
        spans = [
            np.unique(wp[st.iters + sched.offsets[st.loop]]).size
            for st in plan.steps
            if st.s == big
        ]
        assert spans and max(spans) == 1
        monkeypatch.setattr("repro.runtime.plan.COALESCE_MAX_VERTICES", -1)
        per_w = compile_plan(sched, kernels)
        assert sum(st.s == big for st in plan.steps) == sum(
            st.s == big for st in per_w.steps
        )
        st1, st2 = _run_both(sched, kernels, state, plan)
        for var in st1:
            assert np.allclose(st1[var], st2[var], atol=1e-12), var

    @pytest.mark.parametrize("cid", (1, 3, 4, 5))
    @pytest.mark.parametrize("ordering", ("natural", "nd"))
    @pytest.mark.parametrize("cap", (None, -1), ids=("coalesced", "per-w"))
    def test_matches_iter(self, cid, ordering, cap, lap2d_natural, monkeypatch):
        from repro.sparse import apply_ordering

        if cap is not None:
            monkeypatch.setattr("repro.runtime.plan.COALESCE_MAX_VERTICES", cap)
        a = lap2d_natural
        if ordering != "natural":
            a, _ = apply_ordering(a, ordering)
        kernels, state = build_combination(cid, a, seed=cid)
        sched = fuse(kernels, 8).schedule
        # a local plan: plan_for's memo ignores the patched constant
        st1, st2 = _run_both(sched, kernels, state, compile_plan(sched, kernels))
        for var in st1:
            if internal_var(var):
                continue
            assert np.allclose(st1[var], st2[var], atol=1e-12), (cid, var)


class TestDegenerateSchedules:
    def test_empty_w_partitions(self, lap2d_nd, rng):
        """Schedules may carry empty w-partitions; the compiler must
        skip them without emitting steps."""
        low = lap2d_nd.lower_triangle()
        kern = SpTRSVCSR(low)
        wf = kern.intra_dag().wavefronts()
        empty = np.empty(0, dtype=np.int64)
        s_partitions = [[w.astype(np.int64), empty, empty] for w in wf]
        sched = FusedSchedule((kern.n_iterations,), s_partitions)
        state = allocate_state([kern])
        state["Lx"][:] = low.data
        state["b"][:] = rng.random(low.n_rows)
        st1, st2 = _run_both(sched, [kern], state)
        assert np.allclose(st1["x"], st2["x"], atol=1e-13)

    def test_single_vertex_levels(self, rng):
        """A fully sequential chain: every level batch degenerates to
        one iteration and takes the scalar path."""
        from repro.sparse import banded_spd

        a = banded_spd(60, 1)  # tridiagonal -> pure chain
        low = a.lower_triangle()
        kern = SpTRSVCSR(low)
        sched = FusedSchedule(
            (kern.n_iterations,),
            [[np.arange(kern.n_iterations, dtype=np.int64)]],
        )
        state = allocate_state([kern])
        state["Lx"][:] = low.data
        state["b"][:] = rng.random(low.n_rows)
        st1, st2 = _run_both(sched, [kern], state)
        assert np.array_equal(st1["x"], st2["x"])
        plan = compile_plan(sched, [kern])
        assert plan.n_level_steps == 0  # all single-vertex -> scalar

    def test_empty_loop(self):
        """Zero-iteration loops compile to an empty plan."""
        from repro.sparse import laplacian_2d
        from repro.kernels import SpMVCSR

        a = laplacian_2d(3)
        kern = SpMVCSR(a)
        sched = FusedSchedule((a.n_rows,), [[np.arange(a.n_rows, dtype=np.int64)]])
        plan = compile_plan(sched, [kern])
        assert plan.n_steps >= 1


class TestMemoization:
    def test_cache_hits_counted(self, lap2d_nd):
        kernels, state = build_combination(3, lap2d_nd, seed=0)
        fl = fuse(kernels, 4)
        with recording() as rec:
            st = {k: v.copy() for k, v in state.items()}
            execute_schedule_planned(fl.schedule, kernels, st)
            execute_schedule_planned(fl.schedule, kernels, st)
            execute_schedule_planned(fl.schedule, kernels, st)
        assert rec.counter("plan.cache_misses") == 1
        assert rec.counter("plan.cache_hits") == 2
        assert rec.counter("plan.compile_seconds") > 0

    def test_plan_identity_reused(self, lap2d_nd):
        kernels, _ = build_combination(1, lap2d_nd)
        fl = fuse(kernels, 4)
        assert plan_for(fl.schedule, kernels) is plan_for(fl.schedule, kernels)

    def test_mismatched_kernels_rejected(self, lap2d_nd):
        kernels, state = build_combination(1, lap2d_nd)
        bad = FusedSchedule((1,), [[np.array([0])]])
        with pytest.raises(ValueError):
            execute_schedule_planned(bad, kernels, state)

    def test_prebuilt_plan_for_other_loop_sizes_rejected(self):
        """A plan compiled for 64-iteration loops refuses kernels with 81
        iterations instead of running them on the wrong indices."""
        from repro.sparse import apply_ordering, laplacian_2d

        small, _ = apply_ordering(laplacian_2d(8), "nd")
        big, _ = apply_ordering(laplacian_2d(9), "nd")
        k_small, _ = build_combination(1, small)
        k_big, state = build_combination(1, big)
        plan = compile_plan(fuse(k_small, 4).schedule, k_small)
        fl = fuse(k_big, 4)
        with pytest.raises(ValueError, match="81 iterations, expected 64"):
            execute_schedule_planned(fl.schedule, k_big, state, plan=plan)

    def test_prebuilt_plan_for_other_pattern_rejected(self):
        """Equal loop counts are not enough: a plan compiled on ND lap2d
        8x8 refuses natural-order lap2d 8x8 kernels instead of running
        them on the wrong indices."""
        from repro.sparse import apply_ordering, laplacian_2d

        nat = laplacian_2d(8)
        nd, _ = apply_ordering(nat, "nd")
        k_nd, _ = build_combination(1, nd)
        k_nat, state = build_combination(1, nat)
        plan = compile_plan(fuse(k_nd, 4).schedule, k_nd)
        fl = fuse(k_nat, 4)
        with pytest.raises(ValueError, match="another sparsity pattern"):
            execute_schedule_planned(fl.schedule, k_nat, state, plan=plan)

    def test_prebuilt_plan_accepts_rebuilt_kernels(self, lap2d_nd):
        """Kernels rebuilt on new values of one pattern share the plan."""
        k1, _ = build_combination(1, lap2d_nd, seed=1)
        k2, state = build_combination(1, lap2d_nd, seed=2)
        sched = fuse(k1, 4).schedule
        plan = compile_plan(sched, k1)
        st = {k: v.copy() for k, v in state.items()}
        execute_schedule_planned(sched, k2, st, plan=plan)
        execute_schedule(sched, k2, state)
        assert np.allclose(st["z"], state["z"], atol=1e-12)


class TestSolverIntegration:
    def test_gs_planned_sweeps_match_iter(self, lap2d_nd, rng):
        """Repeated planned sweeps on evolving state — the cache-hit
        regime — stay consistent with the per-iteration executor."""
        from repro.solvers import build_gs_chain
        from repro.solvers.gauss_seidel import gs_split

        kernels, xi, xo = build_gs_chain(lap2d_nd, 2)
        fl = fuse(kernels, 6, validate=False)
        low, e = gs_split(lap2d_nd)
        st1 = allocate_state(kernels)
        st1["Lx"][:] = low.data
        st1["Ex"][:] = e.data
        st1["b"][:] = rng.random(lap2d_nd.n_rows)
        st2 = {k: v.copy() for k, v in st1.items()}
        for _ in range(10):
            execute_schedule(fl.schedule, kernels, st1)
            st1[xi][:] = st1[xo]
            execute_schedule_planned(fl.schedule, kernels, st2)
            st2[xi][:] = st2[xo]
        assert np.allclose(st1[xo], st2[xo], atol=1e-13)

    def test_gs_chain_matches_iter(self, lap2d_nd, rng):
        """One application of the unrolled GS chain (SpMV + TRSV
        alternation) agrees with the per-iteration executor."""
        from repro.solvers import build_gs_chain
        from repro.solvers.gauss_seidel import gs_split

        kernels, _, xo = build_gs_chain(lap2d_nd, 2)
        fl = fuse(kernels, 6, validate=False)
        low, e = gs_split(lap2d_nd)
        state = allocate_state(kernels)
        state["Lx"][:] = low.data
        state["Ex"][:] = e.data
        state["b"][:] = rng.random(lap2d_nd.n_rows)
        st1, st2 = _run_both(fl.schedule, kernels, state)
        assert np.allclose(st1[xo], st2[xo], atol=1e-13)

    def test_gauss_seidel_executor_plan(self, lap2d_nd, rng, monkeypatch):
        import importlib

        from repro.runtime import execute_schedule
        from repro.solvers import gauss_seidel

        gs_mod = importlib.import_module("repro.solvers.gauss_seidel")
        b = rng.random(lap2d_nd.n_rows)
        res = gauss_seidel(lap2d_nd, b, tol=1e-8)
        monkeypatch.setattr(
            gs_mod,
            "execute_schedule_planned",
            lambda sched, kernels, state, plan: execute_schedule(
                sched, kernels, state
            ),
        )
        ref = gauss_seidel(lap2d_nd, b, tol=1e-8)
        assert res.converged
        assert res.iterations == ref.iterations
        assert np.allclose(res.x, ref.x, atol=1e-10)

    def test_gauss_seidel_rejects_unknown_executor(self, lap2d_nd, rng):
        """The solver has no executor option: every solve runs the plan."""
        from repro.solvers import gauss_seidel

        b = rng.random(lap2d_nd.n_rows)
        for executor in ("bogus", "iter", "plan"):
            with pytest.raises(TypeError, match="executor"):
                gauss_seidel(lap2d_nd, b, executor=executor)


class TestWavefrontMemoization:
    def test_wavefronts_cached(self, lap2d_nd):
        dag = lap2d_nd.lower_triangle().to_csc()
        from repro.graph import DAG

        g = DAG.from_lower_triangular(dag)
        w1 = g.wavefronts()
        w2 = g.wavefronts()
        assert w1 is w2
        assert sum(w.shape[0] for w in w1) == g.n

    def test_wavefronts_match_levels(self, lap3d_nd):
        from repro.graph import DAG

        g = DAG.from_lower_triangular(lap3d_nd.lower_triangle().to_csc())
        lv = g.levels()
        for level, verts in enumerate(g.wavefronts()):
            assert np.all(lv[verts] == level)
            assert np.all(np.diff(verts) > 0)  # sorted ascending


class TestObsCounters:
    def test_executor_counters_recorded(self, lap3d_nd):
        kernels, state = build_combination(3, lap3d_nd, seed=3)
        fl = fuse(kernels, 8)
        with recording() as rec:
            execute_schedule_planned(fl.schedule, kernels, state)
        assert rec.counter("executor.batched_iterations") > 0
        assert rec.counter("executor.level_count") > 0
        names = [s.name for s in rec.spans]
        assert "plan.compile" in names
        assert "executor.run" in names
