"""Batched execution: array helpers, dependence-free batches, plan steps.

A compiled plan's ``"batch"`` steps (dependence-free loops) call
``run_level_batch`` on a whole w-partition's group; each kernel check
compares such a call with the per-iteration loop, and the executor
checks compare plans that take batch/level steps with the oracle."""

import numpy as np
import pytest

from repro import fuse
from repro.fusion import COMBINATIONS, build_combination
from repro.kernels import DScalCSR, SpMVCSC, SpMVCSR, internal_var
from repro.runtime import (
    allocate_state,
    compile_plan,
    execute_schedule,
    execute_schedule_planned,
)
from repro.schedule import FusedSchedule
from repro.utils import multi_range, segment_sums


class TestArrayHelpers:
    def test_multi_range_basic(self):
        out = multi_range(np.array([0, 10, 20]), np.array([2, 0, 3]))
        assert out.tolist() == [0, 1, 20, 21, 22]

    def test_multi_range_empty(self):
        assert multi_range(np.array([5]), np.array([0])).shape == (0,)

    def test_segment_sums_basic(self):
        out = segment_sums(np.array([1.0, 2.0, 3.0, 4.0]), np.array([2, 2]))
        assert out.tolist() == [3.0, 7.0]

    def test_segment_sums_empty_segments(self):
        out = segment_sums(
            np.array([1.0, 2.0, 3.0]), np.array([0, 2, 0, 1, 0])
        )
        assert out.tolist() == [0.0, 3.0, 0.0, 3.0, 0.0]

    def test_segment_sums_trailing_empty_regression(self):
        """The reduceat clipping bug: a trailing empty segment must not
        steal the final element of the preceding segment."""
        out = segment_sums(np.array([1.0, 2.0]), np.array([2, 0]))
        assert out.tolist() == [3.0, 0.0]

    def test_segment_sums_all_empty(self):
        assert segment_sums(np.empty(0), np.array([0, 0])).tolist() == [0, 0]


class TestRunBatch:
    def test_spmv_csr_batch_equals_loop(self, lap2d_nd, rng):
        k = SpMVCSR(lap2d_nd, add_var="c")
        st = allocate_state([k])
        st["Ax"][:] = lap2d_nd.data
        st["x"][:] = rng.random(lap2d_nd.n_cols)
        st["c"][:] = rng.random(lap2d_nd.n_rows)
        ref = {v: a.copy() for v, a in st.items()}
        for i in range(k.n_iterations):
            k.run_iteration(i, ref)
        iters = rng.permutation(k.n_iterations)
        k.run_level_batch(iters, st)
        assert np.allclose(st["y"], ref["y"])

    def test_spmv_csr_batch_with_empty_rows(self, rng):
        """Strict-upper operands have an empty last row — the regression
        that surfaced the segment_sums bug via Gauss-Seidel."""
        from repro.sparse import laplacian_2d
        from repro.solvers.gauss_seidel import gs_split

        a = laplacian_2d(6)
        _, e = gs_split(a)
        k = SpMVCSR(e, add_var="c")
        st = allocate_state([k])
        st["Ax"][:] = e.data
        st["x"][:] = rng.random(e.n_cols)
        st["c"][:] = rng.random(e.n_rows)
        k.run_level_batch(np.arange(k.n_iterations), st)
        assert np.allclose(st["y"], e.to_dense() @ st["x"] + st["c"])

    def test_spmv_csc_batch_equals_loop(self, lap2d_nd, rng):
        csc = lap2d_nd.to_csc()
        k = SpMVCSC(csc)
        st = allocate_state([k])
        st["Ax"][:] = csc.data
        st["x"][:] = rng.random(csc.n_cols)
        k.setup(st)
        k.run_level_batch(np.arange(k.n_iterations), st)
        assert np.allclose(st["y"], lap2d_nd.to_dense() @ st["x"])

    def test_dscal_batch_equals_loop(self, lap2d_nd):
        k = DScalCSR(lap2d_nd)
        st = allocate_state([k])
        st["Ax"][:] = lap2d_nd.data
        ref = {v: a.copy() for v, a in st.items()}
        k.run_reference(ref)
        k.run_level_batch(np.arange(k.n_iterations), st)
        assert np.allclose(st["Sx"], ref["Sx"])

    def test_default_run_batch_falls_back(self, lap2d_nd, rng):
        """The base-class ``run_level_batch`` runs *iters* one by one, in
        order — correct even across a dependence chain."""
        from repro.kernels import Kernel, SpTRSVCSR

        low = lap2d_nd.lower_triangle()
        k = SpTRSVCSR(low)
        st = allocate_state([k])
        st["Lx"][:] = low.data
        st["b"][:] = rng.random(low.n_rows)
        Kernel.run_level_batch(k, np.arange(k.n_iterations), st)
        assert np.allclose(np.tril(low.to_dense()) @ st["x"], st["b"])


class TestBatchedExecutor:
    """The plan executor's batched (``"batch"``/``"level"``) steps."""

    @pytest.mark.parametrize("cid", sorted(COMBINATIONS))
    def test_matches_per_iteration_everywhere(self, cid, lap3d_nd):
        kernels, state = build_combination(cid, lap3d_nd, seed=cid)
        fl = fuse(kernels, 8)
        plan = compile_plan(fl.schedule, kernels)
        assert plan.n_batched_iterations > 0, cid  # batching really ran
        st1 = {k: v.copy() for k, v in state.items()}
        st2 = {k: v.copy() for k, v in state.items()}
        execute_schedule(fl.schedule, kernels, st1)
        execute_schedule_planned(fl.schedule, kernels, st2, plan=plan)
        for var in st1:
            if internal_var(var):
                continue
            assert np.allclose(st1[var], st2[var], atol=1e-12), (cid, var)

    def test_repeated_execution_stays_consistent(self, lap2d_nd, rng):
        """Re-running one prebuilt plan on evolving state (the solver
        pattern: ``compile_plan`` once, ``plan=`` on every sweep)."""
        from repro.solvers import build_gs_chain
        from repro.solvers.gauss_seidel import gs_split

        kernels, xi, xo = build_gs_chain(lap2d_nd, 2)
        fl = fuse(kernels, 6, validate=False)
        plan = compile_plan(fl.schedule, kernels)
        low, e = gs_split(lap2d_nd)
        st1 = allocate_state(kernels)
        st1["Lx"][:] = low.data
        st1["Ex"][:] = e.data
        st1["b"][:] = rng.random(lap2d_nd.n_rows)
        st2 = {k: v.copy() for k, v in st1.items()}
        for _ in range(10):
            execute_schedule(fl.schedule, kernels, st1)
            st1[xi][:] = st1[xo]
            execute_schedule_planned(fl.schedule, kernels, st2, plan=plan)
            st2[xi][:] = st2[xo]
        assert np.allclose(st1[xo], st2[xo], atol=1e-13)
        from repro.runtime import plan as plan_mod

        assert not plan_mod._plans  # plan= bypassed the plan_for memo

    def test_min_batch_respected(self, lap2d_nd, monkeypatch):
        """No batched step is shorter than ``MIN_BATCH``; raising it past
        every group size leaves only scalar steps, bitwise equal to iter."""
        kernels, state = build_combination(3, lap2d_nd, seed=1)
        fl = fuse(kernels, 4)
        plan = compile_plan(fl.schedule, kernels)
        from repro.runtime.plan import MIN_BATCH

        batched = [st for st in plan.steps if st.kind != "scalar"]
        assert batched
        assert all(st.iters.shape[0] >= MIN_BATCH for st in batched)
        monkeypatch.setattr("repro.runtime.plan.MIN_BATCH", 10**9)
        scalar_plan = compile_plan(fl.schedule, kernels)
        assert {st.kind for st in scalar_plan.steps} == {"scalar"}
        st = {k: v.copy() for k, v in state.items()}
        execute_schedule_planned(fl.schedule, kernels, st, plan=scalar_plan)
        ref = {k: v.copy() for k, v in state.items()}
        execute_schedule(fl.schedule, kernels, ref)
        for var in st:
            assert np.array_equal(st[var], ref[var]), var

    def test_loop_count_mismatch_rejected(self, lap2d_nd):
        """A loop-count mismatch is rejected both when compiling and when
        a prebuilt plan is passed with the wrong kernel list."""
        kernels, state = build_combination(1, lap2d_nd)
        bad = FusedSchedule((1,), [[np.array([0])]])
        with pytest.raises(ValueError):
            compile_plan(bad, kernels)
        fl = fuse(kernels, 4)
        plan = compile_plan(fl.schedule, kernels)
        with pytest.raises(ValueError):
            execute_schedule_planned(fl.schedule, kernels[:1], state, plan=plan)
