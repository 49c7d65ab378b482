"""Executor tests: the per-iteration oracle and the compiled plan."""

import numpy as np
import pytest

from repro import fuse
from repro.fusion import build_combination
from repro.kernels import SpMVCSR, SpTRSVCSR, internal_var
from repro.runtime import (
    allocate_state,
    compile_plan,
    execute_schedule,
    execute_schedule_planned,
    run_reference,
)
from repro.schedule import FusedSchedule


def test_execute_validates_loop_counts(lap2d_nd):
    kernels, state = build_combination(1, lap2d_nd)
    bad = FusedSchedule((3,), [[np.array([0, 1, 2])]])
    with pytest.raises(ValueError):
        execute_schedule(bad, kernels, state)


def test_execute_runs_setups(lap2d_nd):
    """SpMV-CSC's setup must zero z even if state starts dirty: a fused
    run on a dirty z matches run_reference on the same, clean inputs."""
    kernels, state = build_combination(3, lap2d_nd, seed=2)
    ref_kernels, ref = build_combination(3, lap2d_nd, seed=2)
    np.testing.assert_array_equal(state["x0"], ref["x0"])
    state["z"][:] = 1e9
    fuse(kernels, 4).execute(state)
    run_reference(ref_kernels, ref)
    assert np.allclose(state["z"], ref["z"], atol=1e-12)


def test_run_reference_order(lap2d_nd):
    kernels, state = build_combination(4, lap2d_nd)
    run_reference(kernels, state)
    # L factor feeds the TRSV: solution must satisfy L y = b
    low = lap2d_nd.lower_triangle().to_csc()
    l_dense = type(low)(
        low.n_rows, low.n_cols, low.indptr, low.indices, state["Lx"], check=False
    ).to_dense()
    assert np.allclose(l_dense @ state["y"], state["b"])


def test_plan_equals_iter_on_all_zoo(matrix_zoo):
    for name, mat in matrix_zoo:
        kernels, state = build_combination(1, mat, seed=3)
        fl = fuse(kernels, 4)
        st_seq = {v: a.copy() for v, a in state.items()}
        fl.execute(st_seq)
        st_plan = {v: a.copy() for v, a in state.items()}
        execute_schedule_planned(fl.schedule, kernels, st_plan)
        for var in st_seq:
            if internal_var(var):
                continue
            assert np.allclose(st_seq[var], st_plan[var], atol=1e-12), (name, var)


def test_plan_propagates_kernel_exception(lap2d_nd):
    kernels, state = build_combination(5, lap2d_nd)
    state["Ax"][lap2d_nd.diagonal_positions()[0]] = 0.0  # ILU0 zero pivot
    fl = fuse(kernels, 2, validate=False)
    with pytest.raises(ValueError, match="pivot"):
        execute_schedule_planned(fl.schedule, kernels, state)


def test_allocate_state_zeroed(lap2d_nd):
    k = SpMVCSR(lap2d_nd)
    st = allocate_state([k])
    assert all(np.all(a == 0) for a in st.values())


def test_scratch_fresh_per_execution(lap3d_nd, rng):
    """IC0 through one compiled plan, run repeatedly: each execution
    gets fresh kernel scratch, so no run can corrupt the next."""
    kernels, state = build_combination(4, lap3d_nd, seed=1)
    fl = fuse(kernels, 4)
    plan = compile_plan(fl.schedule, kernels)
    expected = {v: a.copy() for v, a in state.items()}
    run_reference(kernels, expected)
    for trial in range(3):
        st = {v: a.copy() for v, a in state.items()}
        execute_schedule_planned(fl.schedule, kernels, st, plan=plan)
        assert np.array_equal(st["Lx"], expected["Lx"]), trial
