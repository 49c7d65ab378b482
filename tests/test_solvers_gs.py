"""Gauss-Seidel solver tests (the Fig. 9 workload)."""

import importlib

import numpy as np
import pytest

from repro.solvers import (
    build_gs_chain,
    gauss_seidel,
    gauss_seidel_simulated,
    gs_iterations_to_converge,
    gs_split,
)
from repro.sparse import laplacian_2d


def test_gs_split_reconstructs_matrix(lap2d_nd):
    low, e = gs_split(lap2d_nd)
    # A = (D - F) - E  with our E already negated: A = low - E
    assert np.allclose(
        low.to_dense() - e.to_dense(), lap2d_nd.to_dense()
    )


def test_chain_structure(lap2d_nd):
    kernels, x_in, x_out = build_gs_chain(lap2d_nd, unroll=3)
    assert len(kernels) == 6
    assert x_in == "x0" and x_out == "x3"
    # alternating Par (SpMV) / CD (SpTRSV)
    assert [k.has_carried_dependence for k in kernels] == [False, True] * 3


def test_chain_rejects_bad_unroll(lap2d_nd):
    with pytest.raises(ValueError):
        build_gs_chain(lap2d_nd, unroll=0)


@pytest.mark.parametrize("method", ["sparse-fusion", "parsy", "joint-lbc"])
def test_gs_converges_to_solution(method, rng):
    a = laplacian_2d(8)
    b = rng.random(a.n_rows)
    x_ref = np.linalg.solve(a.to_dense(), b)
    r = gauss_seidel(a, b, tol=1e-9, max_iters=5000, unroll=2, method=method)
    assert r.converged
    assert np.allclose(r.x, x_ref, atol=1e-6)


def test_gs_iteration_equivalence(rng):
    """One unrolled-fused GS chunk equals `unroll` classic GS sweeps."""
    a = laplacian_2d(6)
    b = rng.random(a.n_rows)
    dense = a.to_dense()
    low = np.tril(dense)
    e = -(np.triu(dense, k=1))
    x = np.zeros(a.n_rows)
    for _ in range(4):
        x = np.linalg.solve(low, e @ x + b)
    r = gauss_seidel(a, b, tol=0.0, max_iters=4, unroll=4, method="sparse-fusion")
    assert np.allclose(r.x, x, atol=1e-10)


def test_gs_residuals_monotone_for_spd(rng):
    a = laplacian_2d(8)
    b = rng.random(a.n_rows)
    r = gauss_seidel(a, b, tol=1e-10, max_iters=600, unroll=1)
    arr = np.array(r.residuals)
    assert np.all(np.diff(arr) <= 1e-12)


def test_gs_respects_max_iters(rng):
    a = laplacian_2d(10)
    b = rng.random(a.n_rows)
    r = gauss_seidel(a, b, tol=1e-30, max_iters=10, unroll=2)
    assert not r.converged
    assert r.iterations == 10


def test_gs_with_initial_guess(rng):
    a = laplacian_2d(6)
    b = rng.random(a.n_rows)
    x_ref = np.linalg.solve(a.to_dense(), b)
    r = gauss_seidel(a, b, tol=1e-10, max_iters=2000, unroll=2, x0=x_ref)
    assert r.iterations <= 2  # starts converged


def test_gs_fusion_beats_parsy_simulated(lap3d_nd, rng):
    """The Fig. 9 shape: fused GS is simulated-faster than unfused."""
    b = rng.random(lap3d_nd.n_rows)
    iters = gs_iterations_to_converge(lap3d_nd, b, tol=1e-6, max_iters=200)
    kw = dict(iterations=iters, unroll=4, n_threads=8)
    fused = gauss_seidel_simulated(lap3d_nd, method="sparse-fusion", **kw)
    parsy = gauss_seidel_simulated(lap3d_nd, method="parsy", **kw)
    assert fused.simulated_solve_seconds < parsy.simulated_solve_seconds


def test_gs_reports_measured_time_only(lap2d_small, rng):
    """An executed solve reports wall-clock, never a simulated price."""
    res = gauss_seidel(lap2d_small, rng.random(lap2d_small.n_rows))
    assert res.simulated_solve_seconds is None
    assert "chunk_seconds" not in res.meta
    assert res.meta["solve_seconds"] > 0


def test_gs_rejects_rectangular():
    from repro.sparse import CSRMatrix

    a = CSRMatrix.from_dense(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        gauss_seidel(a, np.ones(2))


def test_gs_result_does_not_pin_plan(lap2d_nd, rng):
    """The solver compiles a local plan: a kept result must not keep the
    compiled plan alive in the process-wide plan_for memo."""
    from repro.runtime import plan as plan_mod

    res = gauss_seidel(lap2d_nd, rng.random(lap2d_nd.n_rows))
    assert res.converged
    assert not plan_mod._plans


@pytest.mark.parametrize(
    "matrix, iterations", [("lap2d_nd", 234), ("lap2d_small", 112)]
)
def test_gs_plan_keeps_iterations_and_matches_iter(
    matrix, iterations, request, monkeypatch
):
    """The plan-executed solve matches one whose chunks run through the
    per-iteration oracle, iteration for iteration."""
    from repro.runtime import execute_schedule

    # the package re-exports the function under the module's name
    gs_mod = importlib.import_module("repro.solvers.gauss_seidel")
    a = request.getfixturevalue(matrix)
    b = np.random.default_rng(12345).random(a.n_rows)
    res = gauss_seidel(a, b)
    monkeypatch.setattr(
        gs_mod,
        "execute_schedule_planned",
        lambda sched, kernels, state, plan: execute_schedule(
            sched, kernels, state
        ),
    )
    ref = gauss_seidel(a, b)
    assert res.converged and ref.converged
    assert res.iterations == ref.iterations == iterations
    assert np.allclose(res.x, ref.x, atol=1e-12)


def _poisoned(lap2d_small, where):
    """lap2d 8² with one NaN in ``b`` or one inf in ``A.data``."""
    a = lap2d_small.copy()
    b = np.ones(a.n_rows)
    if where == "b":
        b[5] = np.nan
    else:
        a.data[3] = np.inf
    return a, b


@pytest.mark.parametrize("where, name", [("b", "b"), ("A", "A")])
def test_gs_rejects_non_finite_inputs(lap2d_small, where, name):
    """A NaN/inf input is rejected up front, naming the input, instead of
    running to the iteration cap and returning a non-finite ``x``."""
    a, b = _poisoned(lap2d_small, where)
    with pytest.raises(ValueError, match=f"^{name} contains NaN or inf"):
        gauss_seidel(a, b)


@pytest.mark.parametrize("name", ["b", "x0"])
def test_gs_rejects_wrong_length_inputs(lap2d_small, name):
    """A wrong-length ``b`` or ``x0`` is rejected up front, naming the
    input, instead of failing after inspection with a broadcast error."""
    n = lap2d_small.n_rows
    kw = {"b": np.ones(n), "x0": np.zeros(n)}
    kw[name] = np.ones(3)
    with pytest.raises(ValueError, match=f"^{name} has shape \\(3,\\)"):
        gauss_seidel(lap2d_small, **kw)
