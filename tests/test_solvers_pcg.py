"""IC0-preconditioned CG tests."""

import numpy as np
import pytest

from repro.solvers import build_ic0_preconditioner, pcg_ic0
from repro.sparse import apply_ordering, laplacian_2d


def test_pcg_converges_to_direct_solution(lap2d_nd, rng):
    b = rng.random(lap2d_nd.n_rows)
    res = pcg_ic0(lap2d_nd, b, tol=1e-10, max_iters=400)
    assert res.converged
    x_ref = np.linalg.solve(lap2d_nd.to_dense(), b)
    assert np.allclose(res.x, x_ref, atol=1e-7)


def test_pcg_beats_unpreconditioned_iterations(lap3d_nd, rng):
    """IC0 preconditioning must cut the iteration count vs plain CG."""
    from scipy.sparse.linalg import cg

    b = rng.random(lap3d_nd.n_rows)
    count = {"n": 0}
    cg(
        lap3d_nd.to_scipy(),
        b,
        rtol=1e-8,
        maxiter=2000,
        callback=lambda xk: count.__setitem__("n", count["n"] + 1),
    )
    res = pcg_ic0(lap3d_nd, b, tol=1e-8, max_iters=2000)
    assert res.converged
    assert res.iterations < count["n"]


def test_pcg_preconditioner_schedulers_agree(lap2d_nd, rng):
    b = rng.random(lap2d_nd.n_rows)
    results = {
        s: pcg_ic0(lap2d_nd, b, tol=1e-9, max_iters=300, scheduler=s)
        for s in ("ico", "joint-wavefront")
    }
    # identical math -> identical iterate counts and solutions
    assert results["ico"].iterations == results["joint-wavefront"].iterations
    assert np.allclose(results["ico"].x, results["joint-wavefront"].x)


def test_pcg_respects_max_iters(lap2d_nd, rng):
    b = rng.random(lap2d_nd.n_rows)
    res = pcg_ic0(lap2d_nd, b, tol=1e-30, max_iters=3)
    assert not res.converged
    assert res.iterations == 3


def test_pcg_with_exact_initial_guess(lap2d_nd, rng):
    b = rng.random(lap2d_nd.n_rows)
    x_ref = np.linalg.solve(lap2d_nd.to_dense(), b)
    res = pcg_ic0(lap2d_nd, b, tol=1e-8, max_iters=50, x0=x_ref)
    assert res.converged
    assert res.iterations == 0


def test_pcg_rejects_rectangular():
    from repro.sparse import CSRMatrix

    a = CSRMatrix.from_dense(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        pcg_ic0(a, np.ones(2))


def test_preconditioner_builder_standalone(lap2d_nd, rng):
    fused, state = build_ic0_preconditioner(lap2d_nd, 4)
    fused.validate()
    state["r"][:] = rng.random(lap2d_nd.n_rows)
    fused.execute(state)
    from repro.sparse import ic0_csc

    ld = ic0_csc(lap2d_nd).to_dense()
    expect = np.linalg.solve(ld.T, np.linalg.solve(ld, state["r"]))
    assert np.allclose(state["z"], expect, atol=1e-8)


def test_pcg_metadata(lap2d_nd, rng):
    b = rng.random(lap2d_nd.n_rows)
    res = pcg_ic0(lap2d_nd, b, tol=1e-8, max_iters=200)
    assert res.meta["applications"] == res.iterations + 1
    assert res.setup_seconds > 0
    assert not hasattr(res, "simulated_precond_seconds")
    assert "per_application_seconds" not in res.meta


@pytest.mark.parametrize(
    "matrix, iterations", [("lap2d_nd", 19), ("lap2d_small", 12)]
)
def test_pcg_plan_keeps_iterations_and_matches_iter(
    matrix, iterations, request, monkeypatch
):
    """The plan-executed solve matches one whose preconditioner runs
    through the per-iteration oracle, iteration for iteration."""
    import repro.solvers.pcg as pcg_mod
    from repro.runtime import execute_schedule

    a = request.getfixturevalue(matrix)
    b = np.random.default_rng(12345).random(a.n_rows)
    res = pcg_ic0(a, b)
    monkeypatch.setattr(
        pcg_mod,
        "execute_schedule_planned",
        lambda sched, kernels, state, plan: execute_schedule(
            sched, kernels, state
        ),
    )
    ref = pcg_ic0(a, b)
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
def test_pcg_rejects_non_finite_inputs(lap2d_small, where, name):
    """A NaN/inf input is rejected up front, naming the input, instead of
    running to the iteration cap and returning a non-finite ``x``."""
    a, b = _poisoned(lap2d_small, where)
    with pytest.raises(ValueError, match=f"^{name} contains NaN or inf"):
        pcg_ic0(a, b)


@pytest.mark.parametrize("name", ["b", "x0"])
def test_pcg_rejects_wrong_length_inputs(lap2d_small, name):
    """A wrong-length ``b`` or ``x0`` is rejected up front, naming the
    input, instead of failing after factorization with a broadcast
    error."""
    n = lap2d_small.n_rows
    kw = {"b": np.ones(n), "x0": np.zeros(n)}
    kw[name] = np.ones(3)
    with pytest.raises(ValueError, match=f"^{name} has shape \\(3,\\)"):
        pcg_ic0(lap2d_small, **kw)


def test_pcg_leaves_initial_guess_unchanged(lap2d_small):
    x0 = np.zeros(lap2d_small.n_rows)
    res = pcg_ic0(lap2d_small, np.ones(lap2d_small.n_rows), x0=x0)
    assert res.converged and res.iterations > 0
    assert not np.any(x0)
