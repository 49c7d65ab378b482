"""Tests for the simulated GS pricing path (the Fig. 9 benchmark core)."""

import numpy as np
import pytest

from repro.runtime import MachineConfig, SimulatedMachine
from repro.solvers import (
    build_gs_chain,
    gauss_seidel,
    gauss_seidel_simulated,
    gs_iterations_to_converge,
)
from repro.sparse import laplacian_2d


@pytest.fixture
def problem(rng):
    a = laplacian_2d(10)
    return a, rng.random(a.n_rows)


def test_iteration_counter_matches_executed_solve(problem):
    a, b = problem
    iters = gs_iterations_to_converge(a, b, tol=1e-6, max_iters=2000)
    executed = gauss_seidel(a, b, tol=1e-6, max_iters=2000, unroll=1)
    assert executed.converged
    assert executed.iterations == iters


def test_counter_respects_max_iters(problem):
    a, b = problem
    assert gs_iterations_to_converge(a, b, tol=0.0, max_iters=7) == 7


def test_counter_with_initial_guess(problem):
    a, b = problem
    x_star = np.linalg.solve(a.to_dense(), b)
    assert gs_iterations_to_converge(a, b, tol=1e-6, x0=x_star) == 1


def test_simulated_matches_executed_pricing(problem):
    """Same schedule, same chunk count => same simulated seconds."""
    a, b = problem
    iters = gs_iterations_to_converge(a, b, tol=1e-6, max_iters=2000)
    sim = gauss_seidel_simulated(a, iterations=iters, unroll=2)
    real = gauss_seidel(a, b, tol=1e-6, max_iters=2000, unroll=2)
    real_chunk = SimulatedMachine(MachineConfig(n_threads=8)).simulate(
        real.schedule, build_gs_chain(a, 2)[0]
    )
    assert sim.meta["chunks"] == real.meta["chunks"]
    assert sim.meta["chunk_seconds"] == pytest.approx(
        real_chunk.seconds, rel=1e-9
    )
    assert sim.simulated_solve_seconds == pytest.approx(
        real.meta["chunks"] * real_chunk.seconds, rel=1e-9
    )


def test_simulated_ceil_division(problem):
    a, _ = problem
    sim = gauss_seidel_simulated(a, iterations=5, unroll=2)
    assert sim.meta["chunks"] == 3  # ceil(5/2)
    assert sim.iterations == 6


@pytest.mark.parametrize("method", ["parsy", "sparse-fusion", "joint-lbc"])
def test_simulated_all_methods(problem, method):
    a, _ = problem
    sim = gauss_seidel_simulated(a, iterations=10, unroll=2, method=method)
    assert sim.simulated_solve_seconds > 0
    assert sim.method == method
    assert sim.meta["simulated_only"]


def test_simulated_marks_no_residuals(problem):
    a, _ = problem
    sim = gauss_seidel_simulated(a, iterations=4, unroll=1)
    assert sim.residuals == []
    assert np.all(sim.x == 0)


def test_simulated_rejects_negative_iterations(problem):
    a, _ = problem
    with pytest.raises(ValueError, match="iterations must be >= 0"):
        gauss_seidel_simulated(a, iterations=-3)
