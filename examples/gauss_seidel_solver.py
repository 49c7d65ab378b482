"""End-to-end Gauss-Seidel solve with multi-loop fusion (Sec. 4.3).

Prices a backward Gauss-Seidel solve of a 3-D Poisson problem on the
simulated machine, comparing the unfused (ParSy-style) schedule against
sparse fusion at unroll depths 2, 4 and 6 — the paper's "fusing more
than two loops" case study, searched as in Fig. 9: the sweep count comes
from a vectorized GS run, and each configuration prices one fused chunk
times the number of chunks. Then it executes one fused solve, which
re-runs the same schedule for every chunk, amortizing the inspector
exactly as the paper argues for iterative solvers.

Run:  python examples/gauss_seidel_solver.py
"""

import numpy as np

from repro.solvers import (
    gauss_seidel,
    gauss_seidel_simulated,
    gs_iterations_to_converge,
)
from repro.sparse import apply_ordering, laplacian_3d


def main() -> None:
    a, _ = apply_ordering(laplacian_3d(8), "nd")
    rng = np.random.default_rng(42)
    b = rng.random(a.n_rows)
    iters = gs_iterations_to_converge(a, b, tol=1e-8, max_iters=2000)
    print(f"solving A x = b: n={a.n_rows}, nnz={a.nnz}, tol=1e-8 "
          f"({iters} GS sweeps)\n")

    print(f"{'method':16s} {'unroll':>6s} {'iters':>6s} "
          f"{'sim solve':>10s} {'inspect':>9s}")
    best = {}
    for method in ("parsy", "joint-lbc", "sparse-fusion"):
        for unroll in (2, 4, 6):
            r = gauss_seidel_simulated(
                a, iterations=iters, unroll=unroll, method=method, n_threads=8
            )
            print(
                f"{method:16s} {unroll:6d} {r.iterations:6d} "
                f"{r.simulated_solve_seconds * 1e3:8.2f}ms "
                f"{r.inspector_seconds * 1e3:7.1f}ms"
            )
            key = method
            if key not in best or r.simulated_solve_seconds < best[key][1]:
                best[key] = (unroll, r.simulated_solve_seconds)
    print("\nbest simulated solve per method (exhaustive unroll search, "
          "as in Fig. 9):")
    for method, (unroll, sec) in best.items():
        print(f"  {method:16s} unroll={unroll}  {sec * 1e3:8.2f} ms")
    sf = best["sparse-fusion"][1]
    print(
        f"\nsparse fusion speedup: {best['parsy'][1] / sf:.2f}x over ParSy, "
        f"{best['joint-lbc'][1] / sf:.2f}x over joint-LBC"
    )

    # execute one fused solve and verify it against a direct solve
    r = gauss_seidel(a, b, tol=1e-10, max_iters=4000, unroll=4)
    assert r.converged
    x_ref = np.linalg.solve(a.to_dense(), b)
    print(
        f"\nexecuted: {r.iterations} iterations in "
        f"{r.meta['solve_seconds'] * 1e3:.1f} ms (measured), "
        f"max |x - x_direct| = {np.max(np.abs(r.x - x_ref)):.2e}"
    )


if __name__ == "__main__":
    main()
