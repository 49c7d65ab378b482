"""IC0-preconditioned CG with a fused preconditioner (Krylov use case).

The paper motivates sparse fusion with preconditioned Krylov methods:
each PCG iteration applies ``z = L^-T (L^-1 r)`` — a forward+backward
SpTRSV pair with loop-carried dependencies, re-executed every iteration
so the fusion inspector amortizes. This example factors a 3-D Poisson
matrix with SpIC0, fuses the two triangular solves with ICO, solves with
PCG, and compares the simulated preconditioner cost against joint-DAG
scheduling of the same pair. The solver reports only what it measured;
the simulated price comes from the preconditioner's own schedule.

Run:  python examples/pcg_solver.py
"""

import numpy as np

from repro.solvers import build_ic0_preconditioner, pcg_ic0
from repro.sparse import apply_ordering, laplacian_3d


def main() -> None:
    a, _ = apply_ordering(laplacian_3d(9), "nd")
    rng = np.random.default_rng(7)
    b = rng.random(a.n_rows)
    print(f"PCG on n={a.n_rows}, nnz={a.nnz} (IC0 preconditioner)\n")

    results = {}
    precond = {}
    for scheduler in ("ico", "joint-lbc", "joint-wavefront"):
        res = pcg_ic0(a, b, tol=1e-9, max_iters=400, scheduler=scheduler)
        assert res.converged
        results[scheduler] = res
        fused, _ = build_ic0_preconditioner(a, scheduler=scheduler)
        per_app = fused.simulate().seconds
        precond[scheduler] = res.meta["applications"] * per_app
        print(
            f"{scheduler:16s} iters={res.iterations:3d} "
            f"precond(sim)={precond[scheduler] * 1e3:7.3f} ms "
            f"({res.meta['applications']} applications x "
            f"{per_app * 1e6:6.1f} us)"
        )

    ico = results["ico"]
    print("\nspeedup of fused (ICO) preconditioner application:")
    for name, seconds in precond.items():
        if name != "ico":
            print(f"  vs {name:16s} {seconds / precond['ico']:.2f}x")

    # verify against a direct solve
    x_ref = np.linalg.solve(a.to_dense(), b)
    print(f"\nmax |x - x_direct| = {np.max(np.abs(ico.x - x_ref)):.2e}")
    print(f"residual history (first 5): "
          f"{[f'{r:.1e}' for r in ico.residuals[:5]]}")


if __name__ == "__main__":
    main()
