"""IC0-preconditioned conjugate gradient with fused preconditioner solves.

The paper's introduction motivates sparse fusion with preconditioned
Krylov methods: every PCG iteration applies ``z = (L Lᵀ)⁻¹ r`` — a
forward SpTRSV chained into a backward SpTRSV, a CD-CD combination that
fusion accelerates and that is re-executed until convergence (amortizing
the inspector, Fig. 7's argument).

This solver factors once with SpIC0, fuses the two triangular solves
with ICO, and runs textbook PCG with the fused preconditioner
application. The vector arithmetic (dot products, axpys) is vectorized
NumPy; the sparse kernels run through the scheduled executor so the
whole preconditioner path is exactly the code the paper generates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..fusion.fused import FusedLoops, fuse
from ..kernels import SpTRSVCSR
from ..kernels.sptrsv_backward import SpTRSVBackwardCSR
from ..obs import current as current_recorder
from ..runtime.executor import allocate_state
from ..runtime.plan import compile_plan, execute_schedule_planned
from ..sparse.csr import CSRMatrix
from ..sparse.factor import ic0_csc
from ..utils.arrays import require_finite, require_length

__all__ = ["PCGResult", "pcg_ic0", "build_ic0_preconditioner"]


def build_ic0_preconditioner(
    a: CSRMatrix, n_threads: int = 8, *, scheduler: str = "ico"
) -> tuple[FusedLoops, dict]:
    """Fused ``z = L⁻ᵀ (L⁻¹ r)`` preconditioner application for SPD *a*.

    Returns the fused loops (forward + backward SpTRSV over the IC0
    factor) and a ready state with the factor values installed. The
    caller writes ``state["r"]`` and reads ``state["z"]``.
    """
    l_factor = ic0_csc(a).to_csr()
    fwd = SpTRSVCSR(l_factor, l_var="Lx", b_var="r", x_var="w")
    bwd = SpTRSVBackwardCSR(l_factor, l_var="Lx", b_var="w", x_var="z")
    fused = fuse([fwd, bwd], n_threads, scheduler=scheduler)
    state = allocate_state(fused.kernels)
    state["Lx"][:] = l_factor.data
    return fused, state


@dataclass
class PCGResult:
    """Outcome of a preconditioned CG solve."""

    x: np.ndarray
    iterations: int
    residuals: list[float]
    converged: bool
    setup_seconds: float
    meta: dict = field(default_factory=dict)


def pcg_ic0(
    a: CSRMatrix,
    b: np.ndarray,
    *,
    tol: float = 1e-8,
    max_iters: int = 500,
    n_threads: int = 8,
    scheduler: str = "ico",
    x0: np.ndarray | None = None,
) -> PCGResult:
    """Solve SPD ``A x = b`` with IC0-preconditioned CG.

    The preconditioner application is the fused TRSV-TRSV pair, run
    through one compiled plan per solve. Price one application on the
    machine model with ``build_ic0_preconditioner(a)[0].simulate()``. A
    ``b`` or ``x0`` of the wrong length, or non-finite values in ``A``,
    ``b`` or ``x0``, raise ``ValueError`` before any work.
    """
    if not a.is_square:
        raise ValueError("PCG requires a square (SPD) matrix")
    b = np.asarray(b, dtype=np.float64)
    require_length(a.n_rows, b=b, x0=x0)
    require_finite(A=a.data, b=b, x0=x0)
    with current_recorder().span("pcg.setup", scheduler=scheduler) as setup_span:
        fused, state = build_ic0_preconditioner(a, n_threads, scheduler=scheduler)
    setup_seconds = setup_span.seconds

    # a copy: the iterate is updated in place
    x = np.zeros(a.n_rows) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - a.matvec(x)
    b_norm = float(np.linalg.norm(b)) or 1.0
    plan = compile_plan(fused.schedule, fused.kernels)

    def apply_precond(res_vec: np.ndarray) -> np.ndarray:
        state["r"][:] = res_vec
        execute_schedule_planned(fused.schedule, fused.kernels, state, plan=plan)
        return state["z"].copy()

    z = apply_precond(r)
    p = z.copy()
    rz = float(r @ z)
    residuals = [float(np.linalg.norm(r)) / b_norm]
    converged = residuals[-1] < tol
    it = 0
    while not converged and it < max_iters:
        ap = a.matvec(p)
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r)) / b_norm
        residuals.append(res)
        it += 1
        if res < tol:
            converged = True
            break
        z = apply_precond(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return PCGResult(
        x=x,
        iterations=it,
        residuals=residuals,
        converged=converged,
        setup_seconds=setup_seconds,
        meta={
            "scheduler": scheduler,
            "applications": it + 1,
            "inspector_seconds": fused.inspector_seconds,
        },
    )
