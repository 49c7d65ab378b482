"""The four benchmark workloads.

Every workload is a closed loop: one caller in one process issues an
operation, waits for it to return, checks it (untimed) and issues the
next. Inputs are the repository's matrix generators plus right-hand
sides and value sets drawn from the run's seed; the program receives
only those generated arrays.

A workload's life cycle, driven by :mod:`harness`:

``generate()``   draw the inputs from the seed (untimed)
``setup()``      generated matrix -> first operation ready (``setup_s``)
``prepare()``    compute the correctness oracles (untimed)
``next_input(i)`` inputs of operation *i* (untimed)
``operate(inp)`` one operation (timed)
``check(inp, out)`` raises (:class:`CheckFailed`) on a wrong output (untimed)

Traced runs also call ``probes()`` (layer calls a workload's operation
makes only inside another layer, timed alone), ``chains()`` (the fused
loop chains, for baselines) and ``guards()`` (counts that must repeat
exactly run to run).

Benchmark spans are named ``<layer>.<call>`` after the package whose
public call they time (see :mod:`ledger`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analytics import diagnose, profile_locality
from repro.fusion import build_combination, fuse
from repro.kernels import internal_var
from repro.obs import current, sanitize_schedule
from repro.obs.memtrace import collect_access_stream
from repro.runtime import (
    MachineConfig,
    SimulatedMachine,
    allocate_state,
    execute_schedule_planned,
    plan_for,
    run_reference,
)
from repro.schedule import ScheduleCache
from repro.solvers import (
    build_gs_chain,
    build_ic0_preconditioner,
    gauss_seidel,
    gs_split,
    pcg_ic0,
)
from repro.sparse import (
    CSRMatrix,
    apply_ordering,
    ic0_csc,
    laplacian_2d,
    random_spd,
)

#: schedule width: w-partitions per s-partition, not OS threads
N_THREADS = 8

#: the tolerance of the repository's plan-equivalence tests
RTOL, ATOL = 1e-5, 1e-12


class CheckFailed(AssertionError):
    """An operation returned a wrong output."""


def span(name: str, **attrs):
    """A span on the current recorder (timing-only when untraced)."""
    return current().span(name, **attrs)


@dataclass
class Chain:
    """One fused loop chain a workload runs, for the baselines."""

    label: str
    kernels: list
    state: dict
    schedule: object


def mismatched(got: dict, want: dict) -> list[str]:
    """Names of the non-internal variables where *got* differs from *want*."""
    return [
        v
        for v in want
        if not internal_var(v)
        and not np.allclose(got[v], want[v], rtol=RTOL, atol=ATOL)
    ]


def copy_state(state: dict) -> dict:
    return {k: v.copy() for k, v in state.items()}


def reference_state(kernels, state) -> dict:
    return run_reference(kernels, copy_state(state))


def relative_residual(a: CSRMatrix, x: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a.matvec(x) - b) / np.linalg.norm(b))


def fuse_validated(kernels, **kwargs):
    """``fuse`` with its dependence validation timed as its own layer."""
    with span("fusion.fuse"):
        fused = fuse(kernels, N_THREADS, validate=False, **kwargs)
    with span("schedule.validate"):
        fused.validate()
    return fused


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.rng = np.random.default_rng(self.seed)

    def subseed(self) -> int:
        return int(self.rng.integers(2**31 - 1))

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Oracles for :meth:`check`, computed outside every timed interval."""

    def next_input(self, i: int):
        return None

    def operate(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> None:
        raise NotImplementedError

    # -- traced-run extras ---------------------------------------------
    def scipy_matrix(self) -> CSRMatrix:
        """The matrix the scipy baselines of combos 1 and 3 run on."""
        return self.a

    def chains(self) -> list[Chain]:
        raise NotImplementedError

    def cg_system(self):
        """``(matrix, rhs, tol)`` for the scipy CG baseline, if any."""
        return None

    def probes(self) -> dict[str, float]:
        return {}

    def guards(self) -> dict[str, float]:
        return {}


class Solve(Workload):
    """IC0-PCG and backward Gauss-Seidel, each to its tolerance."""

    name = "solve"
    why = (
        "solver loops re-run one fused schedule (~65 PCG applications, 20 GS "
        "chunks): solvers+runtime execution dominate; bypasses plan compile and "
        "the schedule cache"
    )
    PCG_TOL = 1e-8
    GS_TOL = 1e-6
    GS_UNROLL = 2

    def generate(self):
        # sizes keep one solve pair near 3 s, so a run holds several
        self.lap = laplacian_2d(48)
        self.spd = random_spd(4096, 10)
        # uniform right-hand sides: their mean component sets the
        # iteration counts, which then do not vary with the seed
        self.b_pcg = self.rng.random(self.lap.n_rows)
        self.b_gs = self.rng.random(self.spd.n_rows)

    def setup(self):
        # callers of the solvers pay factor, fuse and simulate on every
        # call, so only the ordering is set-up
        self.split_s = {"pcg_s": [], "gs_s": []}
        with span("sparse.ordering"):
            self.a_pcg, _ = apply_ordering(self.lap, "nd")
            self.a_gs, _ = apply_ordering(self.spd, "nd")

    def operate(self, inp):
        with span("solvers.pcg") as sp:
            pcg = pcg_ic0(self.a_pcg, self.b_pcg, tol=self.PCG_TOL)
        pcg_s = sp.seconds
        with span("solvers.gs") as sp:
            gs = gauss_seidel(
                self.a_gs, self.b_gs, tol=self.GS_TOL, unroll=self.GS_UNROLL
            )
        self.split_s["pcg_s"].append(pcg_s)
        self.split_s["gs_s"].append(sp.seconds)
        self.last = pcg, gs
        return self.last

    def check(self, inp, out):
        pcg, gs = out
        if not (pcg.converged and gs.converged):
            raise CheckFailed(f"converged pcg={pcg.converged} gs={gs.converged}")
        for label, a, res, b, tol in (
            ("pcg", self.a_pcg, pcg, self.b_pcg, self.PCG_TOL),
            ("gs", self.a_gs, gs, self.b_gs, self.GS_TOL),
        ):
            r = relative_residual(a, res.x, b)
            if not r <= tol:
                raise CheckFailed(f"{label} residual {r:.3e} > {tol:.0e}")

    def scipy_matrix(self):
        return self.a_pcg

    def cg_system(self):
        return self.a_pcg, self.b_pcg, self.PCG_TOL

    def chains(self):
        if not hasattr(self, "_chains"):
            fused, state = build_ic0_preconditioner(self.a_pcg, N_THREADS)
            state["r"][:] = self.b_pcg
            kernels, _, _ = build_gs_chain(self.a_gs, self.GS_UNROLL)
            low, e = gs_split(self.a_gs)
            gs_state = allocate_state(kernels)
            gs_state["Lx"][:] = low.data
            gs_state["Ex"][:] = e.data
            gs_state["b"][:] = self.b_gs
            self._chains = [
                Chain("pcg_precond", fused.kernels, state, fused.schedule),
                Chain("gs_chunk", kernels, gs_state, self.last[1].schedule),
            ]
        return self._chains

    def probes(self):
        """Layer calls the solvers make internally, timed alone."""
        with span("sparse.ic0_factor") as sp:
            ic0_csc(self.a_pcg)
        out = {"sparse.ic0_factor_s": sp.seconds}
        machine = SimulatedMachine(MachineConfig(n_threads=N_THREADS))
        with span("runtime.simulate") as sp:
            for ch in self.chains():
                machine.simulate(ch.schedule, ch.kernels, fidelity="flat")
        out["runtime.simulate_ms"] = 1e3 * sp.seconds
        return out

    def guards(self):
        pcg, gs = self.last
        return {
            "solvers.pcg_iterations": pcg.iterations,
            "solvers.gs_iterations": gs.iterations,
        }


class ExecNatural(Workload):
    """Four fused chains on a natural-ordered grid, executed via plans."""

    name = "exec-natural"
    why = (
        "natural order gives 243 s-partitions and ~3,900 narrow plan steps per "
        "CD-CD chain: runtime per-step dispatch is the round; inspection and "
        "compile only in set-up"
    )
    COMBOS = (1, 3, 4, 5)

    def generate(self):
        self.grid = laplacian_2d(128)
        self.seeds = {c: self.subseed() for c in self.COMBOS}

    def setup(self):
        with span("sparse.ordering"):
            self.a, _ = apply_ordering(self.grid, "natural")
        self.runs = []
        for c in self.COMBOS:
            with span("kernels.build", combo=c):
                kernels, state = build_combination(c, self.a, self.seeds[c])
            fused = fuse_validated(kernels)
            with span("runtime.plan_compile", combo=c):
                plan = plan_for(fused.schedule, kernels)
            self.runs.append((c, kernels, state, fused.schedule, plan))

    def prepare(self):
        self.want = {
            c: reference_state(kernels, state)
            for c, kernels, state, _, _ in self.runs
        }

    def operate(self, inp):
        for c, kernels, state, schedule, plan in self.runs:
            with span("runtime.execute", combo=c, steps=plan.n_steps):
                execute_schedule_planned(schedule, kernels, state)
        return {c: state for c, _, state, _, _ in self.runs}

    def check(self, inp, out):
        for c, state in out.items():
            bad = mismatched(state, self.want[c])
            if bad:
                raise CheckFailed(f"combo {c}: {bad} differ from run_reference")

    def chains(self):
        return [
            Chain(f"combo{c}", kernels, state, schedule)
            for c, kernels, state, schedule, _ in self.runs
        ]


class Refit(Workload):
    """New values on an unchanged pattern: build, cached fuse, execute."""

    name = "refit"
    why = (
        "pattern reuse: kernel build, the fusion F join and plan compile "
        "dominate, execution ~1%; reads the schedule cache (hits) that set-up "
        "writes (the miss)"
    )
    COMBO = 4

    def generate(self):
        self.grid = laplacian_2d(128)
        self.build_seed = self.subseed()

    def setup(self):
        with span("sparse.ordering"):
            self.a, _ = apply_ordering(self.grid, "nd")
        # one schedule cache per run: the cold fuse here writes it
        self.cache = ScheduleCache()
        with span("kernels.build", combo=self.COMBO):
            kernels, state = build_combination(self.COMBO, self.a, self.build_seed)
        fused = fuse_validated(kernels, cache=self.cache)
        with span("runtime.plan_compile", combo=self.COMBO):
            plan_for(fused.schedule, kernels)

    def prepare(self):
        a = self.a
        rows = np.repeat(np.arange(a.n_rows), np.diff(a.indptr))
        self.diag = np.nonzero(a.indices == rows)[0]

    def next_input(self, i):
        """A new SPD value set on the same pattern: ``A + diag(u)``."""
        a = self.a
        data = a.data.copy()
        data[self.diag] += self.rng.random(self.diag.shape[0])
        values = CSRMatrix(a.n_rows, a.n_cols, a.indptr, a.indices, data, check=False)
        self.last_input = (values, self.subseed())
        return self.last_input

    def operate(self, inp):
        values, seed = inp
        with span("kernels.build", combo=self.COMBO):
            kernels, state = build_combination(self.COMBO, values, seed)
        fused = fuse_validated(kernels, cache=self.cache)
        with span("runtime.plan_compile", combo=self.COMBO):
            plan = plan_for(fused.schedule, kernels)
        with span("runtime.execute", combo=self.COMBO, steps=plan.n_steps):
            execute_schedule_planned(fused.schedule, kernels, state, plan=plan)
        self.last = (kernels, fused.schedule)
        return state

    def check(self, inp, out):
        values, seed = inp
        kernels, state = build_combination(self.COMBO, values, seed)
        bad = mismatched(out, run_reference(kernels, state))
        if bad:
            raise CheckFailed(f"{bad} differ from run_reference")

    def chains(self):
        values, seed = self.last_input
        kernels, schedule = self.last
        _, state = build_combination(self.COMBO, values, seed)
        return [Chain(f"combo{self.COMBO}", kernels, state, schedule)]


class Diagnose(Workload):
    """Sanitizer, locality profiler, cache simulation and doctor."""

    name = "diagnose"
    why = (
        "the obs/analytics access-stream replays (sanitize, locality, cache "
        "simulation, doctor) that no other workload measures; no execution"
    )
    COMBO = 1

    def generate(self):
        self.grid = laplacian_2d(64)
        self.build_seed = self.subseed()

    def setup(self):
        with span("sparse.ordering"):
            self.a, _ = apply_ordering(self.grid, "nd")
        with span("kernels.build", combo=self.COMBO):
            self.kernels, self.state = build_combination(
                self.COMBO, self.a, self.build_seed
            )
        self.fused = fuse_validated(self.kernels)

    def operate(self, inp):
        fl, kernels = self.fused, self.kernels
        with span("obs.sanitize"):
            sanitized = sanitize_schedule(fl.schedule, kernels, executor="plan")
        with span("analytics.locality"):
            locality = profile_locality(
                fl.schedule,
                kernels,
                dags=fl.dags,
                inter=fl.inter,
                estimated_reuse=fl.reuse_ratio,
            )
        config = MachineConfig(n_threads=N_THREADS)
        with span("runtime.cache_sim"):
            report = fl.simulate(config, fidelity="cache")
        with span("analytics.doctor"):
            doctor = diagnose(
                fl.schedule,
                kernels,
                config,
                fidelity="cache",
                report=report,
                locality=locality,
            )
        return sanitized, report, doctor

    def check(self, inp, out):
        sanitized, report, _ = out
        if sanitized.n_violations:
            raise CheckFailed(f"{sanitized.n_violations} dependence violations")
        report.assert_conserved()

    def chains(self):
        return [
            Chain(f"combo{self.COMBO}", self.kernels, self.state, self.fused.schedule)
        ]

    def probes(self):
        with span("obs.access_stream") as sp:
            collect_access_stream(self.fused.schedule, self.kernels)
        return {"obs.access_stream_ms": 1e3 * sp.seconds}


WORKLOADS = {w.name: w for w in (Solve, ExecNatural, Refit, Diagnose)}
