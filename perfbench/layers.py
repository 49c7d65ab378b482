"""Per-layer metrics of a traced run, and the honest baselines.

Times come from spans (:mod:`ledger`): the benchmark's own spans around
each public call, with the program's spans (``inspector.*``, ``ico.*``,
``plan.compile``, ``executor.run``, ``pcg.setup``, ``gs.*``) nested
under them. Counter-based ratios use the counter deltas of the traced
operations only. Baselines are measured after the closed loop, under
their own top-level span, and are never gated.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
from scipy.sparse.linalg import cg, spsolve_triangular

from ledger import LAYERS, Ledger, mean_ms
from repro.baselines import parsy_schedule
from repro.runtime import compile_plan, execute_schedule_planned, run_reference
from workloads import N_THREADS, copy_state, mismatched, reference_state, span

BASELINE_REPS = 3
_ICO_STAGES = ("lbc_head", "pairing", "merge", "slack_balance", "pack")
_WORKLOAD_SPECIFIC = (
    "sparse.ic0_factor_s",
    "runtime.simulate_ms",
    "obs.access_stream_ms",
    "solvers.pcg_iterations",
    "solvers.gs_iterations",
)


def _median_seconds(fn, prepare=lambda: None, reps: int = BASELINE_REPS):
    """Median wall-clock of *fn(prepare())* over *reps* calls; the
    argument is built outside the timed interval. Returns (seconds, last
    result)."""
    times, out = [], None
    for _ in range(reps):
        arg = prepare()
        t0 = perf_counter()
        out = fn(arg)
        times.append(perf_counter() - t0)
    return statistics.median(times), out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _summed(deltas: list[dict], *names: str) -> float:
    return sum(d.get(n, 0.0) for d in deltas for n in names)


def baselines(wl) -> dict[str, float]:
    """Reference, unfused-plan and fused-plan times of every chain the
    workload runs, scipy on its matrix, and plan/schedule counts."""
    m = dict.fromkeys(
        (
            "baselines.reference_ms",
            "baselines.unfused_plan_ms",
            "baselines.fused_plan_ms",
            "runtime.plan_steps",
            "runtime.level_steps",
            "runtime.batch_steps",
            "runtime.scalar_iterations",
            "schedule.s_partitions",
            "schedule.w_partitions",
        ),
        0.0,
    )
    for ch in wl.chains():
        want = reference_state(ch.kernels, ch.state)
        with span("baselines.reference", chain=ch.label):
            ref_s, _ = _median_seconds(
                lambda st: run_reference(ch.kernels, st),
                lambda: copy_state(ch.state),
            )
        with span("baselines.unfused_plan", chain=ch.label):
            unfused = parsy_schedule(ch.kernels, N_THREADS)
            plan_u = compile_plan(unfused, ch.kernels)
            unf_s, got_u = _median_seconds(
                lambda st: execute_schedule_planned(
                    unfused, ch.kernels, st, plan=plan_u
                ),
                lambda: copy_state(ch.state),
            )
        with span("baselines.fused_plan", chain=ch.label):
            plan_f = compile_plan(ch.schedule, ch.kernels)
            fus_s, got_f = _median_seconds(
                lambda st: execute_schedule_planned(
                    ch.schedule, ch.kernels, st, plan=plan_f
                ),
                lambda: copy_state(ch.state),
            )
        for label, got in (("unfused", got_u), ("fused", got_f)):
            bad = mismatched(got, want)
            if bad:
                raise RuntimeError(f"{ch.label} {label} baseline: {bad} wrong")
        m["baselines.reference_ms"] += 1e3 * ref_s
        m["baselines.unfused_plan_ms"] += 1e3 * unf_s
        m["baselines.fused_plan_ms"] += 1e3 * fus_s
        m["runtime.plan_steps"] += plan_f.n_steps
        m["runtime.level_steps"] += plan_f.n_level_steps
        m["runtime.batch_steps"] += plan_f.n_batch_steps
        m["runtime.scalar_iterations"] += plan_f.n_scalar_iterations
        m["schedule.s_partitions"] += ch.schedule.n_spartitions
        m["schedule.w_partitions"] += sum(
            len(wlist) for wlist in ch.schedule.s_partitions
        )
    m["baselines.fused_over_unfused"] = _ratio(
        m["baselines.fused_plan_ms"], m["baselines.unfused_plan_ms"]
    )

    a = wl.scipy_matrix()
    low = a.lower_triangle().to_scipy()
    full = a.to_scipy()
    x0 = np.random.default_rng(wl.seed).random(a.n_rows)
    with span("baselines.scipy", combo=1):
        s1, _ = _median_seconds(
            lambda b: spsolve_triangular(
                low, spsolve_triangular(low, b, lower=True), lower=True
            ),
            lambda: x0.copy(),
        )
    with span("baselines.scipy", combo=3):
        s3, _ = _median_seconds(
            lambda b: full @ spsolve_triangular(low, b, lower=True),
            lambda: x0.copy(),
        )
    m["baselines.scipy_ms.combo1"] = 1e3 * s1
    m["baselines.scipy_ms.combo3"] = 1e3 * s3

    m["baselines.scipy_cg_s"] = 0.0
    system = wl.cg_system()
    if system is not None:
        a_cg, b, tol = system
        a_sp = a_cg.to_scipy()
        with span("baselines.scipy_cg"):
            cg_s, (x, info) = _median_seconds(
                lambda rhs: cg(a_sp, rhs, rtol=tol, maxiter=10 * a_cg.n_rows),
                lambda: b.copy(),
            )
        if info != 0:
            raise RuntimeError(f"scipy cg did not converge (info={info})")
        m["baselines.scipy_cg_s"] = cg_s
    return m


def per_layer(rec, deltas, lat_untraced, lat_traced, attempted, failed, extra):
    """Every per-layer metric of the traced run (see :mod:`metrics`)."""
    L = Ledger(rec.spans)
    main = ("setup", "op")

    def sel(name, root=main, within=None):
        return L.select(name, root=root, within=within)

    def per_call_ms(part_names, anchor):
        n = len(sel(anchor))
        return _ratio(1e3 * sum(s.seconds for p in part_names for s in sel(p)), n)

    m: dict[str, float] = {}
    setups, ops = L.roots("setup"), L.roots("op")
    m["sparse.ordering_s"] = statistics.median(
        sum(s.seconds for s in L.descendants(r) if s.name == "sparse.ordering")
        for r in setups
    )
    m["kernels.build_ms"] = mean_ms(sel("kernels.build"))

    fuse_parts = ("inspector.intra_dags", "inspector.inter_dep", "inspector.reuse")
    m["fusion.fuse_ms"] = mean_ms(sel("inspector"))
    m["fusion.inspect_ms"] = per_call_ms(fuse_parts, "inspector")
    m["fusion.intra_dags_ms"] = per_call_ms(fuse_parts[:1], "inspector")
    m["fusion.inter_dep_ms"] = per_call_ms(fuse_parts[1:2], "inspector")

    # graph counts of one operation, or of one set-up when the
    # operation does not fuse
    units = deltas["op"]
    if not _summed(units, "inspector.vertices"):
        units = deltas["setup"]
    for metric, counter in (
        ("graph.vertices", "inspector.vertices"),
        ("graph.intra_edges", "inspector.intra_edges"),
        ("graph.inter_edges", "inspector.inter_edges"),
    ):
        m[metric] = _ratio(_summed(units, counter), len(units))

    m["schedule.ico_ms"] = mean_ms(sel("ico"))
    for stage in _ICO_STAGES:
        m[f"schedule.ico_{stage}_ms"] = per_call_ms((f"ico.{stage}",), "ico")
    m["schedule.validate_ms"] = mean_ms(sel("schedule.validate"))
    hits = _summed(deltas["op"], "inspector.cache_hits")
    m["schedule.cache_hit_ratio"] = _ratio(
        hits, hits + _summed(deltas["op"], "inspector.cache_misses")
    )

    m["runtime.plan_compile_ms"] = mean_ms(sel("plan.compile"))
    execs = sel("runtime.execute", root="op")
    m["runtime.execute_ms"] = mean_ms(execs)
    for c in (1, 3, 4, 5):
        m[f"runtime.execute_ms.combo{c}"] = mean_ms(
            [s for s in execs if s.attrs.get("combo") == c]
        )
    m["runtime.us_per_step"] = _ratio(
        1e6 * sum(s.seconds for s in execs), sum(s.attrs["steps"] for s in execs)
    )
    batched = _summed(deltas["op"], "executor.batched_iterations")
    m["runtime.vectorized_frac"] = _ratio(
        batched, batched + _summed(deltas["op"], "executor.scalar_iterations")
    )
    plan_hits = _summed(deltas["op"], "plan.cache_hits")
    m["runtime.plan_cache_hit_ratio"] = _ratio(
        plan_hits, plan_hits + _summed(deltas["op"], "plan.cache_misses")
    )
    m["runtime.precond_apply_ms"] = mean_ms(
        sel("executor.run", root="op", within="solvers.pcg")
    )
    m["runtime.gs_chunk_ms"] = mean_ms(
        sel("executor.run", root="op", within="gs.solve")
    )
    m["runtime.cache_sim_ms"] = mean_ms(sel("runtime.cache_sim", root="op"))

    for metric, name in (
        ("solvers.pcg_s", "solvers.pcg"),
        ("solvers.gs_s", "solvers.gs"),
        ("solvers.pcg_setup_s", "pcg.setup"),
        ("solvers.gs_inspect_s", "gs.schedule"),
    ):
        m[metric] = mean_ms(sel(name, root="op")) / 1e3
    m["obs.sanitize_ms"] = mean_ms(sel("obs.sanitize", root="op"))
    m["analytics.locality_ms"] = mean_ms(sel("analytics.locality", root="op"))
    m["analytics.doctor_ms"] = mean_ms(sel("analytics.doctor", root="op"))

    # wall-clock conservation: layer self times + residual == operation
    layer_self = dict.fromkeys(LAYERS, 0.0)
    residual = total = err = 0.0
    for op in ops:
        layers, res, e = L.op_account(op)
        for name, sec in layers.items():
            layer_self[name] = layer_self.get(name, 0.0) + sec
        residual += res
        total += op.seconds
        err = max(err, e)
    for name in LAYERS[:-1]:
        m[f"self.{name}_ms"] = _ratio(1e3 * layer_self[name], len(ops))
    m["self.unattributed_ms"] = _ratio(1e3 * residual, len(ops))
    m["trace.unattributed_frac"] = _ratio(residual, total)
    m["trace.conservation_err_ms"] = 1e3 * err
    m["trace.overhead_frac"] = 0.0
    if lat_traced and lat_untraced:
        m["trace.overhead_frac"] = (
            statistics.median(lat_traced) / statistics.median(lat_untraced) - 1.0
        )
    m["fail_frac"] = _ratio(failed, attempted)
    # probes and guards a workload does not have
    for name in _WORKLOAD_SPECIFIC:
        m[name] = 0.0
    m.update(extra)
    return m, layer_self.get("other", 0.0)
