"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same metrics; the benchmark's own test
keeps the two in step.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


#: untraced runs; an operation is the workload's unit of work (one
#: solve pair, one round of chains, one refit, one diagnosis pass).
#: On a shared CPU whose speed drifts by tens of percent for seconds at
#: a time, a run's median and fastest operation measure where the drift
#: happened to be; its 90th percentile (the contended cost) repeats from
#: run to run, so that is the gated latency. The median and the
#: ten-beyond tail are printed, not gated.
END_TO_END = (
    # generated matrix -> first operation ready, median of the set-ups
    Metric("setup_s", "s", "lower", 0.25),
    # nearest-rank 90th percentile: the maximum below ten operations
    Metric("op_ms_p90", "ms", "lower", 0.25),
    # 1 - failed/attempted: never 0 while the program works
    Metric("ok_frac", "ratio", "higher", 0.01),
    # high-water resident set of this process (VmHWM), set-up included
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)


def _layer(unit: str, better: str, *names: str) -> tuple[Metric, ...]:
    return tuple(Metric(n, unit, better) for n in names)


#: exact-repeat guards: the same inputs give the same counts, so a
#: change means the inputs (or the schedule the program builds) changed
GUARDS = frozenset(
    (
        "graph.vertices",
        "graph.intra_edges",
        "graph.inter_edges",
        "schedule.s_partitions",
        "schedule.w_partitions",
        "runtime.plan_steps",
        "runtime.level_steps",
        "runtime.batch_steps",
        "runtime.scalar_iterations",
        "solvers.pcg_iterations",
        "solvers.gs_iterations",
    )
)

#: traced runs, in pipeline order; zero where the workload does not
#: exercise the layer
PER_LAYER = (
    *_layer("s", "lower", "sparse.ordering_s", "sparse.ic0_factor_s"),
    *_layer("ms", "lower", "kernels.build_ms"),
    *_layer(
        "ms",
        "lower",
        "fusion.inspect_ms",
        "fusion.intra_dags_ms",
        "fusion.inter_dep_ms",
        "fusion.fuse_ms",
    ),
    *_layer(
        "count", "lower", "graph.vertices", "graph.intra_edges", "graph.inter_edges"
    ),
    *_layer(
        "ms",
        "lower",
        "schedule.ico_ms",
        "schedule.ico_lbc_head_ms",
        "schedule.ico_pairing_ms",
        "schedule.ico_merge_ms",
        "schedule.ico_slack_balance_ms",
        "schedule.ico_pack_ms",
        "schedule.validate_ms",
    ),
    Metric("schedule.cache_hit_ratio", "ratio", "higher"),
    *_layer("count", "lower", "schedule.s_partitions", "schedule.w_partitions"),
    Metric("runtime.plan_compile_ms", "ms", "lower"),
    *_layer(
        "count",
        "lower",
        "runtime.plan_steps",
        "runtime.level_steps",
        "runtime.batch_steps",
        "runtime.scalar_iterations",
    ),
    *_layer(
        "ms",
        "lower",
        "runtime.execute_ms",
        "runtime.execute_ms.combo1",
        "runtime.execute_ms.combo3",
        "runtime.execute_ms.combo4",
        "runtime.execute_ms.combo5",
    ),
    Metric("runtime.us_per_step", "us", "lower"),
    *_layer(
        "ratio", "higher", "runtime.vectorized_frac", "runtime.plan_cache_hit_ratio"
    ),
    *_layer(
        "ms",
        "lower",
        "runtime.precond_apply_ms",
        "runtime.gs_chunk_ms",
        "runtime.simulate_ms",
        "runtime.cache_sim_ms",
    ),
    *_layer("s", "lower", "solvers.pcg_s", "solvers.gs_s"),
    *_layer("count", "lower", "solvers.pcg_iterations", "solvers.gs_iterations"),
    *_layer("s", "lower", "solvers.pcg_setup_s", "solvers.gs_inspect_s"),
    *_layer("ms", "lower", "obs.sanitize_ms", "obs.access_stream_ms"),
    *_layer("ms", "lower", "analytics.locality_ms", "analytics.doctor_ms"),
    # self time per operation by layer; with the residual they sum to
    # the operation's span
    *_layer(
        "ms",
        "lower",
        "self.sparse_ms",
        "self.kernels_ms",
        "self.fusion_ms",
        "self.schedule_ms",
        "self.runtime_ms",
        "self.solvers_ms",
        "self.obs_ms",
        "self.analytics_ms",
        "self.unattributed_ms",
    ),
    *_layer(
        "ms",
        "lower",
        "baselines.scipy_ms.combo1",
        "baselines.scipy_ms.combo3",
        "baselines.reference_ms",
        "baselines.unfused_plan_ms",
        "baselines.fused_plan_ms",
    ),
    Metric("baselines.fused_over_unfused", "ratio", "lower"),
    Metric("baselines.scipy_cg_s", "s", "lower"),
    *_layer("ratio", "lower", "trace.unattributed_frac", "trace.overhead_frac"),
    Metric("trace.conservation_err_ms", "ms", "lower"),
    Metric("fail_frac", "ratio", "lower"),
)
