"""Compiled execution plans: level-batched vectorized schedule execution.

The per-iteration executor (:func:`repro.runtime.executor.execute_schedule`)
is the semantics oracle but pays one Python call per iteration. This
module is the fast path: it compiles a
:class:`~repro.schedule.schedule.FusedSchedule` plus its kernel list
*once* into a flat, array-backed :class:`ExecutionPlan`, vectorizing
the dependence-carrying kernels (SpTRSV, SpIC0, SpILU0 — the very loops
the paper fuses) as well as the parallel ones:

* The compile unit is an s-partition: its w-partitions are
  concatenated, regrouped by loop (ascending program order) and each
  dependence-carrying group is split into **intra-DAG level sets** —
  antichains whose members are mutually independent and may therefore
  execute as one vectorized
  :meth:`~repro.kernels.base.Kernel.run_level_batch` call. One step
  thus covers one (s-partition, loop, level), whatever the number of
  w-partitions. An s-partition of more than
  :data:`COALESCE_MAX_VERTICES` vertices is the exception: each of its
  w-partitions is its own unit, which keeps the per-w interleaving of
  loops (the fused locality) where steps are wide enough that dispatch
  cost no longer dominates.
* Per level, the kernel's :meth:`~repro.kernels.base.Kernel.precompute_level`
  builds the concatenated gather/scatter index arrays and
  ``np.add.reduceat`` segment boundaries up front, so executing the plan
  does no index arithmetic at all — only gathers, segment reductions and
  scatters.
* The plan is compiled once and reused: the solvers pass their own
  :func:`compile_plan` result as ``plan=`` to every Gauss-Seidel sweep
  or preconditioner application, and other callers get it from
  :func:`plan_for`'s content-keyed memo. Counters ``plan.cache_hits`` /
  ``plan.cache_misses`` and the ``plan.compile_seconds`` counter under
  :mod:`repro.obs` make the amortization visible.

Legality of the regrouping (see docs/performance.md for the full
argument): within a unit, (a) inter-loop dependences only flow from a
lower to a higher loop index, because the inspector builds ``F`` for
ordered loop pairs only, so running complete loop groups in ascending
program order satisfies them; (b) intra-loop dependences always
increase the intra-DAG level, so ascending level order satisfies them
and same-level iterations form an antichain; (c) the
:func:`~repro.schedule.schedule.validate_schedule` dependence rule
leaves no edge between two w-partitions of one s-partition — a
dependence whose source lies in a different w-partition comes from an
earlier s-partition, and s-partitions stay sequential. By (c), merging
the w-partitions of an s-partition into one unit adds no edge that (a)
and (b) do not already order.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..kernels.base import Kernel, State
from ..obs import current as current_recorder
from ..obs import names
from ..schedule.cache import fingerprint
from ..schedule.schedule import FusedSchedule, check_loop_counts

__all__ = [
    "PlanStep",
    "ExecutionPlan",
    "compile_plan",
    "plan_for",
    "coalesced_s_partitions",
    "execute_schedule_planned",
]

#: Group/level size below which a step runs per iteration. Every
#: vectorized dispatch pays a fixed cost of several microseconds (index
#: conversion, ufunc dispatch) while a scalar iteration pays one Python
#: call, so below about 4 iterations vectorizing loses.
MIN_BATCH = 4

#: Largest s-partition (in vertices) compiled as one unit. Coalescing
#: its w-partitions cuts dispatches several-fold but gives up their
#: per-w interleaving of loops (the fused locality), which is worth more
#: once steps are this wide: measured in EXPERIMENTS.md, coalescing wins
#: up to 82k-vertex s-partitions and loses at 191k and 334k.
COALESCE_MAX_VERTICES = 2**17

#: Compiled plans :func:`plan_for` keeps, least recently used evicted.
PLAN_CACHE_SIZE = 16

_plans: OrderedDict[str, "ExecutionPlan"] = OrderedDict()


@dataclass
class PlanStep:
    """One dispatch of the compiled plan.

    ``kind`` names the loop the step belongs to: ``"level"`` (a loop
    with intra-DAG edges) or ``"batch"`` (a dependence-free loop), both
    one vectorized ``run_level_batch`` call; or ``"scalar"``
    (per-iteration loop, preserving packed order). ``iters`` may span
    several w-partitions of s-partition ``s`` (see
    :func:`coalesced_s_partitions`).
    """

    kind: str
    loop: int
    iters: np.ndarray
    precomp: Any = None
    #: the step's s-partition; the dependence sanitizer uses it to model
    #: plan-executor happens-before, where one level/batch step is a
    #: concurrent unit
    s: int = 0


@dataclass
class ExecutionPlan:
    """A schedule compiled into a flat list of vectorized dispatches.

    Barriers are implicit: steps are emitted in s-partition order and the
    (sequential-faithful) executor runs them in sequence, so every
    cross-s-partition dependence is satisfied by construction.
    """

    loop_counts: tuple[int, ...]
    steps: list[PlanStep]
    #: :func:`repro.schedule.fingerprint` of the kernels compiled for;
    #: a prebuilt plan refuses kernels of any other pattern
    kernels_key: str = ""
    n_level_steps: int = 0
    n_batch_steps: int = 0
    n_scalar_iterations: int = 0
    n_batched_iterations: int = 0
    compile_seconds: float = 0.0

    @property
    def n_steps(self) -> int:
        return len(self.steps)


def _split_levels(iters: np.ndarray, levels: np.ndarray) -> list[np.ndarray]:
    """Split *iters* into its intra-DAG level sets, ascending level.

    Stable sort keeps the packed order within one level, which keeps the
    scalar fallback for tiny levels faithful to the original schedule.
    """
    lv = levels[iters]
    order = np.argsort(lv, kind="stable")
    sorted_lv = lv[order]
    boundaries = np.nonzero(np.diff(sorted_lv))[0] + 1
    return [iters[g] for g in np.split(order, boundaries)]


def coalesced_s_partitions(schedule: FusedSchedule) -> list[bool]:
    """Per s-partition, whether it compiles as one unit (at most
    :data:`COALESCE_MAX_VERTICES` vertices) rather than one unit per
    w-partition."""
    return [
        sum(w.shape[0] for w in wl) <= COALESCE_MAX_VERTICES
        for wl in schedule.s_partitions
    ]


def _units(schedule: FusedSchedule):
    """Yield the ``(s, vertices)`` compile units in execution order: a
    coalesced s-partition's w-partitions concatenated, otherwise each
    w-partition on its own."""
    coalesced = coalesced_s_partitions(schedule)
    for s, wlist in enumerate(schedule.s_partitions):
        if coalesced[s] and len(wlist) > 1:
            wlist = [np.concatenate(wlist)]
        for verts in wlist:
            yield s, verts


def compile_plan(
    schedule: FusedSchedule, kernels: list[Kernel]
) -> ExecutionPlan:
    """Compile *schedule* + *kernels* into an :class:`ExecutionPlan`.

    Groups and levels smaller than :data:`MIN_BATCH` become scalar steps.
    """
    check_loop_counts(kernels, schedule.loop_counts)
    rec = current_recorder()
    t0 = time.perf_counter()
    offsets = schedule.offsets
    loop_of = np.zeros(max(1, schedule.n_vertices), dtype=np.int64)
    for k in range(len(kernels)):
        loop_of[offsets[k] : offsets[k + 1]] = k
    # Intra-DAG levels, computed lazily per loop (memoized on the DAG).
    kern_levels: list[np.ndarray | None] = [None] * len(kernels)

    steps: list[PlanStep] = []
    n_level = n_batch = n_scalar_iters = n_batched_iters = 0
    with rec.span("plan.compile", vertices=schedule.n_vertices):
        for s, verts in _units(schedule):
            if verts.shape[0] == 0:
                continue
            loops = loop_of[verts]
            # Group by loop, ascending program order, packed order kept
            # within each group (legality: module docstring, point (a)).
            order = np.argsort(loops, kind="stable")
            grouped = verts[order]
            gloops = loops[order]
            boundaries = np.nonzero(np.diff(gloops))[0] + 1
            for group in np.split(grouped, boundaries):
                k = int(loop_of[group[0]])
                kern = kernels[k]
                iters = group - int(offsets[k])
                if iters.shape[0] >= MIN_BATCH:
                    if kern_levels[k] is None:
                        kern_levels[k] = kern.intra_dag().levels()
                    # a dependence-free loop has one level, hence one step
                    carried = kern.has_carried_dependence
                    for chunk in _split_levels(iters, kern_levels[k]):
                        if chunk.shape[0] >= MIN_BATCH:
                            steps.append(
                                PlanStep(
                                    "level" if carried else "batch",
                                    k,
                                    chunk,
                                    kern.precompute_level(chunk),
                                    s=s,
                                )
                            )
                            if carried:
                                n_level += 1
                            else:
                                n_batch += 1
                            n_batched_iters += chunk.shape[0]
                        else:
                            steps.append(PlanStep("scalar", k, chunk, s=s))
                            n_scalar_iters += chunk.shape[0]
                else:
                    steps.append(PlanStep("scalar", k, iters, s=s))
                    n_scalar_iters += iters.shape[0]
    compile_seconds = time.perf_counter() - t0
    if rec.enabled:
        rec.count(names.PLAN_COMPILE_SECONDS, compile_seconds)
        rec.count(names.PLAN_LEVEL_STEPS, n_level)
    return ExecutionPlan(
        loop_counts=tuple(schedule.loop_counts),
        steps=steps,
        kernels_key=fingerprint(kernels),
        n_level_steps=n_level,
        n_batch_steps=n_batch,
        n_scalar_iterations=n_scalar_iters,
        n_batched_iterations=n_batched_iters,
        compile_seconds=compile_seconds,
    )


def plan_for(schedule: FusedSchedule, kernels: list[Kernel]) -> ExecutionPlan:
    """Memoized :func:`compile_plan`, keyed by content.

    A plan holds only pattern-derived index arrays (``precompute_level``
    reads ``indptr``/``indices``, never values), so the key is
    :func:`repro.schedule.fingerprint` of *kernels* and *schedule*:
    kernels rebuilt on new values of one pattern share a plan, and a
    changed vertex order never reaches a plan compiled for the old one.
    """
    key = fingerprint(kernels, schedule)
    rec = current_recorder()
    # pop + reinsert marks it recently used; racing callers at worst compile twice
    plan = _plans.pop(key, None)
    if plan is not None:
        _plans[key] = plan
        if rec.enabled:
            rec.count(names.PLAN_CACHE_HITS)
        return plan
    if rec.enabled:
        rec.count(names.PLAN_CACHE_MISSES)
    plan = _plans[key] = compile_plan(schedule, kernels)
    while len(_plans) > PLAN_CACHE_SIZE:
        _plans.popitem(last=False)
    return plan


def execute_schedule_planned(
    schedule: FusedSchedule,
    kernels: list[Kernel],
    state: State,
    *,
    plan: ExecutionPlan | None = None,
    sanitize: bool = False,
) -> State:
    """Execute *schedule* through its compiled plan.

    Semantics match :func:`repro.runtime.executor.execute_schedule` up to
    floating-point association order inside reductions (tests pin the
    tolerance; most kernels are bitwise-identical). Pass a prebuilt
    *plan* to bypass :func:`plan_for`'s memo entirely.

    With ``sanitize=True`` the dynamic dependence sanitizer
    (:func:`repro.obs.memtrace.sanitize_schedule`) checks every memory
    dependence under the plan's happens-before model — one level/batch
    step is a concurrent unit — before anything runs.
    """
    if sanitize:
        from ..obs.memtrace import sanitize_schedule

        sanitize_schedule(schedule, kernels, executor="plan").raise_if_violations()
    if plan is None:
        plan = plan_for(schedule, kernels)
    else:
        check_loop_counts(kernels, plan.loop_counts)
        if fingerprint(kernels) != plan.kernels_key:
            raise ValueError(
                "prebuilt plan was compiled for kernels of another sparsity pattern"
            )
    for kern in kernels:
        kern.setup(state)
    scratches = [k.make_scratch() for k in kernels]
    rec = current_recorder()
    with rec.span(
        "executor.run", executor="planned", vertices=sum(plan.loop_counts)
    ):
        for step in plan.steps:
            kern = kernels[step.loop]
            if step.kind == "scalar":
                scratch = scratches[step.loop]
                for i in step.iters.tolist():
                    kern.run_iteration(i, state, scratch)
            else:
                kern.run_level_batch(
                    step.iters, state, step.precomp, scratches[step.loop]
                )
    if rec.enabled:
        rec.count(names.EXECUTOR_BATCHED_ITERATIONS, plan.n_batched_iterations)
        rec.count(names.EXECUTOR_SCALAR_ITERATIONS, plan.n_scalar_iterations)
        rec.count(names.EXECUTOR_LEVEL_COUNT, plan.n_level_steps)
    return state
