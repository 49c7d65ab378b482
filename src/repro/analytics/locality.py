"""Measured-locality profiler: reuse distances from the real access stream.

The inspector's ``compute_reuse`` (Sec. 2.2, used for the Fig. 3 packing
decision) *estimates* data reuse from variable sizes. This module
*measures* it: the profiler replays the exact cache-line access stream a
schedule induces — per w-partition, in executed (packed) order, built
from the same per-iteration access maps the inspector joins — and
derives:

* **reuse-distance histograms** per w-partition (exact LRU stack
  distances over cache lines, :func:`repro.utils.arrays.stack_distances`
  over the sanitizer's access stream), and the modeled hit rate of a
  ``capacity_lines``-line cache;
* **working sets**: distinct cache lines touched per w-partition and
  per s-partition;
* a **measured reuse ratio** — the paper's
  ``2 * common / max(total1, total2)`` metric computed from the
  *observed* distinct ``(variable, element)`` footprints of the first
  kernel pair, directly comparable to the estimate;
* the **counterfactual packing**: the same schedule re-packed the other
  way (:func:`repro.fusion.fused.repack_schedule`, interleaved vs
  separated — Fig. 3 / Table 1) is replayed too, and the hit-rate gap
  says whether the inspector's packing choice was right *on this
  matrix*, not just on the size estimate;
* a **false-sharing risk** count: cache lines written from two or more
  w-partitions of the same s-partition (concurrent writers on real
  hardware).

Everything is emitted as registered counters (``locality.*`` in
:mod:`repro.obs.names`) and can be merged into the unified Perfetto
trace as counter tracks (``export_perfetto(..., locality=...)``). The
schedule doctor consumes the report to upgrade its packing rule from
heuristic to measured (:mod:`repro.analytics.doctor`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..kernels.base import Kernel, internal_var
from ..obs import current as current_recorder
from ..obs import names
from ..obs.memtrace import (
    ELEMS_PER_LINE,
    LINE_BYTES,
    AccessStream,
    collect_access_stream,
    var_extents,
)
from ..schedule.schedule import FusedSchedule
from ..utils.arrays import stack_distances

__all__ = [
    "WPartitionLocality",
    "SPartitionLocality",
    "LocalityReport",
    "profile_locality",
]

#: histogram bucket upper bounds (lines); last bucket is open-ended,
#: -1 collects cold (first-touch) accesses
_BUCKETS = (4, 16, 64, 256, 1024, 4096)


@dataclass
class WPartitionLocality:
    """Reuse behaviour of one w-partition's access stream."""

    s: int
    w: int
    n_accesses: int
    working_set: int  #: distinct cache lines
    histogram: np.ndarray  #: cold, <4, <16, <64, <256, <1024, <4096, >=4096
    hit_rate: float
    mean_reuse_distance: float


@dataclass
class SPartitionLocality:
    """Aggregate locality of one s-partition (across its w-partitions)."""

    s: int
    n_accesses: int
    working_set: int
    hit_rate: float
    false_shared_lines: int  #: lines written by >= 2 w-partitions


@dataclass
class LocalityReport:
    """Everything the profiler measured for one schedule."""

    packing: str
    line_bytes: int
    capacity_lines: int
    n_accesses: int
    distinct_lines: int
    hit_rate: float
    mean_reuse_distance: float
    measured_reuse: float
    estimated_reuse: float
    counterfactual_packing: str | None
    counterfactual_hit_rate: float | None
    false_shared_lines: int
    w_partitions: list[WPartitionLocality] = field(default_factory=list)
    s_partitions: list[SPartitionLocality] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def packing_gap(self) -> float | None:
        """Chosen-minus-counterfactual hit rate (negative = wrong pick)."""
        if self.counterfactual_hit_rate is None:
            return None
        return self.hit_rate - self.counterfactual_hit_rate

    @property
    def measured_packing(self) -> str:
        """Packing the *measured* reuse ratio selects (paper threshold 1)."""
        return "interleaved" if self.measured_reuse >= 1.0 else "separated"

    def summary(self) -> str:
        gap = self.packing_gap
        gap_s = f"{gap:+.3f}" if gap is not None else "n/a"
        return (
            f"locality[{self.packing}]: hit_rate={self.hit_rate:.3f} "
            f"(counterfactual gap {gap_s}), measured_reuse="
            f"{self.measured_reuse:.2f} (estimate {self.estimated_reuse:.2f}), "
            f"{self.distinct_lines} lines / {self.n_accesses} accesses, "
            f"{self.false_shared_lines} false-shared lines"
        )

    def to_json(self) -> dict:
        return {
            "packing": self.packing,
            "line_bytes": self.line_bytes,
            "capacity_lines": self.capacity_lines,
            "n_accesses": self.n_accesses,
            "distinct_lines": self.distinct_lines,
            "hit_rate": self.hit_rate,
            "mean_reuse_distance": self.mean_reuse_distance,
            "measured_reuse": self.measured_reuse,
            "estimated_reuse": self.estimated_reuse,
            "measured_packing": self.measured_packing,
            "counterfactual_packing": self.counterfactual_packing,
            "counterfactual_hit_rate": self.counterfactual_hit_rate,
            "packing_gap": self.packing_gap,
            "false_shared_lines": self.false_shared_lines,
            "seconds": self.seconds,
            "w_partitions": [
                {
                    "s": w.s,
                    "w": w.w,
                    "n_accesses": w.n_accesses,
                    "working_set": w.working_set,
                    "histogram": w.histogram.tolist(),
                    "hit_rate": w.hit_rate,
                    "mean_reuse_distance": w.mean_reuse_distance,
                }
                for w in self.w_partitions
            ],
            "s_partitions": [
                {
                    "s": s.s,
                    "n_accesses": s.n_accesses,
                    "working_set": s.working_set,
                    "hit_rate": s.hit_rate,
                    "false_shared_lines": s.false_shared_lines,
                }
                for s in self.s_partitions
            ],
        }

    def emit(self) -> None:
        """Record the headline numbers as registered ``locality.*`` counters."""
        rec = current_recorder()
        if not rec.enabled:
            return
        rec.count(names.LOCALITY_ACCESSES, self.n_accesses)
        rec.count(names.LOCALITY_DISTINCT_LINES, self.distinct_lines)
        rec.count(names.LOCALITY_MEASURED_REUSE, self.measured_reuse)
        rec.count(names.LOCALITY_ESTIMATED_REUSE, self.estimated_reuse)
        rec.count(names.LOCALITY_MEAN_REUSE_DISTANCE, self.mean_reuse_distance)
        rec.count(names.LOCALITY_HIT_RATE, self.hit_rate)
        if self.counterfactual_hit_rate is not None:
            rec.count(
                names.LOCALITY_COUNTERFACTUAL_HIT_RATE,
                self.counterfactual_hit_rate,
            )
            rec.count(names.LOCALITY_PACKING_GAP, self.packing_gap)
        rec.count(names.LOCALITY_FALSE_SHARED_LINES, self.false_shared_lines)
        rec.count(names.LOCALITY_SECONDS, self.seconds)


# ----------------------------------------------------------------------
# line-granular replay of the access stream
# ----------------------------------------------------------------------
def _vertex_line_table(
    kernels: list[Kernel], stream: AccessStream
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Distinct cache lines of every vertex, in line order.

    Variables are laid out back to back in name order, each starting on
    a fresh cache line (as separate float64 allocations would), so two
    variables never share a line. Returns ``(vertex, line, written,
    n_lines)``: one row per distinct ``(vertex, line)``, sorted by
    vertex then line; ``written`` marks lines the vertex writes.
    """
    base: dict[str, int] = {}
    n_lines = 0
    for var, size in sorted(var_extents(kernels).items()):
        base[var] = n_lines
        n_lines += (size + ELEMS_PER_LINE - 1) // ELEMS_PER_LINE
    var_base = np.array([base[v] for v in stream.var_names], dtype=np.int64)
    lines = var_base[stream.var] + stream.elem // ELEMS_PER_LINE
    n_lines = max(n_lines, 1)
    keys, inv = np.unique(stream.gid * n_lines + lines, return_inverse=True)
    written = np.bincount(inv, weights=stream.is_write, minlength=keys.shape[0]) > 0
    return keys // n_lines, keys % n_lines, written, n_lines


def _replay(
    schedule: FusedSchedule,
    vertex: np.ndarray,
    line: np.ndarray,
    written: np.ndarray,
    n_lines: int,
    capacity_lines: int,
) -> tuple[list[WPartitionLocality], list[SPartitionLocality], int, float, float, int]:
    """Replay *schedule*'s per-w-partition streams through the LRU model.

    Each non-empty w-partition is one stream: its vertices in packed
    order, each contributing its distinct lines. All streams go through
    one :func:`stack_distances` call with line ids offset per stream.
    """
    runs = [
        (s, w, verts)
        for s, wlist in enumerate(schedule.s_partitions)
        for w, verts in enumerate(wlist)
        if verts.shape[0]
    ]
    n_runs = len(runs)
    run_of = np.full(schedule.n_vertices, -1, dtype=np.int64)
    rank = np.full(schedule.n_vertices, -1, dtype=np.int64)
    start = 0
    for r, (_, _, verts) in enumerate(runs):
        run_of[verts] = r
        rank[verts] = np.arange(start, start + verts.shape[0])
        start += verts.shape[0]
    keep = np.nonzero(rank[vertex] >= 0)[0]
    order = keep[np.argsort(rank[vertex[keep]], kind="stable")]
    run = run_of[vertex[order]]
    lines = line[order]
    d = stack_distances(run * n_lines + lines)
    reused = d >= 0

    n_buckets = len(_BUCKETS) + 2
    bucket = np.where(reused, 1 + np.searchsorted(_BUCKETS, d, side="right"), 0)
    hist = np.bincount(run * n_buckets + bucket, minlength=n_runs * n_buckets)
    hist = hist.reshape(n_runs, n_buckets)
    n_acc = np.bincount(run, minlength=n_runs)
    hits = np.bincount(run[reused & (d < capacity_lines)], minlength=n_runs)
    dist_sum = np.bincount(run[reused], weights=d[reused], minlength=n_runs)
    working = np.bincount(
        np.unique(run * n_lines + lines) // n_lines, minlength=n_runs
    )

    # working sets and false sharing per s-partition
    n_sp = schedule.n_spartitions
    run_s = np.array([s for s, _, _ in runs], dtype=np.int64)
    run_w = np.array([w for _, w, _ in runs], dtype=np.int64)
    s_line = run_s[run] * n_lines + lines
    s_working = np.bincount(np.unique(s_line) // n_lines, minlength=n_sp)
    wrote = written[order]
    n_w = int(run_w.max()) + 1 if n_runs else 1
    writers = np.unique(s_line[wrote] * n_w + run_w[run[wrote]]) // n_w
    shared_line, n_writers = np.unique(writers, return_counts=True)
    false_shared = np.bincount(
        shared_line[n_writers >= 2] // n_lines, minlength=n_sp
    )

    w_parts: list[WPartitionLocality] = []
    s_acc = np.zeros(n_sp, dtype=np.int64)
    s_hits = np.zeros(n_sp, dtype=np.int64)
    dist_weighted = 0.0
    for r, (s, w, _) in enumerate(runs):
        n = int(n_acc[r])
        n_reused = n - int(hist[r, 0])
        mean_d = float(dist_sum[r]) / n_reused if n_reused else 0.0
        w_parts.append(
            WPartitionLocality(
                s=s,
                w=w,
                n_accesses=n,
                working_set=int(working[r]),
                histogram=hist[r],
                hit_rate=int(hits[r]) / n if n else 0.0,
                mean_reuse_distance=mean_d,
            )
        )
        s_acc[s] += n
        s_hits[s] += hits[r]
        # the report's mean weights each w-partition's float mean, which
        # can round differently from the raw distance sum
        dist_weighted += mean_d * n_reused
    s_parts = [
        SPartitionLocality(
            s=s,
            n_accesses=int(s_acc[s]),
            working_set=int(s_working[s]),
            hit_rate=int(s_hits[s]) / int(s_acc[s]) if s_acc[s] else 0.0,
            false_shared_lines=int(false_shared[s]),
        )
        for s in range(n_sp)
    ]
    total = int(n_acc.sum())
    n_reused_total = int(reused.sum())
    hit_rate = int(hits.sum()) / total if total else 0.0
    mean_d = dist_weighted / n_reused_total if n_reused_total else 0.0
    return w_parts, s_parts, total, hit_rate, mean_d, int(np.unique(lines).shape[0])


def _measured_reuse(stream: AccessStream, n_loops: int) -> float:
    """The paper's reuse metric from *observed* element footprints.

    ``2 * |common| / max(|footprint1|, |footprint2|)`` over distinct
    non-internal ``(variable, element)`` accesses of the first kernel
    pair — the measured analogue of
    :func:`repro.fusion.inspector.compute_reuse`.
    """
    if n_loops < 2:
        return 0.0
    shared = np.array([not internal_var(v) for v in stream.var_names], dtype=bool)
    span = int(stream.elem.max()) + 1 if stream.elem.shape[0] else 1
    key = stream.var * span + stream.elem
    counted = shared[stream.var]
    f1 = np.unique(key[counted & (stream.loop == 0)])
    f2 = np.unique(key[counted & (stream.loop == 1)])
    denom = max(f1.shape[0], f2.shape[0])
    if denom == 0:
        return 0.0
    return 2.0 * np.intersect1d(f1, f2).shape[0] / denom


def profile_locality(
    schedule: FusedSchedule,
    kernels: list[Kernel],
    *,
    capacity_lines: int = 512,
    counterfactual: bool = True,
    dags=None,
    inter=None,
    estimated_reuse: float | None = None,
) -> LocalityReport:
    """Measure the locality a schedule actually induces.

    ``capacity_lines`` models a private cache (default 512 lines = 32 KiB
    of 64-byte lines, an L1d). With ``counterfactual=True`` the schedule
    is re-packed the other way (interleaved <-> separated) and replayed,
    so :attr:`LocalityReport.packing_gap` quantifies the packing
    decision; *dags*/*inter* are reused when given and recomputed via
    :func:`repro.fusion.fused.inspect_loops` otherwise. The report is
    emitted as registered ``locality.*`` counters.
    """
    t0 = time.perf_counter()
    rec = current_recorder()
    with rec.span(
        "locality.profile",
        packing=schedule.packing,
        vertices=schedule.n_vertices,
    ) as span:
        stream = collect_access_stream(schedule, kernels)
        table = _vertex_line_table(kernels, stream)
        w_parts, s_parts, n_acc, hit_rate, mean_d, distinct = _replay(
            schedule, *table, capacity_lines
        )
        est = estimated_reuse
        cf_packing = cf_hit = None
        if counterfactual or est is None:
            from ..fusion.fused import inspect_loops, repack_schedule

            if counterfactual:
                if dags is None or inter is None:
                    dags, inter, reuse = inspect_loops(kernels)
                    if est is None:
                        est = reuse
                cf_packing = (
                    "separated"
                    if schedule.packing == "interleaved"
                    else "interleaved"
                )
                cf_sched = repack_schedule(schedule, dags, inter, cf_packing)
                _, _, _, cf_hit, _, _ = _replay(cf_sched, *table, capacity_lines)
            if est is None:
                from ..fusion.inspector import compute_reuse

                est = (
                    compute_reuse(kernels[0], kernels[1])
                    if len(kernels) > 1
                    else 0.0
                )
        report = LocalityReport(
            packing=schedule.packing,
            line_bytes=LINE_BYTES,
            capacity_lines=capacity_lines,
            n_accesses=n_acc,
            distinct_lines=distinct,
            hit_rate=hit_rate,
            mean_reuse_distance=mean_d,
            measured_reuse=_measured_reuse(stream, len(kernels)),
            estimated_reuse=float(est if est is not None else 0.0),
            counterfactual_packing=cf_packing,
            counterfactual_hit_rate=cf_hit,
            false_shared_lines=sum(s.false_shared_lines for s in s_parts),
            w_partitions=w_parts,
            s_partitions=s_parts,
            seconds=time.perf_counter() - t0,
        )
        span.set(
            accesses=n_acc,
            hit_rate=round(hit_rate, 4),
            measured_reuse=round(report.measured_reuse, 4),
        )
        report.emit()
    return report
