"""One benchmark run: set-ups, the closed loop, then the metrics.

Untraced runs (the default recorder, which records nothing) give the
end-to-end metrics. Traced runs alternate untraced and traced
operations, so the tracing overhead is measured inside one process,
then time the probes and baselines and write the spans out.
"""

from __future__ import annotations

import gc
import math
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from metrics import END_TO_END, PER_LAYER
from repro.obs import Recorder, export_jsonl, export_perfetto, set_recorder

#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: samples beyond the reported tail percentile
TAIL_BEYOND = 10


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0

    def payload(self) -> dict:
        units = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                k: {"value": float(v), "unit": units[k]}
                for k, v in self.metrics.items()
            },
        }


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least *pct*
    percent of the samples at or below it."""
    v = sorted(values)
    return v[max(0, math.ceil(pct / 100 * len(v)) - 1)]


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that has at
    least :data:`TAIL_BEYOND` samples beyond it; the maximum (100) when
    there are too few samples."""
    v = sorted(values)
    n = len(v)
    if n <= TAIL_BEYOND:
        return v[-1], 100.0
    return v[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    """High-water resident set of this process's address space.

    ``VmHWM`` starts afresh with the interpreter's ``exec``; the
    ``getrusage`` maximum would also carry the parent's pages over the
    fork, so it is only the fallback.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def _phase(rec, deltas, kind: str, **attrs):
    """Top-level span *kind* on *rec*, which is current only inside;
    records the counter deltas of the phase. A no-op when *rec* is None."""
    if rec is None:
        yield
        return
    before = dict(rec.counters)
    prev = set_recorder(rec)
    try:
        with rec.span(kind, **attrs):
            yield
    finally:
        set_recorder(prev)
        deltas.setdefault(kind, []).append(
            {k: v - before.get(k, 0.0) for k, v in rec.counters.items()}
        )


def run(
    wl, *, seconds: float, trace: bool, setup_reps: int = SETUP_REPS, out_dir=None
) -> RunResult:
    """Run workload *wl* for *seconds* of closed-loop operations."""
    res = RunResult()
    rec = Recorder() if trace else None
    deltas: dict[str, list[dict]] = {"setup": [], "op": []}
    wl.generate()
    setup_s = []
    for rep in range(setup_reps):
        gc.collect()
        with _phase(rec, deltas, "setup", rep=rep):
            t0 = perf_counter()
            wl.setup()
            setup_s.append(perf_counter() - t0)
    wl.prepare()

    # seconds of each successful operation, by operation index; traced
    # runs trace the odd ones
    plain: dict[int, float] = {}
    traced: dict[int, float] = {}
    failed: list[float] = []
    deadline = perf_counter() + seconds
    i = 0
    while i < (3 if trace else 1) or perf_counter() < deadline:
        inp = wl.next_input(i)
        is_traced = trace and i % 2 == 1
        gc.collect()
        err = out = None
        with _phase(rec if is_traced else None, deltas, "op", op_id=i):
            t0 = perf_counter()
            try:
                out = wl.operate(inp)
            except Exception as exc:  # a failed operation, not a crash
                err = exc
            dt = perf_counter() - t0
        if err is None:
            try:
                wl.check(inp, out)
            except Exception as exc:  # a malformed output fails its check
                err = exc
        res.attempted += 1
        if err is not None:
            res.failed += 1
            res.failures.append(f"op {i}: {type(err).__name__}: {err}")
            failed.append(dt)
        else:
            (traced if is_traced else plain)[i] = dt
        i += 1

    if not trace:
        # with no successful operation, the failed ones still took time
        lat = list(plain.values()) or failed
        value, pct = tail(lat)
        res.metrics = {
            "setup_s": statistics.median(setup_s),
            "op_ms_p90": 1e3 * percentile(lat, 90),
            "ok_frac": (res.attempted - res.failed) / res.attempted,
            "peak_rss_mb": peak_rss_mb(),
        }
        res.notes += [
            f"op_ms_p50 {1e3 * statistics.median(lat):.6g} ms, "
            f"op_ms_min {1e3 * min(lat):.6g} ms, of {len(plain)} "
            "successful operations",
            f"op_ms_tail {1e3 * value:.6g} ms, p{pct:.1f} (the highest "
            f"percentile with {TAIL_BEYOND} samples beyond it)",
            "setup_s samples: " + ", ".join(f"{s:.3f}" for s in setup_s),
        ]
        for key, vals in getattr(wl, "split_s", {}).items():
            res.notes.append(
                f"{key} p90 {percentile(vals, 90):.4f} s, median "
                f"{statistics.median(vals):.4f} s, min {min(vals):.4f} s"
            )
        return res

    from layers import baselines, per_layer

    extra = {}
    with _phase(rec, deltas, "probe"):
        extra.update(wl.probes())
    with _phase(rec, deltas, "baseline"):
        extra.update(baselines(wl))
    extra.update(wl.guards())
    # operation 0 may fill lazy caches: it is left out of the overhead
    warm_plain = [dt for k, dt in plain.items() if k > 0]
    metrics, other = per_layer(
        rec, deltas, warm_plain, list(traced.values()), res.attempted, res.failed, extra
    )
    res.metrics = {m.name: metrics[m.name] for m in PER_LAYER}
    if other:
        res.notes.append(f"warning: {other:.6f} s of spans map to no layer")
    if metrics["trace.conservation_err_ms"] > 1e-6:
        res.notes.append("warning: layer self times do not sum to the operations")
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{wl.name}-seed{wl.seed}"
        export_jsonl(rec, out_dir / f"{stem}.spans.jsonl")
        export_perfetto(rec, out_dir / f"{stem}.perfetto.json")
        res.notes.append(
            f"spans written to {out_dir / stem}.spans.jsonl and .perfetto.json"
        )
    return res


def report_lines(res: RunResult) -> list[str]:
    """Every metric by name with its unit, then the notes and failures."""
    units = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}
    lines = [f"{k:34s} {v:14.6g} {units[k]}" for k, v in res.metrics.items()]
    lines += [f"# {n}" for n in res.notes]
    lines += [f"# FAILED {f}" for f in res.failures]
    return lines
