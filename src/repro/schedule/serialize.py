"""Schedule persistence: save/load fused schedules with pattern guards.

The paper's inspector-executor contract is that "the fused schedule can
be reused as long as the sparsity patterns of A and L do not change" —
iterative solvers pay inspection once and reuse the schedule for the
whole solve, and across solves with the same pattern. This module makes
that reuse durable: schedules serialize to a single ``.npz`` file, and a
fingerprint recorded at save time (:func:`repro.schedule.fingerprint`,
the key the schedule cache uses) is verified at load time, so a stale
schedule is rejected instead of silently producing a wrong execution
order. An unreadable file raises :class:`ScheduleFormatError` too.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from pathlib import Path

import numpy as np

from ..sparse.base import INDEX_DTYPE
from .schedule import FusedSchedule

__all__ = [
    "save_schedule",
    "load_schedule",
    "ScheduleFormatError",
]

_FORMAT_VERSION = 1


class ScheduleFormatError(RuntimeError):
    """Raised for malformed files or fingerprint mismatches."""


def flatten_schedule(schedule: FusedSchedule) -> tuple[np.ndarray, ...]:
    """``(vertices, w_offsets, s_offsets)``: every w-partition's vertices
    in one array plus two offset tables (w-partition boundaries, and
    s-partition boundaries over w-partitions)."""
    parts = [w for wlist in schedule.s_partitions for w in wlist]
    vertices = np.concatenate(parts + [np.empty(0, INDEX_DTYPE)], dtype=INDEX_DTYPE)
    sizes = np.fromiter(map(len, parts), dtype=INDEX_DTYPE, count=len(parts))
    w_offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(INDEX_DTYPE)
    s_offsets = np.cumsum([0] + schedule.widths()).astype(INDEX_DTYPE)
    return vertices, w_offsets, s_offsets


def save_schedule(
    path, schedule: FusedSchedule, *, fingerprint: str | None = None
) -> Path:
    """Serialize *schedule* to ``path`` (``.npz``).

    The :func:`flatten_schedule` representation is stored, so loading
    is O(nnz) with no Python-loop parsing.
    """
    path = Path(path)
    vertices, w_offsets, s_offsets = flatten_schedule(schedule)
    meta = {
        "format_version": _FORMAT_VERSION,
        "packing": schedule.packing,
        "fusion": bool(schedule.fusion),
        "fingerprint": fingerprint,
        "meta": {k: v for k, v in schedule.meta.items() if _jsonable(v)},
    }
    np.savez_compressed(
        path,
        vertices=vertices,
        w_offsets=w_offsets,
        s_offsets=s_offsets,
        loop_counts=np.asarray(schedule.loop_counts, dtype=INDEX_DTYPE),
        meta_json=np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        ),
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_schedule(path, *, expect_fingerprint: str | None = None) -> FusedSchedule:
    """Load a schedule saved by :func:`save_schedule`.

    When *expect_fingerprint* is given (compute it from the current
    kernels with :func:`repro.schedule.fingerprint`), a mismatch against
    the stored fingerprint raises :class:`ScheduleFormatError` — the
    operand pattern changed and the schedule must be re-inspected. So
    does a file that is not a readable schedule archive (garbage,
    truncated, empty); a missing file raises ``FileNotFoundError``.
    """
    try:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
            vertices = data["vertices"]
            w_offsets = data["w_offsets"]
            s_offsets = data["s_offsets"]
            loop_counts = tuple(int(x) for x in data["loop_counts"])
    except KeyError as exc:
        raise ScheduleFormatError(f"missing field in {path}: {exc}") from exc
    except (ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
        raise ScheduleFormatError(f"unreadable schedule file {path}: {exc}") from exc
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ScheduleFormatError(
            f"unsupported schedule format {meta.get('format_version')!r}"
        )
    stored = meta.get("fingerprint")
    if expect_fingerprint is not None and stored != expect_fingerprint:
        raise ScheduleFormatError(
            "operand pattern changed since this schedule was saved "
            f"(stored {str(stored)[:12]}..., current "
            f"{expect_fingerprint[:12]}...); re-run the inspector"
        )
    parts = np.split(vertices, w_offsets[1:-1])
    s_partitions = [parts[a:b] for a, b in zip(s_offsets[:-1], s_offsets[1:])]
    return FusedSchedule(
        loop_counts,
        s_partitions,
        packing=meta.get("packing", "none"),
        fusion=meta.get("fusion", True),
        meta=dict(meta.get("meta", {})),
    )


def _jsonable(value) -> bool:
    try:
        json.dumps(value)
        return True
    except (TypeError, ValueError):
        return False
