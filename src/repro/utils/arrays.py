"""Shared vectorized array helpers."""

from __future__ import annotations

import numpy as np

from ..sparse.base import INDEX_DTYPE

__all__ = [
    "multi_range",
    "segment_sums",
    "segment_boundaries",
    "segment_sums_at",
    "stack_distances",
    "require_finite",
    "require_length",
]


def require_finite(**arrays: np.ndarray | None) -> None:
    """Raise ``ValueError`` naming the first input holding a NaN or inf
    (``None`` inputs are skipped).

    The solvers check their outside inputs with it: a single non-finite
    value otherwise spreads through every iteration and surfaces only as
    a non-converged, non-finite result.
    """
    for name, arr in arrays.items():
        if arr is not None and not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains NaN or inf")


def require_length(n: int, **arrays: np.ndarray | None) -> None:
    """Raise ``ValueError`` naming the first input that is not a vector
    of length *n* (``None`` inputs are skipped).

    The solvers check their right-hand side and initial guess against
    the matrix order with it, before factorization or inspection.
    """
    for name, arr in arrays.items():
        if arr is not None and np.shape(arr) != (n,):
            raise ValueError(
                f"{name} has shape {np.shape(arr)}, expected ({n},)"
            )


def multi_range(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``range(starts[i], starts[i] + counts[i])``, vectorized.

    The gather-index builder behind batched kernel execution and the
    inspector's dataflow joins.
    """
    counts = np.asarray(counts)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    reps = np.repeat(np.arange(starts.shape[0], dtype=INDEX_DTYPE), counts)
    offs = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.asarray(starts, dtype=INDEX_DTYPE)[reps] + offs


def segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum *values* in consecutive segments of the given lengths.

    Zero-length segments yield 0.0 (``np.add.reduceat`` alone would
    repeat the neighbouring segment's value there).
    """
    n = counts.shape[0]
    out = np.zeros(n, dtype=values.dtype)
    if values.shape[0] == 0 or n == 0:
        return out
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    nonempty = counts > 0
    # Reduce only at the starts of non-empty segments: consecutive
    # non-empty starts bracket exactly one segment's elements (empty
    # segments in between contribute nothing). Clipping out-of-range
    # starts instead would split the final non-empty segment.
    out[nonempty] = np.add.reduceat(values, starts[nonempty])
    return out


def segment_boundaries(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Precompute the :func:`segment_sums` reduction plan for *counts*.

    Returns ``(reduce_starts, nonempty)`` for :func:`segment_sums_at` —
    plan compilation calls this once per level so that repeated sweeps
    pay only the ``np.add.reduceat`` itself.
    """
    counts = np.asarray(counts)
    nonempty = counts > 0
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return starts[nonempty].astype(INDEX_DTYPE, copy=False), nonempty


def segment_sums_at(
    values: np.ndarray,
    n_segments: int,
    reduce_starts: np.ndarray,
    nonempty: np.ndarray,
) -> np.ndarray:
    """:func:`segment_sums` with boundaries from :func:`segment_boundaries`."""
    out = np.zeros(n_segments, dtype=values.dtype)
    if reduce_starts.shape[0]:
        out[nonempty] = np.add.reduceat(values, reduce_starts)
    return out


def stack_distances(lines: np.ndarray) -> np.ndarray:
    """LRU stack distance of every access in *lines* (``-1`` on first touch).

    The distance of access ``t`` is the number of distinct lines touched
    strictly between it and the previous access ``p`` to the same line.
    A fully associative LRU cache of ``C`` lines hits exactly when
    ``0 <= d < C`` (Mattson's stack property), so one call prices every
    capacity at once. Independent streams can share a call when they are
    concatenated with disjoint line ids.

    With ``next(j)`` the next access to the line of ``j`` (``n`` if
    none), the lines of ``(p, t)`` whose last touch there is before ``t``
    are exactly the ``j`` with ``next(j) < t``, so::

        d(t) = (t - p - 1) - (#{j : next(j) < t} - #{j <= p : next(j) < t})

    The first count is the number of reuses before ``t``. The second is
    a 2-D dominance count, answered for every ``t`` at once by a
    merge-sort tree over ``j``: the prefix ``[0, p]`` splits into one
    aligned block per set bit of ``p + 1``, and each level keeps its
    blocks' ``next`` values sorted, so a block's count is one
    ``searchsorted``. Going up a level merges sorted runs (one stable
    sort); queries are sorted once by ``p``, so each level searches the
    blocks in order. O(n log^2 n) time, O(n) extra memory.
    """
    lines = np.asarray(lines)
    n = lines.shape[0]
    out = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return out
    order = np.argsort(lines, kind="stable")
    same = lines[order[1:]] == lines[order[:-1]]
    prev = order[:-1][same].astype(np.int64)
    t = order[1:][same].astype(np.int64)
    nxt = np.full(n, n, dtype=np.int64)
    nxt[prev] = t
    reused = np.zeros(n + 1, dtype=np.int64)
    reused[t + 1] = 1
    closed = np.cumsum(reused)[t]  # #{j : next(j) < t} = reuses before t
    # Keys order entries by (block of the level, next value): index j
    # sits in block j >> l at level l; a query's block is (q >> l) - 1.
    bits = n.bit_length()
    low = (1 << bits) - 1
    keys = (np.arange(n, dtype=np.int64) << bits) | nxt
    qorder = np.argsort(prev)
    q, qt = prev[qorder] + 1, t[qorder]  # query: j < q and next(j) < qt
    found = np.zeros_like(t)  # #{j <= p : next(j) < t}, in query order
    level = 0
    while True:
        sel = ((q >> level) & 1).astype(bool)
        block = (q[sel] >> level) - 1
        found[sel] += np.searchsorted(
            keys, (block << bits) | qt[sel]
        ) - (block << level)
        level += 1
        if (1 << level) > n:
            break
        keys = ((keys >> (bits + 1)) << bits) | (keys & low)
        keys.sort(kind="stable")
    before_p = np.empty_like(found)
    before_p[qorder] = found
    out[t] = (t - prev - 1) - (closed - before_p)
    return out
