"""One content fingerprint for everything derived from a sparsity pattern.

The paper's reuse contract is that "the fused schedule can be reused as
long as the sparsity patterns of A and L do not change". The fused
schedule, the compiled plan (:func:`repro.runtime.plan.plan_for`) and a
saved ``.npz`` schedule are pure functions of the kernels' patterns plus
a few parameters, never of values, so :func:`fingerprint` — a hash of
exactly that content, computed before any inspection — is the one key
for all of them. A :class:`ScheduleCache` hit therefore lets
:func:`repro.fusion.fuse` skip the whole inspector. Two tiers:

* an in-memory LRU, for repeated ``fuse`` calls in one process — e.g. a
  refit loop that rebuilds its kernels on new values of one pattern;
* an optional on-disk store (``directory=``) reusing
  :mod:`repro.schedule.serialize`, so the inspection cost is paid once
  *across* processes. The key doubles as the stored fingerprint, so a
  stale or corrupted file fails closed (treated as a miss) instead of
  yielding a schedule for the wrong pattern.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from pathlib import Path

import numpy as np

from ..sparse.base import INDEX_DTYPE
from .schedule import FusedSchedule
from .serialize import (
    ScheduleFormatError,
    flatten_schedule,
    load_schedule,
    save_schedule,
)

__all__ = [
    "ScheduleCache",
    "fingerprint",
    "get_default_cache",
    "set_default_cache",
    "KEY_SCHEMA",
]

#: Version of the key derivation itself. Bump whenever the *semantics*
#: behind a key change, so every on-disk entry written under the old
#: scheme fails closed to a miss. (Schema 3: keys hash the kernels'
#: patterns before inspection, not the DAGs and ``F`` built from them.)
KEY_SCHEMA = 3


def fingerprint(kernels, schedule: FusedSchedule | None = None, params=None) -> str:
    """SHA-256 over content only: per kernel its class, read/write
    variable names and sizes and its sparse operand's
    (:attr:`~repro.kernels.base.Kernel.operand`) shape, ``indptr`` and
    ``indices`` (memoized on the kernel); *schedule*'s loop counts,
    packing, s/w offsets and vertices; *params* as JSON (non-JSON leaves
    by ``repr``); and :data:`KEY_SCHEMA`. Values and object identities
    never enter it.
    """
    spec = {
        "schema": KEY_SCHEMA,
        "kernels": [_kernel_digest(k) for k in kernels],
        "params": params or {},
    }
    if schedule is None:
        return _digest(spec)
    spec["schedule"] = [list(schedule.loop_counts), schedule.packing]
    return _digest(spec, *flatten_schedule(schedule))


def _kernel_digest(kernel) -> str:
    digest = kernel.__dict__.get("_fingerprint")
    if digest is None:
        op, cls = kernel.operand, type(kernel)
        spec = {
            "class": f"{cls.__module__}.{cls.__qualname__}",
            "vars": [kernel.read_vars, kernel.write_vars],
            "sizes": sorted(kernel.var_sizes().items()),
            "operand": [type(op).__name__, op.n_rows, op.n_cols],
        }
        digest = _digest(spec, op.indptr, op.indices)
        kernel.__dict__["_fingerprint"] = digest
    return digest


def _digest(spec, *arrays) -> str:
    h = hashlib.sha256(json.dumps(spec, sort_keys=True, default=repr).encode())
    for arr in arrays:
        arr = np.ascontiguousarray(arr, dtype=INDEX_DTYPE)
        h.update(arr.shape[0].to_bytes(8, "little"))
        h.update(arr.tobytes())
    return h.hexdigest()


class ScheduleCache:
    """LRU schedule memo with an optional on-disk tier.

    ``get``/``put`` always copy (:meth:`FusedSchedule.copy`): callers
    may mutate a schedule (its ``meta`` tags, its vertex arrays), and a
    cached entry must stay pristine.
    """

    def __init__(self, maxsize: int = 64, directory=None):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.directory = Path(directory) if directory else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._mem: OrderedDict[str, FusedSchedule] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"sched-{key}.npz"

    def get(self, key: str) -> FusedSchedule | None:
        """Cached schedule for *key*, or ``None`` (counted as a miss)."""
        sched = self._mem.get(key)
        if sched is not None:
            self._mem.move_to_end(key)
            self.hits += 1
            return sched.copy()
        if self.directory is not None:
            try:
                sched = load_schedule(self._path(key), expect_fingerprint=key)
            except (FileNotFoundError, OSError, ScheduleFormatError):
                sched = None
            if sched is not None:
                self._remember(key, sched)
                self.hits += 1
                self.disk_hits += 1
                return sched.copy()
        self.misses += 1
        return None

    def put(self, key: str, schedule: FusedSchedule) -> None:
        """Memoize *schedule* under *key* (and persist when on disk)."""
        self._remember(key, schedule.copy())
        if self.directory is not None:
            save_schedule(self._path(key), schedule, fingerprint=key)

    def _remember(self, key: str, schedule: FusedSchedule) -> None:
        self._mem[key] = schedule
        self._mem.move_to_end(key)
        while len(self._mem) > self.maxsize:
            self._mem.popitem(last=False)

    def clear(self) -> None:
        """Drop the in-memory tier (on-disk files are left in place)."""
        self._mem.clear()

    def __len__(self) -> int:
        return len(self._mem)

    @property
    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "entries": len(self._mem),
        }


_default_cache: ScheduleCache | None = None


def set_default_cache(cache: ScheduleCache | None) -> ScheduleCache | None:
    """Install the process-wide cache :func:`repro.fusion.fuse` consults
    when no explicit ``cache=`` is passed; returns the previous one."""
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


def get_default_cache() -> ScheduleCache | None:
    return _default_cache
