"""Cache-model unit tests: LRU stack distances and the L1 -> LLC levels.

The simulated caches are fully associative LRU, so an access hits a
``C``-line cache exactly when its stack distance is below ``C``. These
tests pin that identity on small hand-made streams, then the two-level
model built on it (:func:`repro.runtime.machine._cache_levels`) and the
simulator's address rule.
"""

import numpy as np
import pytest

from repro import fuse
from repro.fusion import build_combination
from repro.obs.memtrace import ELEMS_PER_LINE, collect_access_stream
from repro.runtime import CacheConfig, MachineConfig, SimulatedMachine
from repro.runtime.machine import _cache_levels, _line_ids
from repro.utils.arrays import stack_distances


def hits(stream, capacity):
    d = stack_distances(np.asarray(stream, dtype=np.int64))
    return ((d >= 0) & (d < capacity)).tolist()


class TestLRU:
    def test_hit_after_insert(self):
        assert stack_distances(np.array([1, 1])).tolist() == [-1, 0]
        assert hits([1, 1], 4) == [False, True]

    def test_eviction_order(self):
        # 3 evicts 1 from a 2-line cache; 1 then misses and evicts 2
        assert hits([1, 2, 3, 1, 2], 2) == [False] * 5

    def test_touch_refreshes_recency(self):
        # re-touching 1 makes it MRU, so 3 evicts 2, not 1
        assert hits([1, 2, 1, 3, 1, 2], 2) == [
            False, False, True, False, True, False
        ]

    def test_clear(self):
        # streams concatenated with disjoint line ids start cold, as a
        # cleared cache would: the second copy of line 1 is a new line
        offset = 100
        assert stack_distances(np.array([1, 1, offset + 1])).tolist() == [
            -1, 0, -1
        ]


class TestAddressSpace:
    def test_disjoint_bases(self, lap2d_nd):
        kernels, _ = build_combination(3, lap2d_nd, seed=3)
        fl = fuse(kernels, 4)
        stream = collect_access_stream(fl.schedule, kernels)
        lines, n_lines = _line_ids(kernels, stream)
        assert lines.max() < n_lines
        owners = {}
        for var, line in zip(stream.var.tolist(), lines.tolist()):
            assert owners.setdefault(line, var) == var  # no shared line
        # consecutive elements of one variable share a line
        first = stream.var == stream.var[0]
        elem = stream.elem[first]
        line = lines[first]
        same = elem // ELEMS_PER_LINE == elem[0] // ELEMS_PER_LINE
        assert np.all(line[same] == line[0])


class TestThreadCache:
    def config(self, **kw):
        base = dict(l1_lines=2, llc_lines=8, lat_l1=1.0, lat_llc=10.0, lat_mem=100.0)
        base.update(kw)
        return CacheConfig(**base)

    @staticmethod
    def cost(elements, cfg):
        """Cycles of one thread's element stream through the model."""
        lines = np.asarray(elements, dtype=np.int64) // ELEMS_PER_LINE
        lat = np.array([cfg.lat_l1, cfg.lat_llc, cfg.lat_mem])
        return lat[_cache_levels(lines, cfg)]

    def test_cold_miss_costs_memory_latency(self):
        assert self.cost([0], self.config()).tolist() == [100.0]

    def test_same_line_hits(self):
        cost = self.cost([0, 1, 2, 3], self.config())  # same 8-wide line
        assert cost[1:].sum() == 3.0

    def test_unit_stride_is_cheap(self):
        """Streaming 64 elements touches 8 lines: 8 misses + 56 L1 hits."""
        assert self.cost(np.arange(64), self.config()).sum() == 8 * 100.0 + 56 * 1.0

    def test_random_stride_is_expensive(self):
        cost = self.cost(np.arange(0, 64 * 8, 8), self.config())  # one per line
        assert cost.sum() == 64 * 100.0

    def test_llc_backstop(self):
        cfg = self.config(l1_lines=1, llc_lines=64)
        # line 0 -> L1+LLC; line 1 evicts line 0 from L1; line 0 hits the LLC
        assert self.cost([0, 8, 0], cfg).tolist() == [100.0, 100.0, 10.0]

    def test_stats_accounting(self, lap2d_nd):
        kernels, _ = build_combination(1, lap2d_nd, seed=1)
        fl = fuse(kernels, 4)
        cache = self.config(l1_lines=16, llc_lines=64)
        report = SimulatedMachine(MachineConfig(n_threads=4, cache=cache)).simulate(
            fl.schedule, kernels, fidelity="cache"
        )
        st = report.cache_stats
        stream = collect_access_stream(fl.schedule, kernels)
        assert st["accesses"] == stream.n_accesses
        assert st["l1_hits"] + st["llc_hits"] + st["misses"] == st["accesses"]
        assert st["cycles"] == (
            st["l1_hits"] * 1.0 + st["llc_hits"] * 10.0 + st["misses"] * 100.0
        )
        assert report.memory_hit_cycles.sum() + report.memory_miss_cycles.sum() == (
            st["cycles"]
        )
        assert report.memory_miss_cycles.sum() == st["misses"] * 100.0
        assert report.avg_memory_latency == pytest.approx(
            st["cycles"] / st["accesses"]
        )

    def test_temporal_reuse_rewarded(self):
        """Re-reading recently touched data is cheaper than new data —
        the effect interleaved packing exploits."""
        cost = self.cost(np.tile(np.arange(32), 2), self.config(l1_lines=64))
        assert cost[32:].sum() < cost[:32].sum()
