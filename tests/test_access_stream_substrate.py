"""One access stream drives both the cache simulator and the locality profiler.

``data/access_stream_oracle.json`` holds numbers computed by the
previous per-iteration replays (an ``OrderedDict`` LRU per thread for
the simulator, a Fenwick-tree stack distance per w-partition for the
profiler). The stack-distance substrate must reproduce every one
exactly: cache stats, the per-(s-partition, thread) memory tables and
the profiler's headline numbers and histograms, on combos 1 and 3 of
lap2d 0², 1², 2² and 12² under ND and natural ordering.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import fuse
from repro.analytics import profile_locality
from repro.fusion import build_combination
from repro.obs.memtrace import LINE_BYTES, READ, UPDATE, collect_access_stream
from repro.runtime import CacheConfig, MachineConfig, SimulatedMachine
from repro.sparse import apply_ordering, laplacian_2d
from repro.utils.arrays import stack_distances

ORACLE = json.loads(
    (Path(__file__).parent / "data" / "access_stream_oracle.json").read_text()
)["cases"]

MACHINES = {
    "default8": MachineConfig(n_threads=8),
    # wraps the 8 w-partitions onto 3 threads and overflows the LLC
    "tiny3": MachineConfig(n_threads=3, cache=CacheConfig(l1_lines=16, llc_lines=64)),
}


def case_id(case):
    return f"lap2d{case['n']}-{case['ordering']}-combo{case['combo']}"


def fused(case):
    a = laplacian_2d(case["n"])
    if case["ordering"] == "nd":
        a, _ = apply_ordering(a, "nd")
    kernels, _ = build_combination(case["combo"], a, seed=case["combo"])
    return fuse(kernels, 8), kernels


@pytest.mark.parametrize("case", ORACLE, ids=case_id)
def test_cache_model_matches_oracle(case):
    fl, kernels = fused(case)
    for name, config in MACHINES.items():
        report = SimulatedMachine(config).simulate(
            fl.schedule, kernels, fidelity="cache"
        )
        want = case["machine"][name]
        assert report.cache_stats == want["cache_stats"], name
        assert report.memory_hit_cycles.tolist() == want["memory_hit_cycles"], name
        assert report.memory_miss_cycles.tolist() == want["memory_miss_cycles"], name
        report.assert_conserved()


@pytest.mark.parametrize("case", ORACLE, ids=case_id)
def test_locality_matches_oracle(case):
    fl, kernels = fused(case)
    for capacity, want in case["locality"].items():
        report = profile_locality(
            fl.schedule,
            kernels,
            capacity_lines=int(capacity),
            dags=fl.dags,
            inter=fl.inter,
            estimated_reuse=fl.reuse_ratio,
        )
        got = {key: getattr(report, key) for key in want if key != "histograms"}
        got["histograms"] = [w.histogram.tolist() for w in report.w_partitions]
        assert got == want, capacity
        assert report.line_bytes == LINE_BYTES


def test_stack_distances_degenerate_streams():
    assert stack_distances(np.empty(0, dtype=np.int64)).shape == (0,)
    assert stack_distances(np.array([7])).tolist() == [-1]
    assert stack_distances(np.array([3, 3, 3])).tolist() == [-1, 0, 0]


def test_stack_distances_count_distinct_lines_between_uses():
    #            a   b   c   b   a   c   c
    stream = [0, 1, 2, 1, 0, 2, 2]
    assert stack_distances(np.array(stream)).tolist() == [-1, -1, -1, 1, 2, 2, 0]


def test_stream_is_in_replay_order(lap2d_nd):
    """Per kernel: every read_vars read map, then every write_vars write
    map; write-map entries carry ``is_write``."""
    kernels, _ = build_combination(4, lap2d_nd, seed=4)  # IC0 -> CSC TRSV
    fl = fuse(kernels, 4)
    stream = collect_access_stream(fl.schedule, kernels)
    expected = []
    for ki, kern in enumerate(kernels):
        halves = [(v, False) for v in kern.read_vars]
        halves += [(v, True) for v in kern.write_vars]
        for var, is_write in halves:
            n = kern.access_maps(var)[int(is_write)][1].shape[0]
            if n:
                expected.append((ki, stream.var_names.index(var), is_write, n))
    runs = []
    change = np.flatnonzero(
        np.diff(stream.loop)
        | np.diff(stream.var)
        | np.diff(stream.is_write.astype(np.int64))
    )
    starts = np.concatenate([[0], change + 1])
    ends = np.concatenate([change + 1, [stream.n_accesses]])
    for a, b in zip(starts, ends):
        runs.append(
            (int(stream.loop[a]), int(stream.var[a]), bool(stream.is_write[a]), int(b - a))
        )
    assert runs == expected
    # UPDATE does not say which half it is: the CSC TRSV's accumulator
    # write is a commutative update, its read a plain read
    acc = stream.var == stream.var_names.index("_acc.y")
    kinds = set(zip(stream.kind[acc].tolist(), stream.is_write[acc].tolist()))
    assert kinds == {(READ, False), (UPDATE, True)}
