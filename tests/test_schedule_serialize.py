"""Schedule persistence tests (save/load + content fingerprints)."""

import numpy as np
import pytest

from repro import fuse
from repro.fusion import build_combination
from repro.schedule import (
    ScheduleFormatError,
    fingerprint,
    load_schedule,
    save_schedule,
    validate_schedule,
)


@pytest.fixture
def fused(lap2d_nd):
    kernels, _ = build_combination(1, lap2d_nd)
    return fuse(kernels, 6), kernels


def schedules_equal(a, b) -> bool:
    if a.loop_counts != b.loop_counts or a.n_spartitions != b.n_spartitions:
        return False
    for wa, wb in zip(a.s_partitions, b.s_partitions):
        if len(wa) != len(wb):
            return False
        for va, vb in zip(wa, wb):
            if not np.array_equal(va, vb):
                return False
    return True


def test_roundtrip(tmp_path, fused):
    fl, kernels = fused
    p = tmp_path / "sched.npz"
    save_schedule(p, fl.schedule)
    back = load_schedule(p)
    assert schedules_equal(fl.schedule, back)
    assert back.packing == fl.schedule.packing
    validate_schedule(back, fl.dags, fl.inter)


def test_meta_preserved(tmp_path, fused):
    fl, _ = fused
    p = tmp_path / "sched.npz"
    save_schedule(p, fl.schedule)
    back = load_schedule(p)
    assert back.meta["scheduler"] == "ico"


def test_fingerprint_accept_and_reject(tmp_path, lap2d_nd, band_small):
    kernels, _ = build_combination(1, lap2d_nd)
    fl = fuse(kernels, 4)
    fp = fl.meta["fingerprint"]
    p = tmp_path / "sched.npz"
    save_schedule(p, fl.schedule, fingerprint=fp)
    # same pattern -> accepted
    back = load_schedule(p, expect_fingerprint=fp)
    assert schedules_equal(fl.schedule, back)
    # different pattern -> rejected
    other = fuse(build_combination(1, band_small)[0], 4).meta["fingerprint"]
    with pytest.raises(ScheduleFormatError, match="pattern changed"):
        load_schedule(p, expect_fingerprint=other)


def test_fingerprint_ignores_values(lap2d_nd):
    a = lap2d_nd
    b = a.copy()
    b.data[:] *= 2.0
    ka, _ = build_combination(1, a)
    kb, _ = build_combination(1, b, seed=5)
    assert fingerprint(ka) == fingerprint(kb)


def test_fingerprint_sensitive_to_structure(lap2d_nd, band_small):
    ka, _ = build_combination(1, lap2d_nd)
    kb, _ = build_combination(1, band_small)
    assert fingerprint(ka) != fingerprint(kb)


def test_fingerprint_stable_across_rebuilt_kernels(lap2d_nd):
    """Equal patterns hash equal whatever object holds them: kernels
    built twice from separate copies of one matrix share a key."""
    k1, _ = build_combination(3, lap2d_nd)
    k2, _ = build_combination(3, lap2d_nd.copy())
    assert k1[0].operand is not k2[0].operand
    assert fingerprint(k1) == fingerprint(k2)


def test_empty_schedule_roundtrip(tmp_path):
    from repro.schedule import FusedSchedule

    empty = FusedSchedule((0,), [])
    p = tmp_path / "empty.npz"
    save_schedule(p, empty)
    back = load_schedule(p)
    assert back.loop_counts == (0,)
    assert back.n_spartitions == 0


def test_corrupt_file_rejected(tmp_path):
    p = tmp_path / "bad.npz"
    np.savez(p, nonsense=np.arange(3))
    with pytest.raises((ScheduleFormatError, KeyError)):
        load_schedule(p)


@pytest.mark.parametrize("corruption", ["garbage", "truncated", "empty"])
def test_unreadable_file_raises_format_error(tmp_path, fused, corruption):
    """Garbage bytes, a truncated archive and an empty file all raise
    ScheduleFormatError — the error the schedule cache treats as a miss."""
    fl, _ = fused
    p = save_schedule(tmp_path / "sched.npz", fl.schedule)
    raw = p.read_bytes()
    p.write_bytes(
        {"garbage": b"\x93not a schedule" * 40, "truncated": raw[:200], "empty": b""}[
            corruption
        ]
    )
    with pytest.raises(ScheduleFormatError, match="unreadable"):
        load_schedule(p)


def test_execution_after_reload(tmp_path, fused, lap2d_nd):
    """A reloaded schedule must drive the executor identically."""
    fl, kernels = fused
    p = tmp_path / "sched.npz"
    save_schedule(p, fl.schedule)
    back = load_schedule(p)
    kernels2, state = build_combination(1, lap2d_nd, seed=9)
    st1 = {k: v.copy() for k, v in state.items()}
    st2 = {k: v.copy() for k, v in state.items()}
    from repro.runtime import execute_schedule

    execute_schedule(fl.schedule, kernels2, st1)
    execute_schedule(back, kernels2, st2)
    for var in st1:
        assert np.array_equal(st1[var], st2[var]), var
