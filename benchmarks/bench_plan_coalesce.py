"""Plan coalescing — one step per w-partition vs one per s-partition.

:func:`repro.runtime.compile_plan` merges the w-partitions of every
s-partition of at most ``COALESCE_MAX_VERTICES`` vertices into one unit,
so each (s-partition, loop, intra-DAG level) is one dispatch. This
experiment measures that rule against its two extremes on 2-D Laplacians
(combos 1 and 4, 8 w-partitions):

* ``per-w``     — every w-partition its own unit (the constant set to -1);
* ``coalesced`` — every s-partition one unit (the constant unbounded);
* ``rule``      — the shipped constant.

Method: one schedule per row; the three plans are compiled up front (the
intra-DAG levels warmed first, so compile times compare fairly), then
executed in alternating order, ``--reps`` times each on a fresh copy of
the state. Reported per variant: best and median wall milliseconds, step
count and compile milliseconds. Results go to
``benchmarks/results/plan_coalesce.json``.

    PYTHONPATH=src python benchmarks/bench_plan_coalesce.py [--rows 128:natural,256:nd] [--reps 9]

The default rows (lap2d 128² and 256² natural; 128², 256² and 512²
under nested dissection) take a few minutes, most of it inspecting and
executing the 512² grid.

pytest-benchmark: one coalesced planned execution of combo 1 on lap2d
32² under natural ordering.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

import repro.runtime.plan as plan_mod
from repro import fuse
from repro.fusion import build_combination
from repro.runtime import compile_plan, execute_schedule_planned
from repro.sparse import apply_ordering, laplacian_2d

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from common import print_header, save_results

DEFAULT_ROWS = "128:natural,256:natural,128:nd,256:nd,512:nd"
COMBOS = (1, 4)
N_THREADS = 8


def _variants() -> dict[str, int]:
    return {
        "per-w": -1,
        "coalesced": np.iinfo(np.int64).max,
        "rule": plan_mod.COALESCE_MAX_VERTICES,
    }


def _matrix(grid: int, ordering: str):
    a = laplacian_2d(grid)
    if ordering != "natural":
        a, _ = apply_ordering(a, ordering)
    return a


def measure_row(a, combo: int, reps: int) -> dict:
    kernels, state = build_combination(combo, a, seed=combo)
    sched = fuse(kernels, N_THREADS, validate=False).schedule
    for kern in kernels:
        kern.intra_dag().levels()
    variants = _variants()
    plans, compile_ms = {}, {}
    try:
        for name, cap in variants.items():
            plan_mod.COALESCE_MAX_VERTICES = cap
            t0 = time.perf_counter()
            plans[name] = compile_plan(sched, kernels)
            compile_ms[name] = (time.perf_counter() - t0) * 1e3
    finally:
        plan_mod.COALESCE_MAX_VERTICES = variants["rule"]
    times = {name: [] for name in variants}
    for rep in range(reps):
        order = list(variants) if rep % 2 == 0 else list(variants)[::-1]
        for name in order:
            st = {k: v.copy() for k, v in state.items()}
            t0 = time.perf_counter()
            execute_schedule_planned(sched, kernels, st, plan=plans[name])
            times[name].append((time.perf_counter() - t0) * 1e3)
    sizes = [sum(w.shape[0] for w in wl) for wl in sched.s_partitions]
    return {
        "n": a.n_rows,
        "combo": combo,
        "s_partitions": len(sizes),
        "largest_s_partition": max(sizes),
        "variants": {
            name: {
                "best_ms": min(times[name]),
                "median_ms": float(np.median(times[name])),
                "steps": plans[name].n_steps,
                "compile_ms": compile_ms[name],
            }
            for name in variants
        },
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--rows", default=DEFAULT_ROWS, help="GRID:ORDERING,...")
    p.add_argument("--reps", type=int, default=9)
    args = p.parse_args(argv)
    print_header(
        "Plan coalescing: per-w vs coalesced vs rule "
        f"(COALESCE_MAX_VERTICES = {plan_mod.COALESCE_MAX_VERTICES})"
    )
    rows = []
    for spec in args.rows.split(","):
        grid, ordering = spec.split(":")
        a = _matrix(int(grid), ordering)
        for combo in COMBOS:
            row = measure_row(a, combo, args.reps)
            row["ordering"] = ordering
            rows.append(row)
            cells = "  ".join(
                f"{name} {v['best_ms']:7.2f}/{v['median_ms']:7.2f} ms "
                f"({v['steps']} steps)"
                for name, v in row["variants"].items()
            )
            print(
                f"n={row['n']:>7d} {ordering:<7s} combo {combo}  "
                f"largest s-part {row['largest_s_partition']:>7d}  {cells}",
                flush=True,
            )
    path = save_results(
        "plan_coalesce",
        {
            "coalesce_max_vertices": plan_mod.COALESCE_MAX_VERTICES,
            "n_threads": N_THREADS,
            "reps": args.reps,
            "rows": rows,
        },
    )
    print(f"results written to {path}")
    return 0


# -- pytest-benchmark unit ---------------------------------------------------
def test_coalesced_execution_small(benchmark):
    kernels, state = build_combination(1, laplacian_2d(32), seed=1)
    sched = fuse(kernels, N_THREADS, validate=False).schedule
    plan = compile_plan(sched, kernels)

    def unit():
        st = {k: v.copy() for k, v in state.items()}
        execute_schedule_planned(sched, kernels, st, plan=plan)

    benchmark(unit)


if __name__ == "__main__":
    sys.exit(main())
