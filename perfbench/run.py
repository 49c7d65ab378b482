"""Wall-clock benchmark of the sparse-fusion pipeline, end to end and
per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
Workloads (see :mod:`workloads`): ``solve``, ``exec-natural``,
``refit``, ``diagnose``. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics and writes the spans under
``.perfbench_out/`` (see :mod:`metrics` for both lists). Every metric
is printed by name with its unit; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Load model: one caller in one process, each operation issued when the
previous one has returned and been checked (a closed loop). BLAS is
pinned to one thread; ``n_threads=8`` everywhere is schedule width
(w-partitions), not OS threads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# before numpy loads: one BLAS thread
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("solve", "exec-natural", "refit", "diagnose")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import report_lines, run
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    res = run(
        wl,
        seconds=args.seconds,
        trace=bool(args.trace),
        out_dir=ROOT / ".perfbench_out",
    )
    print(f"# workload {wl.name} seed {wl.seed}: {wl.why}")
    for line in report_lines(res):
        print(line)
    print(json.dumps(res.payload()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
