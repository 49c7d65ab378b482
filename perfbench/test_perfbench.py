"""The benchmark's own tests.

    python3 -m pytest perfbench -q

The traced-run test runs every workload twice (a few minutes in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench  # pins BLAS and locates src/ before numpy is imported

sys.path.insert(0, str(bench.SRC))

from harness import percentile, run, tail  # noqa: E402
from ledger import Ledger  # noqa: E402
from metrics import END_TO_END, GUARDS, PER_LAYER  # noqa: E402
from repro.obs import Recorder  # noqa: E402
from workloads import WORKLOADS, Refit  # noqa: E402

HERE = Path(__file__).resolve().parent


def test_benchmark_json_lists_every_metric_and_workload():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOAD_NAMES)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]


def test_percentiles():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    values = [float(i) for i in range(40)]
    value, pct = tail(values)
    assert sum(v > value for v in values) == 10
    assert pct == 75.0
    assert percentile(values, 90) == 35.0
    assert percentile([5.0, 1.0, 3.0], 90) == 5.0
    assert percentile([2.0], 50) == 2.0


def test_ledger_conservation_catches_a_child_outside_its_parent():
    rec = Recorder()
    with rec.span("op"):
        with rec.span("runtime.execute"):
            pass
    L = Ledger(rec.spans)
    (op,) = L.roots("op")
    layers, residual, err = L.op_account(op)
    assert err < 1e-12 and set(layers) == {"runtime"}
    child = L.descendants(op)[0]
    child.t_end = op.t_end + 1.0  # misnested: outlives its parent
    assert L.op_account(op)[2] > 0.5


class WrongRefit(Refit):
    """Corrupts the output of operation 1 and raises in operation 2."""

    def next_input(self, i):
        self.op_index = i
        return super().next_input(i)

    def operate(self, inp):
        if self.op_index == 2:
            raise FloatingPointError("injected")
        out = super().operate(inp)
        if self.op_index == 1:
            out["y"] = out["y"] + 1.0
        return out


def test_wrong_output_and_exception_count_as_failed_operations(tmp_path):
    res = run(WrongRefit(seed=3), seconds=0, trace=True, setup_reps=1)
    assert res.attempted == 3 and res.failed == 2 and not res.correct
    assert res.metrics["fail_frac"] == pytest.approx(2 / 3)
    assert "CheckFailed" in res.failures[0] and "FloatingPointError" in res.failures[1]
    payload = res.payload()
    assert payload["correct"] is False and payload["failed"] == 2


def test_untraced_run_reports_the_end_to_end_metrics():
    res = run(WORKLOADS["diagnose"](seed=1), seconds=0, trace=False, setup_reps=2)
    assert res.correct and res.attempted == 1
    assert list(res.metrics) == [m.name for m in END_TO_END]
    assert all(v > 0 for v in res.metrics.values())
    json.dumps(res.payload(), allow_nan=False)


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_traced_runs_repeat_exactly_and_conserve_time(name, tmp_path):
    runs = [
        run(WORKLOADS[name](7), seconds=0, trace=True, setup_reps=1, out_dir=tmp_path)
        for _ in range(2)
    ]
    for res in runs:
        assert res.correct, res.failures
        assert list(res.metrics) == [m.name for m in PER_LAYER]
        assert res.metrics["trace.conservation_err_ms"] < 1e-6
        assert not any(n.startswith("warning") for n in res.notes), res.notes
        json.dumps(res.payload(), allow_nan=False)
    first, second = ({g: r.metrics[g] for g in sorted(GUARDS)} for r in runs)
    assert first == second
    assert first["graph.vertices"] > 0 and first["schedule.s_partitions"] > 0
    spans = (tmp_path / f"{name}-seed7.spans.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in spans]
    ops = [r for r in records if r["type"] == "span" and r["name"] == "op"]
    assert ops and all("op_id" in r["attrs"] for r in ops)
    assert (tmp_path / f"{name}-seed7.perfetto.json").is_file()


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diagnose", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

