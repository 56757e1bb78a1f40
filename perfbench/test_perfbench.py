"""Fast test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_lines(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, record, result = proc.stdout.strip().splitlines()
    result = json.loads(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return json.loads(record)["record"], result


def units(metrics: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    _, result = result_lines(run(workload, 0))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_self_times_sum_to_total(workload):
    record, result = result_lines(run(workload, 1))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}

    with open(ROOT / record["spans"], encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    children = defaultdict(float)
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]] += s["end"] - s["start"]
    self_sum = defaultdict(float)
    for i, s in enumerate(spans):
        self_sum[s["run"]] += s["end"] - s["start"] - children[i]

    totals = [sum(r["wall_s"].values()) for r in record["rounds"] if r["traced"]]
    assert totals and sorted(self_sum) == list(range(len(totals)))
    for run_index, total in enumerate(totals):
        assert self_sum[run_index] == pytest.approx(total, rel=0.01, abs=0.005)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_check_that_raises_counts_as_failed(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import run

    class Raising:
        def check_stage(self, stage, estimates):
            raise KeyError("transcripts")

    out = {"estimates": [0, 0, 0], "digest_mismatches": 0}
    assert "KeyError" in run.check(object(), Raising(), {}, out)


def test_reference_clock_scales_wall_time_by_sampled_speed(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import refclock

    ref = refclock.REFERENCE_CHUNK_S
    assert refclock.seconds(2.0, []) == 2.0
    # Chunks that ran twice as fast as the reference: the host was fast.
    assert refclock.seconds(2.0, [ref / 2, ref / 2]) == pytest.approx(4.0)
    assert refclock.seconds(2.0, [ref, 2 * ref]) == pytest.approx(1.5)


def test_reference_clock_samples_while_started(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import signal
    import time

    import refclock

    clock = refclock.RefClock()
    clock.start()
    try:
        end = time.perf_counter() + 10 * refclock.PERIOD_S
        while time.perf_counter() < end:
            pass
    finally:
        clock.stop()
    assert len(clock.samples) >= 3 and all(x > 0 for x in clock.samples)
    assert signal.getsignal(signal.SIGALRM) is not clock._sample
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
