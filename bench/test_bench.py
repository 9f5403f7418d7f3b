"""Smoke tests of the benchmark itself: every workload at tiny size.

Run from the root of the checkout:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import config
import run
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Layers each workload's own path must reach in a traced run.
ON_PATH = {
    "boston-cli": {"cli", "dataset", "families", "sdr", "fit", "lackfit"},
    "sim-desk": {"simulate", "dataset", "families", "sdr", "fit", "lackfit"},
    "sim-desk-w": {"simulate", "dataset", "families", "sdr", "fit", "lackfit"},
    "large-n": {"dataset", "families", "sdr", "fit", "lackfit"},
}


def bench(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def last_line(out: subprocess.CompletedProcess) -> dict:
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_every_workload_is_configured_and_listed():
    assert [w["name"] for w in SPEC["workloads"]] == list(config.WORKLOADS)
    assert set(ON_PATH) == set(config.WORKLOADS) == set(config.SMOKE)
    # together the workloads reach every traced layer
    assert set().union(*ON_PATH.values()) == set(tracing.LAYER_SPANS)


@pytest.mark.parametrize("workload", list(config.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    out = bench(workload, trace=0)
    metrics = last_line(out)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0
    assert "fail_ratio" in out.stdout


@pytest.mark.parametrize("workload", list(config.WORKLOADS))
def test_traced_run_covers_every_layer(workload):
    out = bench(workload, trace=1)
    metrics = last_line(out)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]

    record = json.loads((HERE / "out" / f"result-{workload}-s3-t1.json").read_text())
    spans = json.loads((ROOT / record["trace_file"]).read_text())

    names = {s["name"] for s in spans if s["run"].startswith("op:")}
    assert {layer for layer, own in tracing.LAYER_SPANS.items() if names & set(own)} \
        >= ON_PATH[workload]
    assert set(record["detail"]["off_path"]).isdisjoint(
        {"lackfit.mc_pvalue.ms", "fit.nls_fit.ms", "families.get_family.ms"})
    for name in record["detail"]["off_path"]:
        assert metrics[name]["value"] == 0
    for s in spans:
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
            assert parent["run"] == s["run"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("boston-cli", trace=0, root=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_refuses_more_threads_than_cpus():
    with pytest.raises(ValueError, match="exceeds nproc"):
        config.check_threads(workers=2, blas_threads=2, cpus=2)
    config.check_threads(workers=2, blas_threads=1, cpus=2)


def test_tail_is_a_fixed_interpolated_percentile():
    samples = [float(v) for v in range(87, 0, -1)]
    assert run.tail(samples, 88.0) == pytest.approx(76.68)  # ten samples beyond it
    assert run.tail(samples[:40], 88.0) == pytest.approx(82.32)  # same percentile
    assert run.tail([4.0, 1.0, 3.0, 2.0], 75.0) == pytest.approx(3.25)
    assert run.tail([3.0, 1.0, 2.0], 100.0) == 3.0
    assert run.tail([2.0], 88.0) == 2.0


def test_pass_time_sums_the_median_of_each_input():
    child = {"times": [0.1, 0.3, 0.2, 0.5, 0.1, 0.4], "inputs": list("ababab"),
             "tests_per_op": 10, "peak_rss_mb": 1.0, "peak_rss_note": ""}
    values, _ = run.end_to_end(child, [1.0, 3.0, 2.0], 75.0)
    assert values["test_ms_p50"] == pytest.approx(100.0 + 400.0)
    # slowdowns 1, 2, 1 (a) and 0.75, 1.25, 1 (b): p75 of the six is 1.1875
    assert values["test_ms_tail"] == pytest.approx(500.0 * 1.1875)
    values, _ = run.end_to_end(child, [1.0, 3.0, 2.0], 100.0)
    assert values["test_ms_tail"] == pytest.approx(500.0 * 2.0)
    assert values["reps_per_s"] == pytest.approx(60 / 1.6)
    assert values["setup_s"] == 2.0


def test_steal_share_of_cpu_ticks():
    assert run.steal_pct([0] * 8, [70, 0, 10, 0, 0, 0, 0, 20]) == 20.0
    assert run.steal_pct(None, [1] * 8) is None
    assert run.steal_pct([1] * 8, [1] * 8) is None


def test_self_time_subtracts_direct_children_only():
    spans = [tracing.Span("a", 0.0, 10.0), tracing.Span("b", 1.0, 5.0, parent=0),
             tracing.Span("c", 2.0, 3.0, parent=1)]
    assert tracing.self_seconds(spans) == [6.0, 3.0, 1.0]
