"""Small-size smoke test of the benchmark itself:

    python3 -m pytest benchmarks/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# every workload the command runs; BENCHMARK.json lists the ones a run of the
# whole benchmark measures
WORKLOADS = list(run.WORKLOADS)


def test_benchmark_json_matches_the_code():
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in BENCH["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] \
        == [m[:3] for m in PER_LAYER] + [("trace.overhead_pct", "%", "lower")]
    assert sorted(WORKLOADS) == sorted(workloads())
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run_emits_every_end_to_end_metric(workload):
    out = run.run(workload, seed=5, seconds=0, trace=False, smoke=True)["json"]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} \
        == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric_and_nested_spans(workload):
    result = run.run(workload, seed=5, seconds=0, trace=True, smoke=True)
    out = result["json"]
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} \
        == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert all(math.isfinite(v["value"]) for v in out["metrics"].values())

    tracer = result["tracer"]
    spans = tracer.spans
    total, own = tracer.durations()
    assert [s[0] for s in spans if s[3] < 0] == ["bench.pass"]
    assert not any(".unknown." in s[0] for s in spans)
    for i, (_, start, end, parent) in enumerate(spans):
        assert own[i] >= 0.0
        if parent >= 0:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
    # self times of every layer add up to no more than the pass that holds them
    assert sum(own) <= total[0] * (1 + 1e-9)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
