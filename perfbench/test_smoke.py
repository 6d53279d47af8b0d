"""Smoke test of the benchmark at a tiny input size (about half a minute).

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs untraced and traced. The test checks that every metric
BENCHMARK.json names is emitted with its unit, that the outputs pass their
checks, and that the tracer's call counts equal the counts the
configuration implies.
"""

import json
import math
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_harness():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace, capsys):
    result = run.benchmark(workload, seed=3, seconds=1, trace=bool(trace),
                           sizes=run.TINY)
    printed = capsys.readouterr().out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, printed
    assert result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert f"{workload} call accounting: ok" in printed, printed
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    else:
        assert all(result["metrics"][m]["value"] > 0 for m in wanted)
