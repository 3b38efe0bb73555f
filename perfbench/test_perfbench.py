"""Self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Tiny-size runs of every workload, the metric contract of
``BENCHMARK.json``, exact repetition of per-layer counts for a seed, and
that a wrong answer shows up as an error.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench.inputs import TINY  # noqa: E402
from perfbench.tracing import PER_LAYER  # noqa: E402
from perfbench.workloads import END_TO_END, WORKLOADS, run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# counts that must repeat exactly for a fixed seed
COUNTS = (
    "matching.range_queries",
    "matching.candidates",
    "matching.final_nodes",
    "pager.reads_per_op",
    "buffer_pool.writebacks_per_write",
    "labeling.underflows_per_insert",
    "postings.invalidations_per_write",
)


def _tiny(name, trace, tmp_path, seed=3, wrap=None, tag=""):
    workdir = tmp_path / f"{name}-{int(trace)}-{seed}{tag}"
    workdir.mkdir()
    return run(name, seed, 0.3, trace, TINY, workdir, wrap)


def test_benchmark_json_matches_the_metric_tables():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    } == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert END_TO_END["setup_s"][2] == max(b for _, _, b in END_TO_END.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
def test_tiny_run_emits_every_declared_metric(name, trace, tmp_path):
    result, detail = _tiny(name, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], detail["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert detail["machine"]["cpu_count"] >= 1


def test_per_layer_counts_repeat_for_a_seed(tmp_path):
    first, _ = _tiny("dynamic", True, tmp_path, seed=5)
    second, _ = _tiny("dynamic", True, tmp_path, seed=5, tag="-again")
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("trace", [False, True], ids=["timed", "traced"])
def test_a_dropped_doc_id_counts_as_an_error(trace, tmp_path):
    dropped = []

    def drop_one(op, result):
        if not dropped and result:
            dropped.append(op)
            return result[1:]
        return result

    result, detail = _tiny("table3", trace, tmp_path, wrap=drop_one)
    assert dropped
    assert not result["correct"]
    assert result["failed"] >= 1
    assert detail["error_ratio"] > 0


def test_runs_fail_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
