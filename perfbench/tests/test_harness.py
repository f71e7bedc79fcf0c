"""Self-tests of the benchmark harness.

Run from the checkout root:  python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import TOY_WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_add_up_to_parent_span():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 8.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    root = tracer.open("root")   # t=0
    outer = tracer.open("a")     # t=1
    inner = tracer.open("b")     # t=2
    tracer.close(inner)          # t=4: b lasts 2
    tracer.close(outer)          # t=5: a lasts 4, 2 of them in b
    again = tracer.open("a")     # t=8
    tracer.close(again)          # t=9: a lasts 1
    tracer.close(root)           # t=10: root lasts 10, 5 of them in children
    self_times = tracer.self_times()
    assert self_times == {"root": 5.0, "a": 3.0, "b": 2.0}
    assert sum(self_times.values()) == 10.0
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]


@pytest.mark.parametrize("name", sorted(TOY_WORKLOADS))
def test_toy_workload_passes_and_counts_repeat(name, tmp_path):
    workload = TOY_WORKLOADS[name]
    plain = run.run_jobs(workload, seed=1, seconds=0, workdir=tmp_path, min_jobs=2,
                         reference_reps=1)
    first = run.run_jobs(workload, seed=2, seconds=0, workdir=tmp_path,
                         tracer=Tracer(), min_jobs=3)
    second = run.run_jobs(workload, seed=3, seconds=0, workdir=tmp_path,
                          tracer=Tracer(), min_jobs=3)
    assert all(not j.failures for j in plain + first + second)
    assert all(j.ref_seconds > 0 for j in plain)

    layers = run.per_layer(first)
    assert [n for n in layers] == [m["name"] for m in DECLARED["per_layer"]]
    assert all(NAME.match(n) for n in layers)
    counts = [run.per_layer(jobs) for jobs in (first, second)]
    for metric, (_, _, unit) in run.COUNT_METRICS.items():
        if unit in ("count", "bytes"):
            assert counts[0][metric] == counts[1][metric], metric


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_declared_metrics(trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "verify_fast",
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert all(NAME.match(n) for n in result["metrics"])
    reported = [line.split()[1] for line in out.stdout.splitlines() if line.startswith("metric ")]
    assert set(result["metrics"]) <= set(reported)
    assert all(NAME.match(n) for n in reported)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ct_512", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
