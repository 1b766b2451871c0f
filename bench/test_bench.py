"""The benchmark's own tests: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def deck_record(workload, seed, workdir):
    """Inputs digest and every item's size drivers, from one run of each item."""
    _, items = run.build(workload, seed, str(workdir))
    first = {idx: item.payload(item.run()) for idx, item in enumerate(items)}
    return run.inputs_digest(items), run.size_drivers(items, first)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_repeats_inputs_and_size_drivers(workload, tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "c").mkdir()
    digest, drivers = deck_record(workload, 7, tmp_path / "a")
    assert deck_record(workload, 7, tmp_path / "b") == (digest, drivers)
    _, other = run.build(workload, 8, str(tmp_path / "c"))
    assert run.inputs_digest(other) != digest
    assert all(d["kasteleyn.dim"] > 0 for d in drivers)


def result_line(*argv, cwd=BENCH.parent):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *argv],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    return proc, json.loads(proc.stdout.splitlines()[-1])


def benchmark_json():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_declared_metric(trace):
    declared = benchmark_json()["per_layer" if trace else "end_to_end"]
    proc, result = result_line("--workload", "certify", "--seed", "0", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_harness():
    doc = benchmark_json()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "products", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_absent_target_is_reported_and_originals_restored(monkeypatch):
    dl, _ = run.import_program()
    original = dl.statistics.covariance
    monkeypatch.setattr(tracer, "SPANS", tracer.SPANS + [("x.gone", "statistics:no_such_name", None)])
    tr = tracer.Tracer()
    tr.install()
    try:
        assert dl.statistics.covariance is not original
    finally:
        tr.uninstall()
    assert tr.absent == ["statistics:no_such_name"]
    assert dl.statistics.covariance is original


def test_span_self_time_and_parents():
    tr = tracer.Tracer()
    tr.enter("query")
    tr.enter("a.x")
    tr.enter("a.x")  # nested same name: counted once in inclusive time
    tr.exit()
    tr.exit()
    tr.exit()
    root, outer, inner = tr.spans
    assert (root[4], outer[4], inner[4]) == (-1, 0, 1)
    assert tr.inclusive["a.x"] == pytest.approx(outer[3] - outer[2])
    total_self = tr.self_time["query"] + tr.self_time["a.x"]
    assert total_self == pytest.approx(root[3] - root[2])


def test_tail_percentile():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90, 10)
    assert run.tail([float(x) for x in range(1, 46)]) == (35.0, 77, 10)
    assert run.tail([1.0, 2.0]) == (2.0, 100, 0)


def test_cycle_lookups():
    assert [tracer.cycle_lookups(k) for k in range(1, 5)] == [1, 3, 11, 50]
