"""Reduced-size smoke test of the benchmark itself: every workload, traced
and untraced, through the correctness gate and the result schema.

    PYTHONPATH=src python3 -m pytest -q bench/smoke.py

The file name keeps it out of the repository's default test collection;
it takes under a minute.
"""

import json
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layers import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload(workload, trace, tmp_path):
    result = run.run_workload(workload, 3, 0, trace, ROOT, tmp_path, scale="smoke")
    summary = result["summary"]
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    problems = [o["problems"] for o in result["operations"]] + [result["setup_problems"]]
    assert summary["correct"] and summary["failed"] == 0, problems
    assert summary["attempted"] == len(result["operations"]) + 1
    assert result["samples"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {k: v["unit"] for k, v in summary["metrics"].items()}
    for metric in summary["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    env = result["environment"]
    assert env["nproc"] >= 1 and env["python"] and env["LNME_THREADS"] in ("1", "2")
    assert all(len(d) == 64 for d in result["input_sha256"].values())
    if trace:
        assert result["operations"][1]["traced"] and result["operations"][1]["layers"] is not None


def test_gate_rejects_a_wrong_cut(tmp_path):
    run.run_workload("solve_paper", 3, 0, False, ROOT, tmp_path, scale="smoke")
    assert run.check_cut(tmp_path, 30) == []
    cut = tmp_path / "k30.cut.json"
    doc = json.loads(cut.read_text())
    doc["cut_capacity_sat"] += 1
    cut.write_text(json.dumps(doc))
    assert any("recomputed" in p for p in run.check_cut(tmp_path, 30))


def test_tracer_counts_survive_thread_switches():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x, count=("items", lambda x: x))
    outer = tracer.wrap("outer", lambda n: sum(inner(1) for _ in range(n)))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=outer, args=(5_000,)) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    report = tracer.report()
    assert report["spans"]["inner"][0] == 30_000 and report["counts"]["items"] == 30_000
    calls, total, self_s = report["spans"]["outer"]
    assert calls == 6 and 0 <= self_s <= total
