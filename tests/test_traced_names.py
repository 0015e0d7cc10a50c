"""The names that the benchmark's tracer (``bench/layers.py``) patches must
exist and keep their signatures: traced runs of one tiny dynamic zombie and
one tiny double-spend through ``bench/child.py`` exit 0 and time their
bumps, withdrawals and average fees. ``layers.install`` looks every name up
with ``getattr``, so a renamed or deleted one, or a call that no longer
fits it, fails these tests, not only the paper-scale traced benchmark
run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import lnme
from lnme.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]


def traced_run(tmp_path, argv):
    """The result file of one traced CLI run through ``bench/child.py``."""
    result = tmp_path / "result.json"
    src = str(Path(lnme.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"), str(result), "1", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(result.read_text())
    assert report["exit_code"] == EXIT_OK, report.get("error")
    return report["trace"]


def scenario_files(tmp_path, counts, txs):
    timeline, blocks = tmp_path / "tl.csv", tmp_path / "bl.csv"
    assert main(["gen", "timeline", "--bands", "0,10,50", "--counts", counts, "--snapshots", "20",
                 "--interval", "600", "--out", str(timeline)]) == EXIT_OK
    assert main(["gen", "blocks", "--count", "20", "--txs", str(txs), "--interval", "600",
                 "--out", str(blocks)]) == EXIT_OK
    return ["--timeline", str(timeline), "--blocks", str(blocks)]


def test_a_traced_run_finds_every_patched_name(tmp_path):
    scenario = scenario_files(tmp_path, "0,50,0", 10)
    argv = ["zombie", "--channels", "40", "--dynamic", "--initial-fee", "5", "--step", "1", "--beta", "1.5",
            *scenario, "--out", str(tmp_path / "z")]
    calls, total_s, _ = traced_run(tmp_path, argv)["spans"]["mempool.ReplayEngine.bump"]
    assert calls > 0 and total_s > 0


def test_a_traced_double_spend_withdraws_and_averages(tmp_path):
    # penalties at the 30 sat/vByte average wait behind the 10-50 band's 50
    # transactions, which never drain, so every sweep at 60 wins the race
    # and withdraws its channel's penalty
    graph, cut = tmp_path / "g.csv", tmp_path / "s"
    assert main(["gen", "graph", "--n", "40", "--m", "2", "--out", str(graph)]) == EXIT_OK
    assert main(["solve", "--graph", str(graph), "--k", "3", "--objective", "capacity", "--out", str(cut)]) == EXIT_OK
    scenario = scenario_files(tmp_path, "0,50,0", 50)
    argv = ["doublespend", "--cut-file", f"{cut}.cut.json", "--attacker-fee", "70", "--sweep-fee", "60",
            "--delay", "fixed:0", *scenario, "--out", str(tmp_path / "ds")]
    trace = traced_run(tmp_path, argv)
    report = json.loads((tmp_path / "ds.report.json").read_text())
    committed = sum(c["commitment_height"] is not None for c in report["per_channel"])
    assert committed and report["compromised"] == report["attacked"]
    withdraw_calls, withdraw_s, _ = trace["spans"]["mempool.ReplayEngine.withdraw"]
    assert withdraw_calls > 0 and withdraw_s > 0
    assert trace["spans"]["mempool.average_fee"][0] == committed
