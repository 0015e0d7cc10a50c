"""The names that the benchmark's tracer (``bench/layers.py``) patches must
exist: a traced run of one tiny dynamic zombie through ``bench/child.py``
exits 0 and times its bumps. ``layers.install`` looks every name up with
``getattr``, so a renamed or deleted one fails this test, not only the
paper-scale traced benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

import lnme
from lnme.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]


def test_a_traced_run_finds_every_patched_name(tmp_path):
    timeline, blocks = tmp_path / "tl.csv", tmp_path / "bl.csv"
    assert main(["gen", "timeline", "--bands", "0,10,50", "--counts", "0,50,0", "--snapshots", "20",
                 "--interval", "600", "--out", str(timeline)]) == EXIT_OK
    assert main(["gen", "blocks", "--count", "20", "--txs", "10", "--interval", "600",
                 "--out", str(blocks)]) == EXIT_OK
    result = tmp_path / "result.json"
    src = str(Path(lnme.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argv = ["zombie", "--channels", "40", "--dynamic", "--initial-fee", "5", "--step", "1", "--beta", "1.5",
            "--timeline", str(timeline), "--blocks", str(blocks), "--out", str(tmp_path / "z")]
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "child.py"), str(result), "1", *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(result.read_text())
    assert report["exit_code"] == EXIT_OK, report.get("error")
    calls, total_s, _ = report["trace"]["spans"]["mempool.ReplayEngine.bump"]
    assert calls > 0 and total_s > 0
