"""lnme benchmark: the CLI commands a user of the paper's pipeline runs, on
seeded synthetic inputs at paper scale.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py                 # every workload, default seed

Run from the root of a source checkout (the directory holding
``src/lnme``). Inputs are generated under ``.bench_work/`` from the seed;
each CLI operation is a fresh Python process calling ``lnme.cli.main``;
load is a closed loop of one operation at a time. Every operation's
outputs pass a correctness gate, and the last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). A full result, with the environment, generator parameters,
input digests and every sample, goes to ``.bench_work/results/``.
See ``bench/README.md`` for each metric and workload.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170

# CLI parameters per scale; "smoke" is the benchmark's own test.
PARAMS = {
    "paper": {
        "k": 30,
        "k_max": 300,
        "sweep_channels": 10_911,
        "sweep_steps": "5,10,20",
        "static_channels": 1_000_000,
        "honest_step": 20,
    },
    "smoke": {
        "k": 30,
        "k_max": 50,
        "sweep_channels": 2_000,
        "sweep_steps": "1,2",
        "static_channels": 20_000,
        "honest_step": 2,
    },
}


class Workload(NamedTuple):
    """One kind of CLI operation: its inputs, the invocations of one
    operation, the outputs whose bytes must repeat, and its checks."""

    inputs: tuple
    threads: str  # LNME_THREADS
    invocations: Callable  # params -> list of argv
    outputs: tuple
    check: Callable  # (workdir, params, layer values or None) -> (work units, problems)


SCENARIO = ["--timeline", "timeline.csv", "--blocks", "blocks.csv"]


def _solve_invocations(p):
    return [
        ["solve", "--graph", "graph.json", "--k", str(p["k"]), "--objective", "capacity", "--out", "k30"],
        ["solve", "--graph", "graph.json", "--k-max", str(p["k_max"]), "--objective", "edges", "--out", "curve"],
    ]


def _sweep_invocations(p):
    return [
        ["zombie", "--channels", str(p["sweep_channels"]), "--dynamic", "--initial-fee", "10",
         "--step", p["sweep_steps"], "--beta", "1.05", *SCENARIO, "--out", "sweep"]
    ]


def _static_invocations(p):
    return [["zombie", "--channels", str(p["static_channels"]), "--fee", "150", *SCENARIO, "--out", "static"]]


def _doublespend_invocations(p):
    return [
        ["doublespend", "--cut-file", "k30.cut.json", "--attacker-fee", "50", "--sweep-dynamic",
         "--sweep-fee", "40", "--sweep-step", "7", "--sweep-beta", "1.1", "--delay", "scaled",
         "--honest-step", str(p["honest_step"]), "--honest-beta", "1.05", *SCENARIO, "--out", "ds"]
    ]


def _read_edges(workdir: Path):
    path = workdir / "graph.edges.txt"
    return _parse_edges(path, path.stat().st_mtime_ns)


@functools.lru_cache(maxsize=1)
def _parse_edges(path: Path, mtime_ns: int):
    with open(path) as handle:
        pubs = handle.readline().split()
        edges = [tuple(map(int, line.split())) for line in handle]
    return {pub: i for i, pub in enumerate(pubs)}, edges


def _crossing(index, edges, coalition_labels):
    inside = bytearray(len(index))
    for label in coalition_labels:
        inside[index[label]] = 1
    count = capacity = 0
    for a, b, cap in edges:
        if inside[a] != inside[b]:
            count += 1
            capacity += cap
    return count, capacity


def check_cut(workdir: Path, k: int) -> list[str]:
    """The cut's edge_count and capacity equal the crossing channels of its
    coalition, recomputed on the generated graph."""
    doc = json.loads((workdir / "k30.cut.json").read_text())
    problems = []
    if doc["k"] != k or len(set(doc["coalition"])) != k:
        problems.append(f"cut: coalition is not {k} distinct nodes")
    index, edges = _read_edges(workdir)
    count, capacity = _crossing(index, edges, doc["coalition"])
    if (doc["edge_count"], doc["cut_capacity_sat"]) != (count, capacity):
        problems.append(
            f"cut: reports ({doc['edge_count']}, {doc['cut_capacity_sat']}), recomputed ({count}, {capacity})"
        )
    if len(doc["cut_channels"]) != count:
        problems.append("cut: cut_channels length differs from edge_count")
    return problems


def _check_solve(workdir, p, counts):
    problems = check_cut(workdir, p["k"])
    with open(workdir / "curve.curve.csv") as handle:
        ks = [int(row["k"]) for row in csv.DictReader(handle)]
    if ks != list(range(1, p["k_max"] + 1)):
        problems.append(f"curve: rows are not k=1..{p['k_max']}")
    if counts is not None:
        problems += _expect(counts, {
            "cut.greedy_lopsided_cut.calls": 2,
            "cut.greedy_steps": p["k"] + p["k_max"],
            "mempool.ReplayEngine.submit.calls": 0,
        })
    channels = len(_read_edges(workdir)[1])
    return channels * 2, problems


def _check_sweep(workdir, p, counts):
    with open(workdir / "sweep.sweep.csv") as handle:
        rows = list(csv.DictReader(handle))
    steps = p["sweep_steps"].split(",")
    problems = []
    if [r["step"] for r in rows] != steps:
        problems.append("sweep: rows do not follow the configured steps")
    blocks = 0
    for r in rows:
        if r["horizon_exhausted"] != "false" or not r["blocks_to_close_all"]:
            problems.append(f"sweep: step {r['step']} did not close every channel")
        else:
            blocks += int(r["blocks_to_close_all"])
        if int(r["n"]) != p["sweep_channels"]:
            problems.append("sweep: wrong channel count")
    if counts is not None:
        problems += _expect(counts, {
            "zombie.simulate_zombie.calls": len(steps),
            "mempool.ReplayEngine.submit.calls": p["sweep_channels"] * len(steps),
            "mempool.ReplayEngine.apply_block.calls": blocks,
            "mempool.confirmations": p["sweep_channels"] * len(steps),
            "mempool.average_fee.calls": 0,
        })
    return blocks, problems


def _check_static(workdir, p, counts):
    summary = json.loads((workdir / "static.summary.json").read_text())
    with open(workdir / "static.series.csv") as handle:
        remaining = [int(row["remaining"]) for row in csv.DictReader(handle)]
    problems = []
    if summary["horizon_exhausted"] is not False:
        problems.append("static: horizon exhausted")
    if summary["blocks_to_close_all"] != len(remaining):
        problems.append("static: blocks_to_close_all differs from the series length")
    if not remaining or remaining[-1] != 0:
        problems.append("static: remaining does not end at 0")
    if any(b > a for a, b in zip([p["static_channels"]] + remaining, remaining)):
        problems.append("static: remaining increases")
    if counts is not None:
        problems += _expect(counts, {
            "mempool.ReplayEngine.submit.calls": p["static_channels"],
            "mempool.ReplayEngine.bump.calls": 0,
            "mempool.ReplayEngine.apply_block.calls": len(remaining),
            "mempool.confirmations": p["static_channels"],
            "mempool.average_fee.calls": 0,
        })
    return len(remaining), problems


def _check_doublespend(workdir, p, counts):
    report = json.loads((workdir / "ds.report.json").read_text())
    cut = json.loads((workdir / "k30.cut.json").read_text())
    with open(workdir / "ds.series.csv") as handle:
        blocks = sum(1 for _ in csv.DictReader(handle))
    per = report["per_channel"]
    tally = {o: sum(1 for c in per if c["outcome"] == o) for o in ("compromised", "defended", "undecided")}
    problems = []
    if report["attacked"] != tally["compromised"] + tally["defended"] + tally["undecided"]:
        problems.append("doublespend: attacked != compromised + defended + undecided")
    if any(report[o] != n for o, n in tally.items()) or report["attacked"] != cut["edge_count"]:
        problems.append("doublespend: outcome counts disagree with per_channel or the cut")
    twice = sum(c["capacity_sat"] for c in per if c["outcome"] == "compromised") - sum(
        c["capacity_sat"] for c in per if c["outcome"] == "defended"
    )
    profit = twice // 2 if twice >= 0 else -((-twice) // 2)
    if report["realized_profit_sat"] != profit:
        problems.append(f"doublespend: realized_profit_sat {report['realized_profit_sat']} != {profit}")
    if report["horizon_exhausted"] is not False:
        problems.append("doublespend: horizon exhausted")
    if counts is not None:
        committed = sum(1 for c in per if c["commitment_height"] is not None)
        problems += _expect(counts, {
            "mempool.average_fee.calls": committed,
            "mempool.ReplayEngine.apply_block.calls": blocks,
        })
    # blocks applied swing with the daily trough that decides the last
    # channel, while the cost follows the channels attacked
    return report["attacked"], problems


def _expect(counts, expected):
    return [
        f"trace: {name} is {counts.get(name)}, model says {want}"
        for name, want in expected.items()
        if counts.get(name) != want
    ]


WORKLOADS = {
    "solve_paper": Workload(
        ("graph",), "1", _solve_invocations,
        ("k30.cut.json", "k30.manifest.json", "curve.curve.csv", "curve.manifest.json"), _check_solve,
    ),
    "zombie_dynamic_sweep": Workload(
        ("timeline", "blocks"), "2", _sweep_invocations,
        ("sweep.sweep.csv", "sweep.manifest.json"), _check_sweep,
    ),
    "zombie_static_1m": Workload(
        ("timeline", "blocks"), "1", _static_invocations,
        ("static.series.csv", "static.summary.json", "static.manifest.json"), _check_static,
    ),
    "doublespend_k30": Workload(
        ("graph", "timeline", "blocks"), "1", _doublespend_invocations,
        ("ds.report.json", "ds.series.csv", "ds.manifest.json"), _check_doublespend,
    ),
}

# Per-layer metrics: spans as (metric, span name, field), field 0 = calls,
# 1 = total seconds, 2 = self seconds; then plain counters.
SPAN_METRICS = [
    ("graph.parse_lnd_graph.s", "graph.parse_lnd_graph", 1),
    ("cut.greedy_lopsided_cut.calls", "cut.greedy_lopsided_cut", 0),
    ("cut.greedy_lopsided_cut.s", "cut.greedy_lopsided_cut", 1),
    ("cut.cut_to_json.s", "cut.cut_to_json", 1),
    ("cut.read_cut_json.s", "cut.read_cut_json", 1),
    ("mempool.load_timeline.s", "mempool.load_timeline", 1),
    ("mempool.load_block_trace.s", "mempool.load_block_trace", 1),
    *[
        (f"mempool.ReplayEngine.{m}.{suffix}", f"mempool.ReplayEngine.{m}", field)
        for m in ("submit", "bump", "pending", "apply_block", "withdraw")
        for suffix, field in (("calls", 0), ("s", 1))
    ],
    ("mempool.average_fee.calls", "mempool.average_fee", 0),
    ("mempool.average_fee.s", "mempool.average_fee", 1),
    ("zombie.simulate_zombie.calls", "zombie.simulate_zombie", 0),
    ("zombie.simulate_zombie.self_s", "zombie.simulate_zombie", 2),
    ("zombie.sweep_zombie.s", "zombie.sweep_zombie", 1),
    ("doublespend.simulate_double_spend.self_s", "doublespend.simulate_double_spend", 2),
    ("cli.main.self_s", "cli.main", 2),
]
COUNTERS = ["graph.channels", "cut.greedy_steps", "mempool.snapshots", "mempool.confirmations"]


def layer_values(traces: list[dict]) -> dict:
    """Per-layer values of one operation, summed over its processes."""
    values = {
        name: sum(t["spans"].get(span, (0, 0.0, 0.0))[field] for t in traces)
        for name, span, field in SPAN_METRICS
    }
    values.update({name: sum(t["counts"].get(name, 0) for t in traces) for name in COUNTERS})
    submits = values["mempool.ReplayEngine.submit.calls"]
    confirmations = values["mempool.confirmations"]
    values["mempool.confirm_yield"] = confirmations / submits if submits else 0.0
    bumps = values["mempool.ReplayEngine.bump.calls"]
    values["mempool.bumps_per_confirmation"] = bumps / confirmations if confirmations else 0.0
    return values


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Runner:
    """Spawns the generator and the CLI processes for one workload."""

    def __init__(self, root: Path, workdir: Path, threads: str):
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": str(root / "src"), "LNME_THREADS": threads}

    def spawn(self, argv: list[str], trace: bool) -> dict:
        """Run one CLI invocation (or, with no argv, a set-up probe)."""
        out = self.workdir / "child.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(out), "1" if trace else "0", *argv]
        # child and parent both read CLOCK_MONOTONIC, so the spawn-to-import
        # interval is comparable across the two processes
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=self.workdir, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return {"exit_code": None, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
        if not out.exists():
            return {"exit_code": None, "error": proc.stderr[-2000:]}
        result = json.loads(out.read_text())
        result["setup_s"] = result.pop("ready_at") - spawned_at
        if proc.returncode != 0 and "error" not in result:
            result["error"] = proc.stderr[-2000:]
        return result

    def generate(self, seed: int, scale: str, inputs) -> dict:
        spec = self.workdir / "gen_spec.json"
        spec.write_text(json.dumps({"workdir": ".", "seed": seed, "scale": scale, "inputs": list(inputs)}))
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "gen.py"), spec.name], cwd=self.workdir, env=self.env,
            capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
        )
        return json.loads(proc.stdout)


def environment(root: Path, threads: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((root / "src" / "lnme").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "lnme_source_sha256": source.hexdigest(),
        "LNME_THREADS": threads,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path, workdir: Path,
                 scale: str = "paper") -> dict:
    """Generate inputs, measure one workload for `seconds`, check every
    operation, and return the full result (``summary`` is the line printed last)."""
    wl = WORKLOADS[name]
    p = PARAMS[scale]
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    runner = Runner(root, workdir, wl.threads)
    generator = runner.generate(seed, scale, wl.inputs)
    inputs = {k: v["sha256"] for k, v in generator["inputs"].items()}
    problems: list[str] = []
    if name == "doublespend_k30":
        # the k=30 capacity cut is built once, through the CLI, at set-up
        cut = runner.spawn(_solve_invocations(p)[0], trace=False)
        if cut.get("exit_code") != 0:
            raise RuntimeError(f"building the k={p['k']} cut failed: {cut.get('error')}")
        problems += check_cut(workdir, p["k"])
        inputs["cut"] = sha256_file(workdir / "k30.cut.json")
    setup = []
    for i in range(SETUP_PROBES + 1):
        probe = runner.spawn([], trace=False)
        if "setup_s" not in probe:
            raise RuntimeError(f"importing lnme.cli failed: {probe.get('error')}")
        if i:  # the first probe compiles bytecode, which users do not pay per run
            setup.append(probe["setup_s"])

    pinned = None
    if scale == "paper" and seed == DEFAULT_SEED:
        pinned = json.loads((BENCH_DIR / "digests.json").read_text())
        if any(pinned["inputs"].get(k) != v for k, v in inputs.items()):
            problems.append("inputs differ from the digests pinned for the default seed")
        pinned = pinned["outputs"][name]

    ops = []
    first_digests = None
    start = time.monotonic()
    while True:
        # with --trace 1 untraced and traced operations alternate
        traced = trace and len(ops) % 2 == 1
        t0 = time.monotonic()
        procs = [runner.spawn(argv, traced) for argv in wl.invocations(p)]
        op = {
            "traced": traced,
            "wall_s": sum(r.get("wall_s", 0.0) for r in procs),
            "peak_rss_mb": max(r.get("peak_rss_mb", 0.0) for r in procs),
            "setup_s": [r["setup_s"] for r in procs if "setup_s" in r],
            "problems": [],
        }
        op_problems = op["problems"]
        for r in procs:
            if r.get("exit_code") != 0:
                op_problems.append(f"exit code {r.get('exit_code')}: {r.get('error', '')}")
        if not op_problems:
            layers = layer_values([r["trace"] for r in procs]) if traced else None
            try:
                op["work_units"], found = wl.check(workdir, p, layers)
                op_problems += found
            except (OSError, KeyError, ValueError, TypeError) as exc:
                op_problems.append(f"unreadable output: {exc!r}")
            digests = {f: sha256_file(workdir / f) for f in wl.outputs if (workdir / f).exists()}
            first_digests = first_digests or digests
            if digests != first_digests:
                op_problems.append("outputs differ from this run's first operation")
            if pinned is not None and digests != pinned:
                op_problems.append("outputs differ from the digests pinned for the default seed")
            op["digests"] = digests
            op["layers"] = layers
        op["elapsed_s"] = time.monotonic() - t0
        ops.append(op)
        if trace and len(ops) < 2:
            continue
        # start another operation only if it is expected to end in time
        per_op = statistics.median(o["elapsed_s"] for o in ops)
        if time.monotonic() - start + per_op > seconds:
            break

    # the set-up (inputs, their pinned digests, the k=30 cut) is one more
    # attempted operation, so its violations count too
    attempted = len(ops) + 1
    failed = sum(1 for o in ops if o["problems"]) + (1 if problems else 0)
    good = [o for o in ops if not o["problems"]]
    # if every operation failed, the metrics still come from the failed ones
    plain = [o for o in good if not o["traced"]] or [o for o in ops if not o["traced"]]
    setup += [s for o in ops for s in o["setup_s"]]
    if trace:
        traced_ops = [o for o in good if o["traced"]]
        layers = [o["layers"] for o in traced_ops] or [layer_values([])]
        metrics = {key: statistics.median(values[key] for values in layers) for key in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(
            o["wall_s"] for o in traced_ops or ops
        ) - statistics.median(o["wall_s"] for o in plain)
    else:
        metrics = {
            "wall_s": statistics.median(o["wall_s"] for o in plain),
            "work_units_per_s": statistics.median(
                o.get("work_units", 0) / o["wall_s"] if o["wall_s"] else 0.0 for o in plain
            ),
            "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in plain),
            "setup_s": statistics.median(setup),
        }
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(root, wl.threads),
        "generator": generator,
        "input_sha256": inputs,
        "setup_problems": problems,
        "setup_s_samples": setup,
        "operations": ops,
        "fail_ratio": failed / attempted,
        "samples": len(plain),
        "summary": summary,
    }


def print_table(result: dict) -> None:
    for key, metric in result["summary"]["metrics"].items():
        print(f"{result['workload']:<22} {key:<42} {metric['value']:>14.6g} {metric['unit']}")
    print(
        f"{result['workload']:<22} {'fail_ratio':<42} {result['fail_ratio']:>14.6g} "
        f"({result['summary']['failed']}/{result['summary']['attempted']}, "
        f"{result['samples']} untraced samples)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lnme" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("error: run from the root of an lnme checkout (src/lnme and BENCHMARK.json)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results_dir = root / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for name in names:
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), root, root / ".bench_work" / tag)
        shutil.rmtree(root / ".bench_work" / tag)
        (results_dir / f"{tag}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
        print_table(result)
        results.append(result)
    if len(results) == 1:
        print(json.dumps(results[0]["summary"]))
    else:
        print(json.dumps({
            "correct": all(r["summary"]["correct"] for r in results),
            "attempted": sum(r["summary"]["attempted"] for r in results),
            "failed": sum(r["summary"]["failed"] for r in results),
            "metrics": {f"{r['workload']}.{k}": v for r in results for k, v in r["summary"]["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
