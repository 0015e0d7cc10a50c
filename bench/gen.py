"""Seeded synthetic inputs for the benchmark, written as the files a user
would hand to the lnme CLI.

Run as a separate process (``python3 bench/gen.py <spec.json>``) so the
benchmark runner never holds the graph in memory: on Linux a spawned
child's ``ru_maxrss`` starts at its parent's peak, which would hide the
peak RSS of the small CLI runs.

The spec names the work directory, the seed, the scale and which inputs
to write. The generator prints one JSON object: the generator parameters,
each input's path and SHA-256, and the numpy version it ran with.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from lnme.graph import UniformCapacity, generate_scale_free
from lnme.mempool import DEFAULT_BAND_EDGES_SAT
from run import sha256_file

START = 1_600_000_000
SNAPSHOT_INTERVAL_S = 60
DAY_S = 86_400

# Paper scale: the May 2022 snapshot's node count, a 30-day per-minute
# timeline and the blocks mined over it. "smoke" keeps every code path but
# shrinks the sizes so the benchmark's own test finishes in seconds.
SCALES = {
    "paper": {
        "graph_nodes": 17_813,
        "graph_m": 5,
        "capacity_lo_sat": 20_000,
        "capacity_hi_sat": 16_777_215,
        "timeline_days": 30,
        "blocks": 4_300,
        "block_gap_s": 600,
        "block_txs_lo": 1_500,
        "block_txs_hi": 2_800,
        # mempool size: pending count above fee f is about C / (f + F0)
        "congestion_c": 147_250,
        "congestion_f0_sat": 5,
        "daily_wave_amplitude": 0.25,
        "noise_ar1_phi": 0.99,
        "noise_stationary_sd": 0.15,
    },
}
SCALES["smoke"] = {**SCALES["paper"], "graph_nodes": 400, "graph_m": 3, "timeline_days": 4, "blocks": 560}


def pub_key(seed: int, label: str) -> str:
    """A 33-byte compressed-pubkey-shaped hex id, deterministic per seed."""
    return "02" + hashlib.sha256(f"{seed}:{label}".encode()).hexdigest()


def write_graph(path: Path, edges_path: Path, seed: int, p: dict) -> None:
    """lnd describegraph-style JSON, plus the compact edge list the
    benchmark's correctness gate recomputes cut values from."""
    graph = generate_scale_free(
        p["graph_nodes"],
        p["graph_m"],
        seed,
        UniformCapacity(p["capacity_lo_sat"], p["capacity_hi_sat"]),
    )
    pubs = [pub_key(seed, label) for label in graph.labels]
    doc = {
        "nodes": [{"pub_key": pub, "alias": f"node-{i}"} for i, pub in enumerate(pubs)],
        "edges": [
            {
                "channel_id": str((600_000 + i // 2_000) << 40 | (i % 2_000) << 16),
                "node1_pub": pubs[ch.node1],
                "node2_pub": pubs[ch.node2],
                "capacity": str(ch.capacity),
            }
            for i, ch in enumerate(graph.channels)
        ],
    }
    path.write_text(json.dumps(doc))
    lines = [" ".join(pubs)]
    lines += [f"{ch.node1} {ch.node2} {ch.capacity}" for ch in graph.channels]
    edges_path.write_text("\n".join(lines) + "\n")


def write_timeline(path: Path, seed: int, p: dict) -> None:
    """Per-minute counts over the dataset's 36 fee bands.

    Each band's count is a fee-decaying base (pending count above fee f is
    about C / (f + F0)) times exp(daily wave + per-band AR(1) noise). The
    wave's phase is fixed so every seed has the same congestion character:
    30 sat/vB and below never clears without bumping, 150 sat/vB clears.
    """
    rng = np.random.default_rng([seed, 1])
    edges = np.array(DEFAULT_BAND_EDGES_SAT, dtype=np.float64)
    upper = np.append(edges[1:], math.inf)
    c, f0 = p["congestion_c"], p["congestion_f0_sat"]
    base = c / (edges + f0) - np.where(np.isinf(upper), 0.0, c / (upper + f0))
    rows = p["timeline_days"] * DAY_S // SNAPSHOT_INTERVAL_S
    t = np.arange(rows) * SNAPSHOT_INTERVAL_S
    wave = p["daily_wave_amplitude"] * np.sin(2 * math.pi * t / DAY_S)
    phi = p["noise_ar1_phi"]
    sigma = p["noise_stationary_sd"] * math.sqrt(1 - phi * phi)
    shocks = rng.normal(0.0, sigma, size=(rows, len(edges)))
    noise = np.empty_like(shocks)
    level = rng.normal(0.0, p["noise_stationary_sd"], size=len(edges))
    for i in range(rows):
        level = phi * level + shocks[i]
        noise[i] = level
    counts = np.rint(base * np.exp(wave[:, None] + noise)).astype(np.int64)
    header = "timestamp," + ",".join(str(e) for e in DEFAULT_BAND_EDGES_SAT)
    lines = [header]
    for ts, row in zip((START + t).tolist(), counts.tolist()):
        lines.append(f"{ts}," + ",".join(map(str, row)))
    path.write_text("\n".join(lines) + "\n")


def write_blocks(path: Path, seed: int, p: dict) -> None:
    """Exponential inter-block gaps and uniform transaction counts."""
    rng = np.random.default_rng([seed, 2])
    n = p["blocks"]
    gaps = np.maximum(1, np.rint(rng.exponential(p["block_gap_s"], size=n))).astype(np.int64)
    stamps = START + np.cumsum(gaps)
    txs = rng.integers(p["block_txs_lo"], p["block_txs_hi"], size=n, endpoint=True)
    lines = ["height,timestamp,tx_count"]
    lines += [f"{700_000 + i},{ts},{tx}" for i, (ts, tx) in enumerate(zip(stamps.tolist(), txs.tolist()))]
    path.write_text("\n".join(lines) + "\n")


WRITERS = {"timeline": ("timeline.csv", write_timeline), "blocks": ("blocks.csv", write_blocks)}


def generate(workdir: Path, seed: int, scale: str, inputs: list[str]) -> dict:
    p = SCALES[scale]
    files: dict[str, Path] = {}
    if "graph" in inputs:
        files["graph"] = workdir / "graph.json"
        files["graph_edges"] = workdir / "graph.edges.txt"
        write_graph(files["graph"], files["graph_edges"], seed, p)
    for name in ("timeline", "blocks"):
        if name in inputs:
            filename, writer = WRITERS[name]
            files[name] = workdir / filename
            writer(files[name], seed, p)
    return {
        "seed": seed,
        "scale": scale,
        "parameters": p,
        "numpy_version": np.__version__,
        "inputs": {name: {"path": path.name, "sha256": sha256_file(path)} for name, path in files.items()},
    }


if __name__ == "__main__":
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = generate(Path(spec["workdir"]), spec["seed"], spec["scale"], spec["inputs"])
    print(json.dumps(result, sort_keys=True))
