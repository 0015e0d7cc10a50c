"""Per-layer tracing for the benchmark's traced runs.

Wraps the public functions of each lnme module from outside the program:
every callable is replaced where its caller looks it up (``lnme.cli.<name>``
for what the CLI imports, ``lnme.cut.greedy_lopsided_cut`` for the curve,
``lnme.zombie.simulate_zombie`` for the sweep pool, ``lnme.doublespend.
average_fee``) and ``ReplayEngine`` methods are patched on the class.

Per-transaction engine calls run millions of times, so each wrapped name
keeps only a count, total seconds and self seconds (total minus the time
of wrapped calls nested inside it on the same thread), never one record
per call. The sweep's pool threads share the accumulators under a lock;
the nesting stack is per thread. Under the interpreter lock a span of a
pool thread also covers the time it waited for the lock.
"""

from __future__ import annotations

import functools
import threading
import time


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}

    def wrap(self, name, fn, count=None):
        """Return fn timed under name; count=(counter, f) adds f(result)
        to the counter after each call."""
        span = self.spans.setdefault(name, [0, 0.0, 0.0])
        if count is not None:
            self.counts.setdefault(count[0], 0)
        lock, local, counts = self._lock, self._local, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += dt
                with lock:
                    span[0] += 1
                    span[1] += dt
                    span[2] += dt - nested
            if count is not None:
                added = count[1](result)
                with lock:
                    counts[count[0]] += added
            return result

        return wrapper

    def report(self) -> dict:
        with self._lock:
            return {"spans": {k: list(v) for k, v in self.spans.items()}, "counts": dict(self.counts)}


def install(tracer: Tracer):
    """Patch the lnme modules in this process; returns the wrapped
    ``lnme.cli.main`` to call in place of the original."""
    import lnme.cli as cli
    import lnme.cut as cut
    import lnme.doublespend as doublespend
    import lnme.zombie as zombie
    from lnme.mempool import ReplayEngine

    def patch(modules, attr, name, count=None):
        wrapped = tracer.wrap(name, getattr(modules[0], attr), count)
        for module in modules:
            setattr(module, attr, wrapped)

    patch([cli], "parse_lnd_graph", "graph.parse_lnd_graph", ("graph.channels", lambda g: g.channel_count))
    patch(
        [cli, cut],
        "greedy_lopsided_cut",
        "cut.greedy_lopsided_cut",
        ("cut.greedy_steps", lambda r: len(r[1].steps)),
    )
    patch([cli], "cut_to_json", "cut.cut_to_json")
    patch([cli], "read_cut_json", "cut.read_cut_json")
    patch([cli], "load_timeline", "mempool.load_timeline", ("mempool.snapshots", len))
    patch([cli], "load_block_trace", "mempool.load_block_trace")
    patch([doublespend], "average_fee", "mempool.average_fee")
    patch([cli, zombie], "simulate_zombie", "zombie.simulate_zombie")
    patch([cli], "sweep_zombie", "zombie.sweep_zombie")
    patch([cli], "simulate_double_spend", "doublespend.simulate_double_spend")
    for method in ("submit", "bump", "withdraw", "pending"):
        patch([ReplayEngine], method, f"mempool.ReplayEngine.{method}")
    patch([ReplayEngine], "apply_block", "mempool.ReplayEngine.apply_block", ("mempool.confirmations", len))
    return tracer.wrap("cli.main", cli.main)
