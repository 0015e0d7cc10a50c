"""One lnme CLI invocation in a fresh interpreter, timed from inside.

Usage: python3 bench/child.py <result.json> <trace 0|1> [lnme CLI args...]

With no CLI args the process only imports ``lnme.cli`` (a set-up probe).
The result file records when the import finished on the system-wide
monotonic clock, so the parent can subtract its spawn time; the
``cli.main`` wall time; the exit code; this process's own ``ru_maxrss``;
and, when traced, the per-layer spans and counts.
"""

import json
import resource
import sys
import time
import traceback


def main() -> None:
    out_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import lnme.cli

    ready_at = time.monotonic()
    result = {"ready_at": ready_at}
    if argv:
        tracer = None
        run = lnme.cli.main
        if trace:
            from layers import Tracer, install

            tracer = Tracer()
            run = install(tracer)
        t0 = time.perf_counter()
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejects bad usage this way
            code = exc.code
        except Exception:  # reported as a failed operation, never dropped
            code = None
            result["error"] = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - t0
        result["exit_code"] = code
        if tracer is not None:
            result["trace"] = tracer.report()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(out_path, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
