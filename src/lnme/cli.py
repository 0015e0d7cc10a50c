"""Command-line surface: solve coalitions, run the attack simulations, and
generate synthetic inputs. All outputs are machine-readable CSV/JSON; every
run writes a manifest so it can be reproduced bit-for-bit."""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import sys
from pathlib import Path

from . import __version__
from .cut import (
    Objective,
    cut_to_json,
    curve_to_csv,
    greedy_lopsided_cut,
    read_cut_json,
    value_vs_k_curve,
)
from .graph import (
    ConstantCapacity,
    GraphError,
    UniformCapacity,
    generate_scale_free,
    parse_edge_list,
    parse_lnd_graph,
    to_edge_list,
)
from .mempool import (
    DEFAULT_BAND_EDGES_SAT,
    ConstantAverage,
    FeeHistogram,
    FeeRate,
    Historical,
    ReplayError,
    TimelineError,
    load_block_trace,
    load_timeline,
)
from .doublespend import (
    AttackerStrategy,
    AverageCapacity,
    CapacityScaled,
    Fixed,
    PenaltyPolicy,
    PerChannel,
    realized_profit,
    simulate_double_spend,
)
from .scenario import Scenario, preset_scenario
from .strategies import Dynamic, Static
from .zombie import ZombieConfig, simulate_zombie, sweep_csv, sweep_zombie

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_EXHAUSTED = 4

SAT_PER_BTC = 100_000_000
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1  # the range of timeline timestamps and counts


def format_btc(sat: int) -> str:
    """Fixed 8-decimal BTC formatting without float drift."""
    sign = "-" if sat < 0 else ""
    sat = abs(sat)
    return f"{sign}{sat // SAT_PER_BTC}.{sat % SAT_PER_BTC:08d}"


# Parsed arguments that are not run parameters: the command and its handler;
# paths, since the manifest hashes the inputs and lists the outputs;
# --event-log, which only selects an output; the no-op --scale-free and
# --constant; the seed, which the manifest records under "seeds"; and the
# digests of the inputs read.
NOT_PARAMETERS = frozenset({
    "command", "gen_command", "func",
    "out", "graph", "timeline", "blocks", "cut_file",
    "event_log", "scale_free", "constant", "seed", "digests",
})

# Manifest input name -> the argument that holds its path.
INPUTS = {"graph": "graph", "timeline": "timeline", "blocks": "blocks", "cut": "cut_file"}


def _read_input(args, name: str) -> str:
    """The text of input ``name``, read once. The manifest records the
    SHA-256 of these very bytes, so a file replaced during the run cannot
    lend its digest to outputs computed from the old one. The bytes are
    decoded as ``Path.read_text`` decodes them (the locale's encoding,
    universal newlines) and dropped before the text is parsed. Pass the
    text straight to its parser and keep no local of it, so that a parser
    that drops its argument (``parse_lnd_graph``) frees the text once its
    next form exists; CPython 3.10 keeps it to the parser's return.

    The timeline, the largest input, does not come through here: it is
    streamed (see ``_read_timeline``), so that only its counts, int32 while
    every count is below 2**31 and int64 from the first that is not, and a
    slice of its text are alive; never its whole text or its bytes."""
    data = Path(getattr(args, INPUTS[name])).read_bytes()
    args.digests[name] = hashlib.sha256(data).hexdigest()
    with io.TextIOWrapper(io.BytesIO(data), encoding=io.text_encoding(None)) as stream:
        return stream.read()


class _HashedReads(io.RawIOBase):
    """A raw binary file whose every read also feeds ``sha256``: the digest
    of exactly the bytes read through it."""

    def __init__(self, raw):
        self._raw = raw
        self.sha256 = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._raw.readinto(buffer)
        self.sha256.update(memoryview(buffer)[:n])
        return n

    def fileno(self) -> int:
        return self._raw.fileno()


def _read_timeline(args):
    """The timeline, parsed as it is read. The file is opened once and
    decoded as ``_read_input`` decodes (the locale's encoding, universal
    newlines), and ``load_timeline`` reads it a slice at a time to its end;
    every byte the decoder pulls is hashed on the way. The manifest records
    that digest once the parse has read the whole file, so it is the SHA-256
    of the bytes the run parsed."""
    with open(args.timeline, "rb", buffering=0) as raw:
        hashed = _HashedReads(raw)
        with io.TextIOWrapper(io.BufferedReader(hashed), encoding=io.text_encoding(None)) as stream:
            timeline = load_timeline(stream)
    args.digests["timeline"] = hashed.sha256.hexdigest()
    return timeline


def _output_path(args, suffix: str) -> Path:
    prefix = Path(args.out)
    return prefix.with_name(prefix.name + suffix)


def _manifest_name(args) -> str:
    return _output_path(args, ".manifest.json").name


def _write_outputs(args, outputs: dict[str, str], **overrides) -> None:
    """Write each ``{suffix: text}`` output to ``<out><suffix>``, then
    ``<out>.manifest.json``. The manifest echoes every run parameter in
    ``args`` (``overrides`` replace some), gives the digest of each input as
    the run read it and lists the outputs and itself."""
    paths = [_output_path(args, suffix) for suffix in outputs]
    for path, text in zip(paths, outputs.values()):
        path.write_text(text)
    manifest = _output_path(args, ".manifest.json")
    parameters = {key: value for key, value in vars(args).items() if key not in NOT_PARAMETERS}
    doc = {
        "command": " ".join(filter(None, (args.command, getattr(args, "gen_command", None)))),
        "parameters": {**parameters, **overrides},
        "inputs": args.digests,
        "outputs": sorted(str(path) for path in paths + [manifest]),
        "seeds": [args.seed] if "seed" in args else [],
        "tool_version": __version__,
    }
    manifest.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _load_graph(args):
    fmt = args.format
    if fmt is None:
        fmt = "lnd" if args.graph.endswith(".json") else "csv"
    parse = parse_lnd_graph if fmt == "lnd" else parse_edge_list
    # no local keeps the text, so the parser can drop it once it is parsed
    return parse(_read_input(args, "graph"))


def _build_scenario(args) -> Scenario:
    timeline = _read_timeline(args)
    trace = load_block_trace(_read_input(args, "blocks"))
    if args.scenario in ("1", "2"):
        return preset_scenario(int(args.scenario), timeline, trace, args.avg_block_txs)
    start = args.start if args.start is not None else timeline.start
    mode = Historical() if args.avg_block_txs is None else ConstantAverage(args.avg_block_txs)
    return Scenario(timeline, trace, mode, start)


def _fee_list(text: str) -> list[FeeRate]:
    fees = [FeeRate.from_sat(part) for part in text.split(",") if part.strip()]
    if not fees:
        raise ValueError(f"no fee rate in {text!r}")
    return fees


def _step_list(text: str) -> list[int]:
    steps = [int(part) for part in text.split(",") if part.strip()]
    if not steps or min(steps) < 1:
        raise ValueError(f"steps must be integers >= 1, got {text!r}")
    return steps


def _band_grid(text: str) -> FeeHistogram:
    edges = tuple(FeeRate.from_sat(part) for part in text.split(","))
    return FeeHistogram(edges, (0,) * len(edges))  # which rejects edges that do not ascend


def _count_list(text: str) -> list[int]:
    return [_int_at_least(0, INT64_MAX)(part) for part in text.split(",")]


def _block_average(text: str) -> float:
    try:
        return ConstantAverage(float(text)).avg_tx_per_block
    except ValueError as exc:  # a usage error, not a data error
        raise argparse.ArgumentTypeError(str(exc)) from None


def _beta(text: str) -> float:
    try:
        return Dynamic(FeeRate(0), 1, float(text)).beta
    except ValueError as exc:  # a usage error, not a data error
        raise argparse.ArgumentTypeError(str(exc)) from None


def _checked(parse):
    """An argparse type that keeps a flag's text, which the manifest
    records, once parse accepts it; parse's ValueError is a usage error."""

    def check(text: str) -> str:
        try:
            parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return text

    return check


def _int_at_least(low: int, high: int | None = None):
    """An argparse type for an integer flag of at least low and, when high
    is given, at most high."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


# -- solve -------------------------------------------------------------------


def cmd_solve(args) -> int:
    graph = _load_graph(args)
    objective = Objective(args.objective)
    outputs = {}
    if args.k is not None:
        cut, _ = greedy_lopsided_cut(graph, args.k, objective)
        outputs[".cut.json"] = cut_to_json(graph, cut, manifest=_manifest_name(args))
        print(
            f"k={cut.k} objective={objective.value} edge_count={cut.edge_count} "
            f"cut_capacity_btc={format_btc(cut.cut_capacity)}"
        )
    if args.k_max is not None:
        outputs[".curve.csv"] = curve_to_csv(value_vs_k_curve(graph, args.k_max, objective))
    _write_outputs(args, outputs)
    return EXIT_OK


# -- zombie --------------------------------------------------------------------


def cmd_zombie(args) -> int:
    scenario = _build_scenario(args)
    if args.cut_file is not None:
        n = read_cut_json(_read_input(args, "cut")).edge_count
        if n == 0:
            raise ValueError(f"cut file {args.cut_file} has edge_count 0: no channel to close")
    else:
        n = args.channels
    if args.dynamic:
        fees = _fee_list(args.initial_fee)
        steps = _step_list(args.step)
        strategies = [Dynamic(fee, step, args.beta) for fee in fees for step in steps]
    else:
        strategies = [Static(fee) for fee in _fee_list(args.fee)]
    configs = [ZombieConfig(n, strategy, scenario) for strategy in strategies]
    if len(configs) == 1:
        report = simulate_zombie(configs[0])
        exhausted = report.horizon_exhausted
        outputs = {
            ".series.csv": report.series_csv(),
            ".summary.json": report.summary_json(manifest=_manifest_name(args)),
        }
        closed = report.blocks_to_close_all
        done = f"{report.config_key} blocks_to_close_all={closed} horizon_exhausted={exhausted}"
    else:
        reports = sweep_zombie(configs)
        exhausted = any(r.horizon_exhausted for r in reports)
        outputs = {".sweep.csv": sweep_csv(reports)}
        done = f"{len(reports)} zombie runs -> {_output_path(args, '.sweep.csv')}"
    _write_outputs(args, outputs, channels=n)
    print(done)
    return EXIT_EXHAUSTED if exhausted else EXIT_OK


# -- doublespend ---------------------------------------------------------------


def _parse_delay(text: str):
    if text == "scaled":
        return CapacityScaled()
    if text.startswith("fixed:"):
        try:
            blocks = int(text.split(":", 1)[1])
        except ValueError:
            pass  # not a block count: the message below names the forms
        else:
            return Fixed(blocks)
    raise ValueError(f"delay must be 'scaled' or 'fixed:<blocks>', got {text!r}")


def cmd_doublespend(args) -> int:
    scenario = _build_scenario(args)
    cut_file = read_cut_json(_read_input(args, "cut"))
    sweep_fee = FeeRate.from_sat(args.sweep_fee)
    sweep = Dynamic(sweep_fee, args.sweep_step, args.sweep_beta) if args.sweep_dynamic else Static(sweep_fee)
    attacker = AttackerStrategy(FeeRate.from_sat(args.attacker_fee), sweep)
    honest = (
        PenaltyPolicy(dynamic=True, step=args.honest_step, beta=args.honest_beta)
        if args.honest_step is not None
        else PenaltyPolicy()
    )
    report = simulate_double_spend(
        zip(cut_file.ids, cut_file.capacity),
        honest,
        attacker,
        _parse_delay(args.delay),
        scenario,
        strict_expiry=args.strict_expiry,
        record_events=args.event_log,
    )
    if report.undecided:
        print(
            f"warning: {report.undecided} channel(s) undecided at horizon, excluded from profit",
            file=sys.stderr,
        )
    if args.profit_mode == "average":
        mode = AverageCapacity(args.avg_capacity)
    else:
        mode = PerChannel()
    profit = realized_profit(report, mode, exclude_undecided=True)
    outputs = {
        ".report.json": report.to_json(
            profit_mode=args.profit_mode, profit_sat=profit, manifest=_manifest_name(args)
        ),
        ".series.csv": report.series_csv(),
    }
    if args.event_log:
        outputs[".events.jsonl"] = report.events_jsonl()
    _write_outputs(args, outputs)
    print(
        f"attacked={report.attacked} compromised={report.compromised} defended={report.defended} "
        f"undecided={report.undecided} profit_btc={format_btc(profit)}"
    )
    return EXIT_EXHAUSTED if report.horizon_exhausted else EXIT_OK


# -- gen -------------------------------------------------------------------------


def _capacity_dist(text: str):
    kind, _, rest = text.partition(":")
    try:
        sats = [int(part) for part in rest.split(":")]
    except ValueError:
        sats = []
    if kind == "constant" and len(sats) == 1 and sats[0] >= 0:
        return ConstantCapacity(sats[0])
    if kind == "uniform" and len(sats) == 2 and 0 <= sats[0] <= sats[1]:
        return UniformCapacity(*sats)
    raise ValueError(
        f"capacity must be 'constant:<sat>' or 'uniform:<lo>:<hi>' with 0 <= lo <= hi, got {text!r}"
    )


def cmd_gen_graph(args) -> int:
    graph = generate_scale_free(args.n, args.m, args.seed, _capacity_dist(args.capacity))
    _write_outputs(args, {"": to_edge_list(graph)})
    print(f"scale-free graph: {graph.node_count} nodes, {graph.channel_count} channels -> {Path(args.out)}")
    return EXIT_OK


def cmd_gen_timeline(args) -> int:
    edges = [e.strip() for e in args.bands.split(",")] if args.bands else [str(e) for e in DEFAULT_BAND_EDGES_SAT]
    counts = _count_list(args.counts) if args.counts else [args.count] * len(edges)
    lines = ["timestamp," + ",".join(edges)]
    for i in range(args.snapshots):
        t = args.start + i * args.interval
        lines.append(str(t) + "," + ",".join(str(c) for c in counts))
    _write_outputs(args, {"": "\n".join(lines) + "\n"})
    print(f"flat timeline: {args.snapshots} snapshots x {len(edges)} bands -> {Path(args.out)}")
    return EXIT_OK


def cmd_gen_blocks(args) -> int:
    lines = ["height,timestamp,tx_count"]
    for i in range(args.count):
        lines.append(f"{args.start_height + i},{args.start + i * args.interval},{args.txs}")
    _write_outputs(args, {"": "\n".join(lines) + "\n"})
    print(f"block trace: {args.count} blocks of {args.txs} txs -> {Path(args.out)}")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------


def _add_scenario_args(parser):
    parser.add_argument("--timeline", required=True, help="mempool timeline CSV")
    parser.add_argument("--blocks", required=True, help="block trace CSV")
    parser.add_argument("--scenario", default="custom", choices=["1", "2", "custom"])
    parser.add_argument("--start", type=int, default=None, help="attack start (unix seconds, custom scenario)")
    parser.add_argument(
        "--avg-block-txs",
        type=_block_average,
        default=None,
        help="constant block capacity (required for scenario 2)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lnme",
        description="Mass-exit attack toolkit: coalition cuts and congestion replay simulations.",
    )
    parser.add_argument("--version", action="version", version=f"lnme {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="greedy k-lopsided max-cut solutions and curves")
    solve.add_argument("--graph", required=True)
    solve.add_argument("--format", choices=["lnd", "csv"], default=None)
    solve.add_argument("--k", type=_int_at_least(1), default=None)
    solve.add_argument("--k-max", type=_int_at_least(0), default=None)
    solve.add_argument("--objective", choices=["edges", "capacity"], default="edges")
    solve.add_argument("--out", required=True, help="output path prefix")
    solve.set_defaults(func=cmd_solve)

    zombie = sub.add_parser("zombie", help="simulate mass forced channel closure")
    group = zombie.add_mutually_exclusive_group(required=True)
    group.add_argument("--channels", type=_int_at_least(1), default=None)
    group.add_argument("--cut-file", default=None)
    zombie.add_argument(
        "--fee", type=_checked(_fee_list), default=None, help="static fee(s), sat/vByte, comma-separated sweeps"
    )
    zombie.add_argument("--dynamic", action="store_true")
    zombie.add_argument("--initial-fee", type=_checked(_fee_list), default=None)
    zombie.add_argument(
        "--step", type=_checked(_step_list), default="10", help="bump cadence in blocks, comma-separated sweeps"
    )
    zombie.add_argument("--beta", type=_beta, default=1.01)
    _add_scenario_args(zombie)
    zombie.add_argument("--out", required=True)
    zombie.set_defaults(func=cmd_zombie)

    ds = sub.add_parser("doublespend", help="simulate the mass double-spend attack")
    ds.add_argument("--cut-file", required=True)
    ds.add_argument(
        "--attacker-fee", type=_checked(FeeRate.from_sat), required=True, help="commitment fee, sat/vByte"
    )
    ds.add_argument("--sweep-fee", type=_checked(FeeRate.from_sat), default="100")
    ds.add_argument("--sweep-dynamic", action="store_true")
    ds.add_argument("--sweep-step", type=_int_at_least(1), default=7)
    ds.add_argument("--sweep-beta", type=_beta, default=1.1)
    ds.add_argument("--delay", type=_checked(_parse_delay), default="scaled", help="'scaled' or 'fixed:<blocks>'")
    ds.add_argument("--honest-step", type=_int_at_least(1), default=None, help="dynamic victim bump cadence")
    ds.add_argument("--honest-beta", type=_beta, default=1.1)
    ds.add_argument("--profit-mode", choices=["per-channel", "average"], default="per-channel")
    ds.add_argument("--avg-capacity", type=_int_at_least(0), default=None, help="satoshis (average profit mode)")
    ds.add_argument("--strict-expiry", action="store_true")
    ds.add_argument("--event-log", action="store_true")
    _add_scenario_args(ds)
    ds.add_argument("--out", required=True)
    ds.set_defaults(func=cmd_doublespend)

    gen = sub.add_parser("gen", help="generate synthetic inputs")
    gensub = gen.add_subparsers(dest="gen_command", required=True)

    gg = gensub.add_parser("graph", help="scale-free graph as edge-list CSV")
    gg.add_argument("--scale-free", action="store_true")
    gg.add_argument("--n", type=int, required=True)
    gg.add_argument("--m", type=_int_at_least(1), required=True)
    gg.add_argument("--seed", type=int, default=0)
    gg.add_argument("--capacity", type=_checked(_capacity_dist), default="constant:4500000")
    gg.add_argument("--out", required=True)
    gg.set_defaults(func=cmd_gen_graph)

    gt = gensub.add_parser("timeline", help="flat timeline CSV")
    gt.add_argument("--constant", action="store_true")
    gt.add_argument("--bands", type=_checked(_band_grid), default=None, help="band edges (default: dataset bands)")
    gt.add_argument("--counts", type=_checked(_count_list), default=None, help="per-band counts")
    gt.add_argument("--count", type=_int_at_least(0, INT64_MAX), default=0, help="same count for every band")
    gt.add_argument("--snapshots", type=_int_at_least(1), required=True)
    gt.add_argument("--interval", type=_int_at_least(1), default=60)
    gt.add_argument("--start", type=_int_at_least(INT64_MIN, INT64_MAX), default=1_600_000_000)
    gt.add_argument("--out", required=True)
    gt.set_defaults(func=cmd_gen_timeline)

    gb = gensub.add_parser("blocks", help="constant block trace CSV")
    gb.add_argument("--count", type=_int_at_least(1), required=True)
    gb.add_argument("--txs", type=_int_at_least(0), required=True)
    gb.add_argument("--interval", type=_int_at_least(0), default=600)
    gb.add_argument("--start", type=int, default=1_600_000_000)
    gb.add_argument("--start-height", type=int, default=1)
    gb.set_defaults(func=cmd_gen_blocks)
    gb.add_argument("--out", required=True)

    return parser


def _validate(args, parser) -> None:
    if args.command == "solve" and args.k is None and args.k_max is None:
        parser.error("solve requires --k and/or --k-max")
    if args.command == "zombie":
        if args.dynamic and args.initial_fee is None:
            parser.error("--dynamic requires --initial-fee")
        if not args.dynamic and args.fee is None:
            parser.error("either --fee or --dynamic --initial-fee is required")
    if getattr(args, "gen_command", None) == "graph" and args.n <= args.m:
        parser.error(f"--n must be > --m, got --n {args.n} --m {args.m}")
    if getattr(args, "gen_command", None) == "timeline":
        bands = len(args.bands.split(",")) if args.bands else len(DEFAULT_BAND_EDGES_SAT)
        if args.counts and len(args.counts.split(",")) != bands:
            parser.error(f"--counts needs one count per band ({bands}), got {args.counts!r}")
        last = args.start + (args.snapshots - 1) * args.interval
        if last > INT64_MAX:
            parser.error(
                f"the last timestamp, --start + (--snapshots - 1) * --interval = {last}, exceeds int64"
            )
    if args.command == "doublespend" and args.profit_mode == "average" and args.avg_capacity is None:
        parser.error("--profit-mode average requires --avg-capacity")
    if getattr(args, "scenario", None) == "2" and args.avg_block_txs is None:
        parser.error("--scenario 2 requires --avg-block-txs")


def main(argv=None) -> int:
    # A run's data hold no reference cycles: the only cyclic garbage it
    # leaves is its argument parser's and JSON encoder's, a few hundred
    # objects whatever the input. So the cyclic collector would only rescan
    # the run's containers, such as the parsed graph's, and free nothing.
    collecting = gc.isenabled()
    gc.disable()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        _validate(args, parser)
        args.digests = {}  # input name -> SHA-256, filled as the run reads its inputs
        try:
            return args.func(args)
        except (GraphError, TimelineError, ReplayError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_DATA
    finally:
        if collecting:
            gc.enable()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
