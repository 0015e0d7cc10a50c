"""Zombie attack simulation: every victim's force-closing transaction
enters the mempool at attack start, and blocks are replayed until all of
them confirm or the trace runs out."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .mempool import ReplayEngine
from .scenario import Scenario
from .strategies import Dynamic, FeeStrategy, initial_fee


@dataclass(frozen=True)
class ZombieConfig:
    """How many channels to close, with which fee strategy, under which
    congestion scenario. Only the channel count matters to closure delay;
    pass a cut's edge_count to attack a computed coalition."""

    channel_count: int
    strategy: FeeStrategy
    scenario: Scenario

    def __post_init__(self):
        if self.channel_count < 1:
            raise ValueError("channel_count must be >= 1")

    def key(self) -> str:
        s = self.strategy
        if isinstance(s, Dynamic):
            return f"n={self.channel_count},initial={s.initial_fee},step={s.step},beta={s.beta}"
        return f"n={self.channel_count},fee={s.fee}"


@dataclass
class ZombieReport:
    config: ZombieConfig
    series: list[tuple[int, int]]  # (block height, remaining channels)
    blocks_to_close_all: int | None
    horizon_exhausted: bool

    @property
    def config_key(self) -> str:
        return self.config.key()

    def series_csv(self) -> str:
        lines = ["height,remaining"]
        lines += [f"{h},{r}" for h, r in self.series]
        return "\n".join(lines) + "\n"

    def summary_json(self, manifest: str | None = None) -> str:
        doc = {
            "config": self.config_key,
            "blocks_to_close_all": self.blocks_to_close_all,
            "horizon_exhausted": self.horizon_exhausted,
        }
        if manifest:
            doc["manifest"] = manifest
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def simulate_zombie(config: ZombieConfig) -> ZombieReport:
    """Submit all closing transactions at attack start and replay blocks.

    With a dynamic strategy, every still-pending transaction is bumped on
    the shared s-block cadence counted from attack start: all victims
    submit together, as one engine group, and each bump renames that
    group. Blocks before the attack start are skipped; if the trace or the
    timeline ends first, the report flags the exhausted horizon instead of
    extrapolating.
    """
    scenario = config.scenario
    start = scenario.start()
    blocks = scenario.attack_blocks()
    engine = ReplayEngine(scenario.timeline, scenario.capacity_mode)
    n = config.channel_count
    fee = initial_fee(config.strategy)
    submit = engine.submit
    victims = submit(0, fee, start)
    for i in range(1, n):
        submit(i, fee, start)
    series: list[tuple[int, int]] = []
    remaining = n
    closed_at = None
    for age, entry in enumerate(blocks, start=1):
        confirmed = engine.apply_block(entry)
        remaining -= len(confirmed)
        series.append((entry.height, remaining))
        if remaining == 0:
            closed_at = age
            break
        if isinstance(config.strategy, Dynamic) and age % config.strategy.step == 0:
            new_fee = victims.fee.bumped(config.strategy.beta)
            if new_fee > victims.fee:  # a no-op bump would reset queue positions
                engine.bump(victims, new_fee, entry.timestamp)
    return ZombieReport(config, series, closed_at, remaining > 0)


def sweep_zombie(configs: list[ZombieConfig]) -> list[ZombieReport]:
    """One simulation per config, run one after another in input order.

    ``LNME_THREADS`` is accepted and ignored: the replay is pure Python, so
    a thread pool gave no speedup under the interpreter lock.
    """
    if not configs:
        raise ValueError("config list must be non-empty")
    return [simulate_zombie(c) for c in configs]


def sweep_csv(reports: list[ZombieReport]) -> str:
    """One row per run; static rows leave step/beta empty, dynamic rows put
    the initial fee in the fee column."""
    lines = ["n,fee,step,beta,blocks_to_close_all,horizon_exhausted"]
    for rep in reports:
        s = rep.config.strategy
        if isinstance(s, Dynamic):
            fee_col, step_col, beta_col = str(s.initial_fee), str(s.step), str(s.beta)
        else:
            fee_col, step_col, beta_col = str(s.fee), "", ""
        blocks = "" if rep.blocks_to_close_all is None else rep.blocks_to_close_all
        lines.append(
            f"{rep.config.channel_count},{fee_col},{step_col},{beta_col},"
            f"{blocks},{str(rep.horizon_exhausted).lower()}"
        )
    return "\n".join(lines) + "\n"
