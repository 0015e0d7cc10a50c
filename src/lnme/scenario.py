"""Congestion scenarios: a mempool timeline, a block trace, the block
capacity rule, and the attack start time."""

from __future__ import annotations

from dataclasses import dataclass

from .mempool import (
    BlockEntry,
    BlockTrace,
    CapacityMode,
    ConstantAverage,
    Historical,
    MempoolTimeline,
)

# Preset attack starts in unix seconds, from the stated local times at UTC-5.
SCENARIO1_START = 1512652500  # 2017-12-07 08:15, start of heavy congestion
SCENARIO2_START = 1641013200  # 2022-01-01 00:00, typical congestion


@dataclass(frozen=True)
class Scenario:
    timeline: MempoolTimeline
    trace: BlockTrace
    capacity_mode: CapacityMode = Historical()
    start_timestamp: int | None = None  # None: attack starts at the first snapshot

    def start(self) -> int:
        return self.timeline.start if self.start_timestamp is None else self.start_timestamp

    def attack_blocks(self) -> list[BlockEntry]:
        """The trace's blocks from the attack start to the timeline end,
        both inclusive: congestion is unknown past the last snapshot."""
        start, end = self.start(), self.timeline.end
        if start < self.timeline.start:
            raise ValueError("attack start precedes the timeline")
        return [entry for entry in self.trace if start <= entry.timestamp <= end]


def preset_scenario(
    number: int,
    timeline: MempoolTimeline,
    trace: BlockTrace,
    avg_tx_per_block: float | None = None,
) -> Scenario:
    """Scenario 1 replays historical block sizes; scenario 2 uses a constant
    per-block capacity (blocks are not full under typical congestion), which
    must be supplied as the scenario-1 window's block average."""
    if number == 1:
        return Scenario(timeline, trace, Historical(), SCENARIO1_START)
    if number == 2:
        if avg_tx_per_block is None:
            raise ValueError("scenario 2 needs avg_tx_per_block (the scenario-1 block average)")
        return Scenario(timeline, trace, ConstantAverage(avg_tx_per_block), SCENARIO2_START)
    raise ValueError(f"scenario preset must be 1 or 2, got {number}")
