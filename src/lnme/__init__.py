"""Toolkit for mass-exit attacks on payment channel networks.

Computes worst-case adversarial coalitions as k-lopsided max-cut solutions
and simulates the zombie and mass double-spend attacks by replaying
historical mempool congestion.
"""

__version__ = "0.1.0"

from .cut import (
    Cut,
    GreedyTrace,
    Objective,
    cut_value,
    exact_lopsided_cut,
    greedy_lopsided_cut,
    value_vs_k_curve,
)
from .doublespend import (
    AttackerStrategy,
    AverageCapacity,
    CapacityScaled,
    DoubleSpendReport,
    Fixed,
    Outcome,
    PenaltyPolicy,
    PerChannel,
    expected_profit,
    profit_vs_k,
    realized_profit,
    simulate_double_spend,
    to_self_delay,
)
from .graph import (
    Channel,
    LnGraph,
    degree_histogram,
    generate_scale_free,
    parse_edge_list,
    parse_lnd_graph,
)
from .mempool import (
    BlockEntry,
    BlockTrace,
    ConstantAverage,
    FeeHistogram,
    FeeRate,
    Historical,
    MempoolTimeline,
    MonitoredTx,
    ReplayEngine,
    TxStatus,
    average_fee,
    load_block_trace,
    load_timeline,
)
from .scenario import Scenario, preset_scenario
from .strategies import Dynamic, Static
from .zombie import ZombieConfig, ZombieReport, simulate_zombie, sweep_zombie
