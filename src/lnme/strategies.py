"""Fee strategies for transaction senders: one static fee, or exponential
replace-by-fee bumping every fixed number of blocks."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mempool import FeeRate


@dataclass(frozen=True)
class Static:
    """One fee, never changed."""

    fee: FeeRate


@dataclass(frozen=True)
class Dynamic:
    """Every `step` blocks the fee of a pending transaction is multiplied
    by `beta` (rounded half up to 0.01 sat/vByte), so fees grow
    exponentially until confirmation."""

    initial_fee: FeeRate
    step: int
    beta: float

    def __post_init__(self):
        if self.step < 1:
            raise ValueError("step must be >= 1")
        if not (math.isfinite(self.beta) and self.beta > 1):
            raise ValueError("beta must be finite and > 1")


FeeStrategy = Static | Dynamic


def initial_fee(strategy: FeeStrategy) -> FeeRate:
    return strategy.fee if isinstance(strategy, Static) else strategy.initial_fee
