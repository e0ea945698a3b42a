"""Miner population: heterogeneous rigs, entry/exit economics, PoM credit.

Agents switch between active and inactive by comparing expected revenue to
operating cost through a hysteresis band, with a dwell time so a single
noisy block cannot flap them.  The proof-of-mining credit scales a winner's
reward by its recent participation.  Each rule is written once
(`revenue_rate`, `flips`, `pom_credit`); the simulator applies them to the
population and the scalar forms to one `MinerAgent`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Optional

import numpy as np

from .errors import InternalError, ParameterError


@dataclass(frozen=True)
class PomCredit:
    """Participation-credit rule: full credit needs `required` active blocks
    out of the trailing `window`."""

    window: int = 50
    required: int = 40

    def __post_init__(self):
        if not (0 < self.required <= self.window):
            raise ParameterError(
                f"need 0 < required <= window, got required={self.required} window={self.window}"
            )


@dataclass(frozen=True)
class EconomicsConfig:
    """Entry/exit rule: a miner enters when revenue reaches `margin_on` times
    its cost and leaves below `margin_off` times it; a flip holds the new
    state for at least `dwell` blocks."""

    margin_on: float = 1.1
    margin_off: float = 0.9
    dwell: int = 30

    def __post_init__(self):
        if not (self.margin_off <= 1.0 <= self.margin_on):
            raise ParameterError(
                f"need margin_off <= 1 <= margin_on, got {self.margin_off}, {self.margin_on}"
            )
        if self.dwell < 0:
            raise ParameterError(f"dwell must be nonnegative, got {self.dwell}")


_CSV_UNSAFE = frozenset(',"\r\n')


@dataclass
class MinerAgent:
    id: str
    hashrate: float
    unit_cost: float
    active: bool = True
    dwell_remaining: int = 0
    # forced (on_blocks, off_blocks) duty cycle; None means always available
    duty: Optional[tuple[int, int]] = None
    history: deque = field(default_factory=deque)

    def __post_init__(self):
        # `blocks.csv` writes ids unquoted
        if not isinstance(self.id, str) or not _CSV_UNSAFE.isdisjoint(self.id):
            raise ParameterError(f"id must be a string without , \" CR or LF, got {self.id!r}")
        # finite, so each miner's cost / hashrate keeps its place in the kernel's sorted lists
        if not (0.0 < self.hashrate < math.inf):
            raise ParameterError(f"hashrate must be positive and finite, got {self.hashrate}")
        if not (0.0 <= self.unit_cost < math.inf):
            raise ParameterError(f"unit_cost must be nonnegative and finite, got {self.unit_cost}")
        if self.dwell_remaining < 0:
            raise ParameterError(f"dwell_remaining must be nonnegative, got {self.dwell_remaining}")
        if self.duty is not None and not (self.duty[0] >= 1 and self.duty[1] >= 0):
            raise ParameterError(f"duty needs on >= 1 and off >= 0 blocks, got {list(self.duty)}")


def revenue_rate(hashrate, total_hash, block_reward, price, target_interval):
    """Expected currency earned per hour at a share `hashrate / total_hash`."""
    return (hashrate / total_hash) * block_reward * price * (3600.0 / target_interval)


def flips(active: bool, revenue: float, on_cost: float, off_cost: float) -> bool:
    """The entry/exit rule for a miner out of its dwell: an active miner turns
    off at revenue < `off_cost`, an inactive one on at revenue >= `on_cost`.
    The caller keeps the dwell."""
    return revenue < off_cost if active else revenue >= on_cost


def pom_credit(active_blocks, blocks_seen: int, credit: PomCredit) -> float:
    """Reward multiplier in [0, 1] from `active_blocks` of the trailing window;
    full until a whole window has been seen (no penalty for pre-history)."""
    if blocks_seen < credit.window:
        return 1.0
    return min(1.0, float(active_blocks) / credit.required)


def expected_revenue_rate(
    m: MinerAgent,
    total_hash: float,
    block_reward: float,
    price: float,
    target_interval: float,
) -> float:
    """Expected currency earned per hour at the miner's share of the network:
    for an inactive miner, the share it would hold after joining, as the
    simulator judges it, so on an empty network that share is 1."""
    if m.active and total_hash <= 0.0:
        raise InternalError("active miner with zero network hashrate")
    joined = total_hash if m.active else m.hashrate + total_hash
    return revenue_rate(m.hashrate, joined, block_reward, price, target_interval)


def decide(
    m: MinerAgent,
    revenue_rate: float,
    margin_on: float = EconomicsConfig.margin_on,
    margin_off: float = EconomicsConfig.margin_off,
    dwell: int = EconomicsConfig.dwell,
) -> MinerAgent:
    """`flips` for one miner, with its dwell countdown; returns the updated agent.

    A flip re-arms the dwell counter to exactly `dwell`: there is no
    generator here, so this is the low end of the simulator's
    `dwell + U[0, dwell)` re-arm.
    """
    EconomicsConfig(margin_on, margin_off, dwell)  # validates the arguments
    cost = m.unit_cost * m.hashrate
    left = m.dwell_remaining
    if left == 0 and flips(m.active, revenue_rate, margin_on * cost, margin_off * cost):
        return replace(m, active=not m.active, dwell_remaining=dwell)
    return replace(m, dwell_remaining=max(left - 1, 0))  # the countdown of a miner in its dwell


def pom_multiplier(m: MinerAgent, c: PomCredit) -> float:
    """`pom_credit` over the miner's history, oldest first; a history shorter
    than the window earns full credit, as in the simulator's warm-up."""
    recent = islice(reversed(m.history), c.window)  # the last window, not the whole history
    return pom_credit(sum(map(bool, recent)), len(m.history), c)


@dataclass(frozen=True)
class PopulationSpec:
    """Two-class miner population; ranges are uniform (lo, hi) draws.

    Defaults put roughly 115 MHash/s on the network at genesis with just
    under half of it held by miners above 5 MHash/s.
    """

    n_small: int = 58
    n_large: int = 4
    small_hash: tuple[float, float] = (0.1, 2.0)
    large_hash: tuple[float, float] = (5.0, 24.0)
    small_cost: tuple[float, float] = (0.3, 1.2)
    large_cost: tuple[float, float] = (0.6, 2.2)

    def __post_init__(self):
        if self.n_small < 0 or self.n_large < 0:
            raise ParameterError("class counts must be nonnegative")
        if self.n_small + self.n_large == 0:
            raise ParameterError("population must contain at least one miner")
        for name in ("small_hash", "large_hash", "small_cost", "large_cost"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= hi):
                raise ParameterError(f"{name} range ({lo}, {hi}) is invalid")
        if self.small_hash[0] <= 0.0 and self.n_small > 0:
            raise ParameterError("small_hash lower bound must be positive")
        if self.large_hash[0] <= 0.0 and self.n_large > 0:
            raise ParameterError("large_hash lower bound must be positive")


def generate_population(spec: PopulationSpec, rng: np.random.Generator) -> list[MinerAgent]:
    """Draw the miner population from the seeded generator.

    Draw order (small hashrates, large hashrates, small costs, large costs)
    is part of the determinism contract.
    """
    hs = rng.uniform(*spec.small_hash, spec.n_small)
    hl = rng.uniform(*spec.large_hash, spec.n_large)
    cs = rng.uniform(*spec.small_cost, spec.n_small)
    cl = rng.uniform(*spec.large_cost, spec.n_large)
    return [
        MinerAgent(id=f"{prefix}{i:03d}", hashrate=float(h), unit_cost=float(c))
        for prefix, hashes, costs in (("s", hs, cs), ("l", hl, cl))
        for i, (h, c) in enumerate(zip(hashes, costs))
    ]

