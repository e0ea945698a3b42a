"""Miner population: heterogeneous rigs, entry/exit economics, PoM credit.

Agents switch between active and inactive by comparing expected revenue to
operating cost through a hysteresis band, with a dwell time so a single
noisy block cannot flap them.  The proof-of-mining credit scales a winner's
reward by its recent participation.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass, field, replace
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


@dataclass
class MinerAgent:
    id: str
    hashrate: float
    unit_cost: float
    active: bool = True
    dwell_remaining: int = 0
    miner_class: str = "small"
    # forced (on_blocks, off_blocks) duty cycle; None means always available
    duty: Optional[tuple[int, int]] = None
    history: deque = field(default_factory=lambda: deque(maxlen=50))

    def __post_init__(self):
        if not (self.hashrate > 0.0):
            raise ParameterError(f"hashrate must be positive, got {self.hashrate}")
        if self.unit_cost < 0.0:
            raise ParameterError(f"unit_cost must be nonnegative, got {self.unit_cost}")
        if self.dwell_remaining < 0:
            raise ParameterError(f"dwell_remaining must be nonnegative, got {self.dwell_remaining}")


def expected_revenue_rate(
    m: MinerAgent,
    total_hash: float,
    block_reward: float,
    price: float,
    target_interval: float,
) -> float:
    """Expected currency earned per hour at the miner's share of the network."""
    if total_hash <= 0.0:
        if m.active:
            raise InternalError("active miner with zero network hashrate")
        return 0.0
    return (m.hashrate / total_hash) * block_reward * price * (3600.0 / target_interval)


def decide(
    m: MinerAgent,
    revenue_rate: float,
    margin_on: float = 1.1,
    margin_off: float = 0.9,
    dwell: int = 30,
) -> MinerAgent:
    """One entry/exit decision; returns the updated agent.

    While dwell_remaining > 0 the agent only counts down.  Otherwise it
    turns on when revenue clears margin_on times cost and off when revenue
    drops under margin_off times cost; a flip re-arms the dwell counter.
    """
    if not (margin_off <= 1.0 <= margin_on):
        raise ParameterError(
            f"need margin_off <= 1 <= margin_on, got {margin_off}, {margin_on}"
        )
    if m.dwell_remaining > 0:
        return replace(m, dwell_remaining=m.dwell_remaining - 1)
    cost_rate = m.unit_cost * m.hashrate
    if not m.active and revenue_rate >= margin_on * cost_rate:
        return replace(m, active=True, dwell_remaining=dwell)
    if m.active and revenue_rate < margin_off * cost_rate:
        return replace(m, active=False, dwell_remaining=dwell)
    return m


def pom_multiplier(m: MinerAgent, c: PomCredit) -> float:
    """Reward multiplier in [0, 1] from recent participation."""
    if not m.history:
        return 0.0
    recent = list(m.history)[-c.window:]
    active_blocks = sum(1 for flag in recent if flag)
    return min(1.0, active_blocks / c.required)


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
    agents = []
    for i in range(spec.n_small):
        agents.append(
            MinerAgent(
                id=f"s{i:03d}",
                hashrate=float(hs[i]),
                unit_cost=float(cs[i]),
                miner_class="small",
            )
        )
    for i in range(spec.n_large):
        agents.append(
            MinerAgent(
                id=f"l{i:03d}",
                hashrate=float(hl[i]),
                unit_cost=float(cl[i]),
                miner_class="large",
            )
        )
    return agents


def dump_population_csv(agents: list[MinerAgent], path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["id", "hashrate", "unit_cost", "class"])
        for m in agents:
            w.writerow([m.id, repr(m.hashrate), repr(m.unit_cost), m.miner_class])
