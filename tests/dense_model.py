"""A dense reference model of `pomsim.simulator.run`: the kernel's rules, none of its bookkeeping.

No ready lists, dwell queue, toggle lists, refresh height or candidate bounds: each
pass judges every miner out of its dwell, availability and its zero-padded sums are
taken afresh at every stall-loop iteration, and the credit counts every block's kept
availability.  Built from the package's rules and `Draws` alone, it must give `run()`'s
`blocks.csv` bytes for any config, and end in the error type that `run()` ends in.
"""

import math
from dataclasses import dataclass

import numpy as np

from pomsim.agents import flips, generate_population, pom_credit, revenue_rate
from pomsim.difficulty import hash_to_difficulty, retarget
from pomsim.errors import InternalError
from pomsim.reward_curve import find_peak, reward
from pomsim.simulator import BlockRecord, Draws


@dataclass
class Population:
    """What a decision pass reads and writes: per miner, its hashrate, costs,
    active flag and `ready`, the first pass at which it may flip."""

    hashrate: list[float]
    on_cost: list[float]
    off_cost: list[float]
    active: list[bool]
    ready: list[int]
    dwell: int
    target_interval: float
    passes: int = 0  # passes run so far, stall quanta included


def decision_pass(pop: Population, draws, block_reward, price, total) -> list[int]:
    """`flips` for every miner out of its dwell: an active one earns its share of the
    total, an inactive one its share after joining.  The flipped miners, in index
    order, each draw a jitter j and may flip again from pass p + 1 + dwell + j."""
    p = pop.passes
    pop.passes += 1
    flipped = []
    for i, h in enumerate(pop.hashrate):
        if pop.ready[i] <= p:
            share_of = max(total, 1e-300) if pop.active[i] else h + total
            rev = revenue_rate(h, share_of, block_reward, price, pop.target_interval)
            if flips(pop.active[i], rev, pop.on_cost[i], pop.off_cost[i]):
                flipped.append(i)
    for i, j in zip(flipped, draws.jitter(len(flipped))):
        pop.active[i] = not pop.active[i]
        pop.ready[i] = p + 1 + pop.dwell + j
    return flipped


def blocks(config, max_stall_quanta=100_000):
    """The records of `run(config)`, block by block."""
    rng = np.random.default_rng(config.seed)  # the population, then the staggered start
    agents = config.explicit_population or generate_population(config.population, rng)
    econ, rc, floor = config.economics, config.retarget, config.difficulty_map.floor
    n, dwell = len(agents), econ.dwell
    on_cost, off_cost = zip(*(econ.costs(m.unit_cost, m.hashrate) for m in agents))
    pop = Population(
        [m.hashrate for m in agents], list(on_cost), list(off_cost), [m.active for m in agents],
        rng.integers(0, dwell, n).tolist() if dwell else [0] * n, dwell, rc.target_interval,
    )
    h = np.array(pop.hashrate)
    large = h > config.large_threshold
    on, off = np.array([m.duty or (1, 0) for m in agents]).T

    def available(height):
        """Active, and in the on-phase of its duty cycle if it has one."""
        return np.array(pop.active) & (height % (on + off) < on)

    def padded_cumsum(mask):
        """The sequential sums of the hashrates, with those outside `mask` zeroed."""
        return np.where(mask, h, 0.0).cumsum()

    r_max = find_peak(config.schedule)[1]

    def block_reward(d):
        return r_max if config.constant_reward else reward(d, config.schedule)

    h0 = float(padded_cumsum(available(0))[-1])
    d = hash_to_difficulty(h0, config.difficulty_map)
    clock, ema, kappa = 0.0, rc.target_interval, config.resolved_rate_constant()
    draws, seen = Draws(config.seed, dwell), []  # seen: each block's availability
    for height in range(config.horizon):
        price = config.price.at(height)
        for stalls in range(max_stall_quanta + 1):
            avail = available(height)
            cum = padded_cumsum(avail)
            if cum[-1] > 0.0:
                break
            if stalls == max_stall_quanta:
                raise InternalError(f"network stalled at height {height}")
            clock += rc.target_interval * rc.clamp
            d, ema = retarget(rc, floor, d, ema, rc.target_interval * rc.clamp)
            decision_pass(pop, draws, block_reward(d), price, 0.0)
        total = float(cum[-1])
        rate = kappa * total  # 0 if the product underflows: the interval is inf
        interval = draws.interval() * (d / rate) if rate else math.inf
        if not clock < clock + interval < math.inf:
            raise InternalError(f"block interval {interval!r} s does not advance the clock")
        clock += interval
        w = cum.searchsorted(draws.uniform() * total, "right")
        if w == n:  # the draw rounded up to the total: the last available miner
            w = cum.searchsorted(total)
        assert avail[w], "the winner is an available miner"
        raw = block_reward(d)
        mult = pom_credit(sum(int(a[w]) for a in seen[-config.pom.window:]), height, config.pom)
        seen.append(avail)
        large_share = float(padded_cumsum(avail & large)[-1]) / total
        record = BlockRecord(height, clock, d, total, agents[w].id, raw, mult, raw * mult,
                             int(np.count_nonzero(avail)), large_share)
        d, ema = retarget(rc, floor, d, ema, interval)
        decision_pass(pop, draws, raw, price, total)
        yield record
