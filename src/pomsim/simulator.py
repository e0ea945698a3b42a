"""Seeded discrete-event loop for the mining network.

Each step draws a block solve time, picks a winner proportional to
hashrate, credits the scheduled reward scaled by proof-of-mining
participation, retargets difficulty, and lets every agent re-decide
whether to keep mining.  A run is strictly sequential and bit-identical
for a given (config, seed).

The kernel does work in proportion to what changed: the aggregates over
the available miners are taken again only when availability changes (a
flip, or a phase edge of a miner whose duty cycle has an off-phase), and
the large miners' sum only when the set of available large miners does; the
proof-of-mining credit is counted from each miner's own list of the heights
at which it flipped, and a decision pass that can flip nobody is skipped.
"""

from __future__ import annotations

import csv
import math
import operator
import os
from array import array
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, islice, repeat
from typing import NamedTuple, get_type_hints

import numpy as np

from .agents import flips, generate_population, pom_credit, revenue_rate
from .config import SimConfig
from .difficulty import hash_to_difficulty, retarget
from .errors import ConfigError, InternalError
from .metrics import EquilibriumSummary, equilibrium_summary
from .reward_curve import RewardScheduleParams, find_peak, reward

_MAX_STALL_QUANTA = 100_000
_BATCH = 4096  # values per refill of each of the run's random streams


def _batches(draw):
    """The values of `draw(_BATCH)`, batch after batch: numpy gives the same values,
    in the same order, as that many scalar draws."""
    return chain.from_iterable(map(np.ndarray.tolist, map(draw, repeat(_BATCH))))


class Draws:
    """The kernel's random draws, one stream per purpose, each drawn ahead.

    Block intervals, winner draws and dwell jitter each come from a child of
    `SeedSequence(seed).spawn(3)`, in that order.  The population and the
    staggered start come from `default_rng(seed)` in `initial_state`.
    """

    def __init__(self, seed: int, dwell: int):
        children = np.random.SeedSequence(seed).spawn(3)
        intervals, winners, self._jitters = map(np.random.default_rng, children)
        self.interval = partial(next, _batches(intervals.standard_exponential))  # Exp(1)
        self.uniform = partial(next, _batches(winners.random))  # U[0, 1)
        self._offsets = _batches(partial(self._jitters.integers, 0, dwell)) if dwell else repeat(0)

    def jitter(self, n: int) -> list[int]:
        """n values of U[0, dwell); none drawn when dwell is 0."""
        return list(islice(self._offsets, n))


class BlockRecord(NamedTuple):
    """One block; its fields, in order, are the `blocks.csv` columns."""

    height: int
    timestamp: float
    difficulty: float
    total_hash: float
    winner: str
    raw_reward: float
    pom_multiplier: float
    credited_reward: float
    active_miner_count: int
    large_miner_share: float


@dataclass(frozen=True, kw_only=True)
class RunSummary(EquilibriumSummary):
    """A run's equilibrium summary plus its genesis figures and peak reward."""

    initial_hashrate: float
    initial_large_share: float
    r_max: float


@dataclass
class RunSeries:
    config_digest: str
    records: list[BlockRecord]
    summary: RunSummary


@dataclass(slots=True)
class NetworkState:
    """Mutable per-run state: clock, controller, population arrays, and the
    kernel's event bookkeeping.  It holds no generator: `step` takes its
    draws from a `Draws`, one stream per purpose.

    The controller's state is two floats, `difficulty` and `ema` (the block
    interval's EMA).  After each block and stall quantum `retarget` takes
    the EMA of the interval, then moves difficulty by target / EMA, clamped
    to [1 / clamp, clamp] and floored at `floor`.

    Availability is held in one form, `idx`: the available miners, ascending.
    It and the aggregates over it are taken anew, in one step by `_refresh`,
    at one point: the top of `step`'s stall loop, once the height reaches
    `refresh_at` (the next phase edge of a cycling miner, or the height of a
    flip).  `cum[k]`, the sequential sum of the first k + 1 available
    hashrates, is the dense cumsum of the hashrates with the unavailable ones
    zeroed at `idx[k]`, bit for bit, since adding a zero changes no sum.  That
    one sum is the network total, `cum[-1]`.  Both are taken with numpy and held
    as `array.array` copies, which `step` bisects for the winner with no numpy
    call.  The large miners' sum runs over the available ones among `large`
    alone, in index order: the same bits as that cumsum with every other
    hashrate zeroed.  It is kept, as `large_sum` with its mask's bytes as
    `large_key`, until a refresh's mask differs; a deep copy carries both.
    The proof-of-mining credit is counted from `toggles`: each miner's
    ascending heights at which its active status changed, so an odd count
    means active (a miner active at genesis starts at `[0]`).  A flip takes
    effect at `height` (a block's pass runs after the height has moved past
    the block); it cancels a toggle already there and is appended otherwise,
    and an append past `_KEEP` drops the list's on/off pairs that no window
    still to come reaches.  Duty phases are not recorded: a miner cycles iff
    its duty cycle has an off-phase, and with `cycles[i]` = (on, period) it is
    available at height h if it is active there and h % period < on.
    A miner's dwell is the decision pass from which it may flip again; `due`
    maps each such pass still to come to its miners.  The miners out of their
    dwell sit in two lists: `ready_active` ordered by off_cost / hashrate,
    `ready_inactive` by on_cost / hashrate.  Each miner has one fixed entry
    `(off_cost / hashrate, on_cost / hashrate, index, hashrate, on_cost,
    off_cost)`, held in one of the two lists or in `due`; a flip moves it to
    `due`.  Its state is held once, as a byte in `flags`, which the decision
    pass reads and writes as a Python int; `active` is a numpy bool view of the
    same memory, which `_refresh` reads; a deep copy must re-view its `flags`.
    The flag picks the list that a miner coming out of its dwell goes to,
    unless the pass flips it at once.
    """

    height: int
    clock: float
    difficulty: float = field(init=False)  # at genesis, from the first refresh's total
    ema: float
    floor: float
    r_max: float
    ids: list[str]
    hashrate: np.ndarray
    large: tuple[np.ndarray, np.ndarray]  # the large miners' index and hashrate arrays
    flags: bytearray  # per miner, 1 if active: what the decision pass reads and writes
    active: np.ndarray  # `flags` as a numpy bool array, the same memory
    ready_active: list[tuple]
    ready_inactive: list[tuple]
    due: defaultdict[int, list[tuple]]  # decision pass -> the miners whose dwell ends at it
    exact_totals: tuple[float, float]  # the totals at which the candidate test is exact
    passes: int  # decision passes run so far, stall quanta included
    kappa: float  # solve-rate constant, resolved once per run
    refresh_at: float = field(init=False)  # height from which `idx` is out of date
    total: float = field(init=False)  # the available hashrate, `cum[-1]` (0 if none)
    idx: array = field(init=False)  # the available miners, ascending; len() is their count
    cum: array = field(init=False)  # sequential cumsum of their hashrates, in index order ("d")
    large_share: float = field(init=False)  # share of `total` held by large miners
    large_key: bytes = field(init=False, default=b"")  # the large miners' mask at the last sum
    large_sum: float = field(init=False, default=0.0)  # their available hashrate, summed for it
    toggles: list[list[int]]  # per miner, the heights at which its active status changed
    cycles: list[tuple[int, int] | None]  # per miner, (on, on + off) if it cycles, else None
    cycling: tuple[np.ndarray, ...]  # the cycling miners' index, on and period, int64 arrays


_KEEP = 32  # toggles a miner's list may hold before an append compacts it


def _refresh(state: NetworkState) -> None:
    """Take availability at `state.height` anew, with its aggregates and `refresh_at`.

    `idx` and `cum` are typed-array copies of numpy's results, two copies each
    (`tobytes()`, then the `array`), so that `step` reads them as Python scalars.
    The total is `cum[-1]`.  The large miners' sum is taken over the large miners
    alone, which gives the bits of the sum over all of them with the others
    zeroed, so it is at most the total; it is taken again only when their mask,
    duty phases applied, differs from `large_key`, and divided by each new total.
    """
    b = state.height
    avail = state.active
    state.refresh_at = math.inf
    i, on, period = state.cycling
    if len(i):  # skipped with no cycling miner: on empty arrays it doubles a refresh's cost
        phase = b % period
        live = phase < on  # in the on-phase
        avail = avail.copy()
        avail[i] &= live
        state.refresh_at = b + int((np.where(live, on, period) - phase).min())
    idx = avail.nonzero()[0]
    cum = np.add.accumulate(state.hashrate[idx])
    state.idx = array(idx.dtype.char, idx.tobytes())
    state.cum = cum = array("d", cum.tobytes())
    state.total = total = cum[-1] if cum else 0.0
    large_idx, large_h = state.large
    mask = avail[large_idx]
    key = mask.tobytes()
    if key != state.large_key:  # the available large miners changed: sum them again
        large = np.add.accumulate(large_h[mask])
        state.large_key, state.large_sum = key, float(large[-1]) if len(large) else 0.0
    state.large_share = state.large_sum / total if total else 0.0


def _on_blocks(t: int, on: int, period: int) -> int:
    """Heights below t in the on-phase of a duty cycle: those h with h % period < on."""
    return t // period * on + min(t % period, on)


def _window_count(state: NetworkState, i: int, window: int) -> int:
    """Blocks among the last `window` before this one in which miner `i` was available.

    Each active span in [lo, b) counts its end less its start: the off toggles
    after lo less the on toggles after lo, plus b if the miner is active now,
    less lo if it was active at lo.  For a cycling miner a height h stands for the
    on-phase heights below it, `_on_blocks(h, ...)`.
    """
    b = state.height
    lo = b - window if b > window else 0
    t, cycle = state.toggles[i], state.cycles[i]
    if cycle is None and t and t[-1] <= lo:  # one active status over the whole window
        return (b - lo) * (len(t) & 1)
    k = bisect_right(t, lo)  # the toggles at or before lo; an odd count: active at lo
    ons, offs = t[k + (k & 1) :: 2], t[k | 1 :: 2]  # t[0] is an on toggle
    now, was = len(t) & 1, k & 1
    if cycle is not None:
        f = partial(_on_blocks, on=cycle[0], period=cycle[1])
        b, lo, ons, offs = f(b), f(lo), map(f, ons), map(f, offs)
    return sum(offs) - sum(ons) + b * now - lo * was


_MARGIN = 1e-9  # relative slack of the candidate test, far above revenue_rate's rounding
# with every share and 1 / total within 2**±200 (`NetworkState.exact_totals`), the
# reward, reward * price and reward * price * 3600 / T within these keep each
# product in a revenue and in x within 2**±1000, in the normal range
_RATE_MIN, _RATE_MAX = 2.0**-800, 2.0**800
# a miner's entry: its ready_active key, its ready_inactive key, index, hashrate,
# on_cost and off_cost
_OFF_KEY, _ON_KEY, _INDEX, _ON_COST = map(operator.itemgetter, (0, 1, 2, 4))


def _decision_pass(
    state: NetworkState,
    config: SimConfig,
    draws: Draws,
    block_reward: float,
    price: float,
    total_hash: float,
) -> None:
    """One entry/exit pass: `agents.flips` over the ready miners, then the dwell jitter.

    Inactive miners evaluate the revenue they would earn after joining
    (their hashrate added to the total), so an empty network can restart.
    A miner that flips at pass p is re-armed (`_arm`) from pass p + 1 + dwell.

    With x = block_reward * price * 3600 / (T * total), an active miner earns
    hashrate * x and an inactive one at most that, up to rounding.  So only an
    active miner with off_cost / hashrate >= x * (1 - margin) or an inactive
    one with on_cost / hashrate <= x * (1 + margin) can flip: the top of
    `ready_active` and the bottom of `ready_inactive`, found by bisection.
    By the same margin an active miner with off_cost / hashrate above
    x * (1 + margin) earns less than its off_cost and leaves for certain, so
    a third bisection takes those as one slice, unjudged.  Only the active
    miners with keys within x * (1 ± margin) and the inactive ones up to
    x * (1 + margin) are judged.  (No entry is certain: an inactive miner's
    share after joining is below hashrate / total.)  A miner whose dwell
    ends at this pass takes the same test on its own key before it is filed:
    an active one above the band leaves unjudged, one that can flip is
    judged at once, and only one that cannot flip, or that stays, goes into
    its list by `insort`.

    The margin covers the rounding only while no product in a revenue or in
    x leaves the normal range, so the test runs only at the totals in
    `state.exact_totals` and while the reward is 0 or the reward,
    reward * price and reward * price * 3600 / T lie within 2**-800..2**800
    (see `_RATE_MIN`).  Otherwise, and in a stall quantum, every ready or
    expiring active miner is judged.  A share is at most 1, so no inactive
    miner earns more than `rate` = revenue_rate(1, 1, ...) (in a stall, with
    the total at 0, each earns exactly that): an expiring inactive one is
    judged only if its on_cost is at most `rate`, and outside the exact test
    the ready ones only if the lowest on_cost among them is.

    The flipped miners, in index order, are re-armed; then one loop flips each
    one's byte flag and stores its toggle by `NetworkState`'s one rule.
    """
    p = state.passes
    state.passes = p + 1
    on, off = state.ready_active, state.ready_inactive
    expiring = state.due.pop(p, ())  # the miners whose dwell ends here
    t = config.retarget.target_interval
    lo_total, hi_total = state.exact_totals
    rp = block_reward * price
    rate = revenue_rate(1.0, 1.0, block_reward, price, t)
    # a zero reward makes every revenue and x exactly 0.  The branch below flips the same
    # miners, but past the cliff the reward underflows to 0 in a sixth of a 2,000-miner
    # run's passes, and judging every ready miner there costs the run about 9% (ROADMAP)
    exact = block_reward == 0.0 or (
        _RATE_MIN <= block_reward <= _RATE_MAX
        and _RATE_MIN <= rp <= _RATE_MAX
        and _RATE_MIN <= rate <= _RATE_MAX
    )
    if exact and lo_total <= total_hash <= hi_total:
        x = rate / total_hash
        lo, hi = x * (1.0 - _MARGIN), x * (1.0 + _MARGIN)
        if not expiring and (not on or on[-1][0] < lo) and (not off or off[0][1] > hi):
            return
        j = bisect_left(on, lo, key=_OFF_KEY)
        m = bisect_right(on, hi, key=_OFF_KEY)
        k = bisect_right(off, hi, key=_ON_KEY)
    else:  # a stall, or magnitudes at which rounding may leave the margin
        lo, hi = -math.inf, math.inf  # every expiring active miner is judged
        j, m = 0, len(on)
        k = len(off) if off and min(map(_ON_COST, off)) <= rate else 0
    total = 1e-300 if 1e-300 > total_hash else total_hash  # max(total_hash, 1e-300)
    leave, stay = on[m:], []  # above x * (1 + margin) an active miner leaves for certain
    for e in on[j:m]:
        rev = revenue_rate(e[3], total, block_reward, price, t)
        (leave if flips(True, rev, e[4], e[5]) else stay).append(e)
    enter, wait = [], []
    for e in off[:k]:
        rev = revenue_rate(e[3], e[3] + total_hash, block_reward, price, t)
        (enter if flips(False, rev, e[4], e[5]) else wait).append(e)
    if leave or enter:
        on[j:], off[:k] = stay, wait
    flags = state.flags
    for e in expiring:  # the lists' test on the miner's own key, then its list
        h = e[3]
        if flags[e[2]]:
            if e[0] > hi or e[0] >= lo and flips(
                True, revenue_rate(h, total, block_reward, price, t), e[4], e[5]
            ):
                leave.append(e)
            else:
                insort(on, e, key=_OFF_KEY)
        elif e[1] <= hi and e[4] <= rate and flips(
            False, revenue_rate(h, h + total_hash, block_reward, price, t), e[4], e[5]
        ):
            enter.append(e)
        else:
            insort(off, e, key=_ON_KEY)
    if not leave and not enter:
        return
    at = state.refresh_at = state.height
    back = sorted(leave + enter, key=_INDEX)  # the flipped miners, in index order
    toggles, lo = state.toggles, at - config.pom.window
    _arm(state.due, back, p + 1 + config.economics.dwell, draws.jitter(len(back)))
    for e in back:
        i = e[2]
        flags[i] ^= 1
        t = toggles[i]
        if t and t[-1] == at:
            t.pop()
        else:
            t.append(at)
            if len(t) > _KEEP:  # drop the on/off pairs ending by lo, before every window
                del t[: bisect_right(t, lo) & ~1]


def _arm(due: defaultdict, entries: list, first: int, offsets) -> None:
    """Re-arm `entries`, in order: each may flip again from pass first + its offset,
    a value of U[0, dwell)."""
    for e, j in zip(entries, offsets):
        due[first + j].append(e)


def step(state: NetworkState, config: SimConfig, draws: Draws) -> BlockRecord:
    """Produce one block, updating state in place, and return its record.

    Draws, in order: in each stall quantum and after the block, the dwell
    jitter of the miners the decision pass flipped (`draws.jitter`); for the
    block, its interval (`draws.interval`, scaled by d / (kappa * total)), then
    its winner (`draws.uniform`).  The winner is the available miner at
    `bisect_right(cum, U * total)`, drawn with no numpy call.

    If no miner is available the step advances time in stall quanta,
    decaying difficulty and re-running decisions until someone re-enters.
    """
    price = config.price.at(state.height)
    rc = config.retarget
    stalls = 0
    while True:
        if state.height >= state.refresh_at:
            _refresh(state)
        if state.total > 0.0:
            break
        stalls += 1
        if stalls > _MAX_STALL_QUANTA:
            held = np.count_nonzero(state.active)  # none is available
            why = f"{held} active miner(s) held off only by their duty phase"
            if not held:  # each miner, inactive, would hold the whole network
                r = _block_reward(config, state.difficulty, state.r_max)
                lone = revenue_rate(1.0, 1.0, r, price, rc.target_interval)
                cheapest = min(map(_ON_COST, chain(state.ready_inactive, *state.due.values())))
                why = (f"no miner is active: reward {r!r}, a lone miner earns {lone!r}, "
                       f"cheapest on-cost {cheapest!r}")
            raise InternalError(
                f"network stalled: no miner re-entered within {_MAX_STALL_QUANTA} quanta "
                f"at height {state.height}, clock {state.clock!r} s, difficulty "
                f"{state.difficulty!r}, price {price!r}; {why}"
            )
        quantum = rc.target_interval * rc.clamp
        state.clock += quantum
        d, state.ema = retarget(rc, state.floor, state.difficulty, state.ema, quantum)
        state.difficulty = d
        r = _block_reward(config, d, state.r_max)
        _decision_pass(state, config, draws, r, price, 0.0)
    total = state.total

    d = state.difficulty
    rate = state.kappa * total  # 0 if the product underflows: the interval is inf
    interval = draws.interval() * (d / rate) if rate else math.inf
    if not state.clock < state.clock + interval < math.inf:
        raise InternalError(
            f"block interval {interval!r} s does not advance the clock {state.clock!r} s "
            f"at height {state.height}"
        )
    state.clock += interval

    # winner proportional to available hashrate
    u = draws.uniform() * total
    cum = state.cum
    k = bisect_right(cum, u)
    if k == len(cum):  # u == total only at a total <= 2**-1022 or a stand-in source's U = 1.0
        k = bisect_left(cum, total)  # the last available miner
    widx = state.idx[k]

    raw = _block_reward(config, d, state.r_max)
    mult = pom_credit(_window_count(state, widx, config.pom.window), state.height, config.pom)
    record = BlockRecord(
        state.height, state.clock, d, total, state.ids[widx],
        raw, mult, raw * mult, len(state.idx), state.large_share,
    )  # built positionally, at about half the cost of a keyword call

    state.difficulty, state.ema = retarget(rc, state.floor, d, state.ema, interval)
    state.height += 1  # the pass's flips take effect from the next block on
    _decision_pass(state, config, draws, raw, price, total)
    return record


def _block_reward(config: SimConfig, d: float, r_max: float) -> float:
    if config.constant_reward:
        return r_max
    return reward(d, config.schedule)


def schedule_max(schedule: RewardScheduleParams) -> tuple[float, float]:
    """Peak (d_star, r_max) of a schedule over its peak bracket (`find_peak`)."""
    return find_peak(schedule)


def initial_state(config: SimConfig, rng: np.random.Generator) -> NetworkState:
    """The genesis state; `rng` (`default_rng(seed)` in `run`) draws the population
    and the staggered start, and nothing after."""
    if config.explicit_population is not None:
        agents = config.explicit_population
    else:
        agents = generate_population(config.population, rng)
    n = len(agents)
    hashrate = np.array([m.hashrate for m in agents])
    unit_cost = np.array([m.unit_cost for m in agents])
    flags = bytearray(m.active for m in agents)
    # a miner cycles iff its duty cycle has an off-phase: (on, 0) is always on
    cycles = [(m.duty[0], sum(m.duty)) if m.duty and m.duty[1] else None for m in agents]
    cycling = np.array([(i, *c) for i, c in enumerate(cycles) if c], np.int64).reshape(-1, 3)
    _, r_max = schedule_max(config.schedule)
    on_cost, off_cost = map(np.ndarray.tolist, config.economics.costs(unit_cost, hashrate))
    entries = [
        (c_off / h, c_on / h, i, h, c_on, c_off)
        for i, h, c_on, c_off in zip(range(n), hashrate.tolist(), on_cost, off_cost)
    ]
    # a total within this keeps each share h / total and h / (h + total), and
    # 1 / total, within 2**±200 (see `_decision_pass`)
    h_lo, h_hi = float(hashrate.min()), float(hashrate.max())
    exact_totals = (max(1.0, h_hi) * 2.0**-200, min(2.0**200, h_lo * 2.0**199))
    large = np.flatnonzero(hashrate > config.large_threshold)
    state = NetworkState(
        height=0,
        clock=0.0,
        r_max=r_max,
        ids=[m.id for m in agents],
        hashrate=hashrate,
        large=(large, hashrate[large]),
        flags=flags,
        active=np.frombuffer(flags, np.bool_),
        ready_active=[],
        ready_inactive=[],
        due=defaultdict(list),
        exact_totals=exact_totals,
        passes=0,
        kappa=config.resolved_rate_constant(),
        ema=config.retarget.target_interval,
        floor=config.difficulty_map.floor,
        toggles=[[0] if a else [] for a in flags],
        cycles=cycles,
        cycling=tuple(cycling.T.copy()),
    )
    # staggered start: every miner goes through the re-arm rule from pass 0,
    # its jitter drawn from `rng` in one call
    dwell = config.economics.dwell
    _arm(state.due, entries, 0, rng.integers(0, dwell, n).tolist() if dwell else repeat(0))
    _refresh(state)
    # at height 0 the available miners are the active ones; the map floors its own value
    state.difficulty = hash_to_difficulty(state.total, config.difficulty_map)
    return state


def run(config: SimConfig) -> RunSeries:
    """Execute the configured horizon from genesis; deterministic per seed."""
    state = initial_state(config, np.random.default_rng(config.seed))
    h0, large0 = state.total, state.large_share  # the genesis refresh's
    draws = Draws(config.seed, config.economics.dwell)

    records = [step(state, config, draws) for _ in range(config.horizon)]
    eq = equilibrium_summary(records) if records else EquilibriumSummary(burn_in=0)
    summary = RunSummary(
        **vars(eq),
        initial_hashrate=h0,
        initial_large_share=large0,
        r_max=state.r_max,
    )
    return RunSeries(config_digest=config.digest(), records=records, summary=summary)


def write_rows(f, header, rows) -> None:
    """Write a CSV table: the header, then `str()` of each field of each tuple row,
    as `csv.writer` writes them (a float is its repr).  Unquoted, since no field
    can need quoting: numbers never do, and `MinerAgent` rejects an id that would."""
    row = ",".join(["%s"] * len(header)) + "\r\n"
    f.write(",".join(header) + "\r\n")
    f.writelines(map(row.__mod__, rows))


def write_series_csv(series: RunSeries, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        write_rows(f, BlockRecord._fields, series.records)


def read_series_csv(path) -> list[BlockRecord]:
    types = get_type_hints(BlockRecord).values()
    n = len(types)
    floats = operator.itemgetter(*[i for i, t in enumerate(types) if t is float])
    with open(path, newline="", encoding="utf-8") as f:
        rd = csv.reader(f)
        records = []
        try:
            if next(rd, None) != list(BlockRecord._fields):
                raise ConfigError(f"unexpected CSV header in {path}")
            for row in rd:
                if len(row) != n:
                    raise ValueError(f"{len(row)} fields, expected {n}")
                rec = BlockRecord._make(map(operator.call, types, row))
                # the sum is NaN if a field is, or if +inf and -inf meet
                if math.isnan(sum(floats(rec))):
                    nan = [k for k, v in zip(BlockRecord._fields, rec) if v != v]
                    if nan:
                        raise ValueError(f"{nan[0]} is nan")
                records.append(rec)
        except ConfigError:
            raise
        except UnicodeDecodeError as exc:  # decoded a chunk ahead of the reader: at no known line
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc
        except (ValueError, csv.Error) as exc:  # a short, long, garbled, NaN or oversized row
            raise ConfigError(f"{path}, line {rd.line_num}: bad row ({exc})") from exc
    with open(path, "rb") as f:  # the writer ends every row with a line terminator
        f.seek(-1, os.SEEK_END)
        if f.read(1) != b"\n":
            raise ConfigError(f"{path}, line {rd.line_num}: no line terminator (truncated file)")
    return records
