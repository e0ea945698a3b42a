"""Seeded discrete-event loop for the mining network.

Each step draws a block solve time, picks a winner proportional to
hashrate, credits the scheduled reward scaled by proof-of-mining
participation, retargets difficulty, and lets every agent re-decide
whether to keep mining.  A run is strictly sequential and bit-identical
for a given (config, seed).

The kernel does work in proportion to what changed: the aggregates over
the available miners are taken again only when availability changes (a
flip or a duty-phase edge), the proof-of-mining credit is read from a log
of those changes, and a decision pass that can flip nobody is skipped.
"""

from __future__ import annotations

import csv
import math
import operator
import os
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, get_type_hints

import numpy as np

from .agents import flips, generate_population, pom_credit, revenue_rate
# the config dataclasses (EconomicsConfig from `agents`, RetargetConfig from
# `difficulty`) are re-exported here for callers that import them from here
from .config import EconomicsConfig, PricePath, RetargetConfig, SimConfig  # noqa: F401
from .difficulty import hash_to_difficulty
from .difficulty import retarget_step as retarget  # by this name perfbench traces the step
from .errors import ConfigError, InternalError
from .metrics import EquilibriumSummary, equilibrium_summary
from .reward_curve import RewardScheduleParams, find_peak, reward

_MAX_STALL_QUANTA = 100_000
_BATCH = 4096  # values per refill of each of the run's random streams


def _batches(draw):
    """The values of `draw(_BATCH)`, batch after batch: numpy gives the same values,
    in the same order, as that many scalar draws."""
    while True:
        yield from draw(_BATCH).tolist()


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
        self._dwell = dwell
        self._ahead, self._at = [], 0  # jitter drawn ahead, and the first value not yet taken

    def jitter(self, n: int) -> list[int]:
        """n values of U[0, dwell); none drawn when dwell is 0."""
        ahead, i = self._ahead, self._at
        if i + n > len(ahead):
            if self._dwell == 0:
                return [0] * n
            ahead, i = ahead[i:], 0
            while len(ahead) < n:
                ahead += self._jitters.integers(0, self._dwell, _BATCH).tolist()
            self._ahead = ahead
        self._at = i + n
        return ahead[i : i + n]


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
    interval's EMA).  After each block and stall quantum `retarget_step` takes
    the EMA of the interval, then moves difficulty by target / EMA, clamped
    to [1 / clamp, clamp] and floored at `floor`.

    Availability (`avail`) and the aggregates taken over it are taken anew,
    in one step by `_refresh`, at one point: the top of `step`'s stall loop,
    once the height reaches `refresh_at` (the next duty-phase edge, or the
    height of a flip).  The availability log holds counts only.  The
    aggregates are taken over the available miners only (`idx`): `cum[k]`,
    the sequential sum of the first k + 1 of their hashrates, is the dense
    `(hashrate * avail).cumsum()` at `idx[k]`, bit for bit, since adding a
    zero changes no sum.
    A miner's dwell is the decision pass from which it may flip again; `due`
    maps each such pass still to come to its miners.  The miners out of their
    dwell sit in two lists ordered by their fixed keys: `ready_active` by
    off_cost / hashrate, `ready_inactive` by on_cost / hashrate.  A miner is
    in those lists, and in `due`, by its entry
    `(key, index, hashrate, on_cost, off_cost, active)`: `active_entry[i]`
    while it is active, `inactive_entry[i]` while it is not.
    """

    height: int
    clock: float
    difficulty: float = field(init=False)  # at genesis, from the first refresh's total
    ema: float
    floor: float
    r_max: float
    ids: list[str]
    hashrate: np.ndarray
    is_large: np.ndarray
    active: np.ndarray
    active_entry: list[tuple]  # each miner's place in `ready_active`
    inactive_entry: list[tuple]  # each miner's place in `ready_inactive`
    ready_active: list[tuple]
    ready_inactive: list[tuple]
    due: defaultdict[int, list[tuple]]  # decision pass -> the miners whose dwell ends at it
    exact_totals: tuple[float, float]  # the totals at which the candidate test is exact
    passes: int  # decision passes run so far, stall quanta included
    duty_on: np.ndarray
    duty_off: np.ndarray
    kappa: float  # solve-rate constant, resolved once per run
    has_duty: bool
    avail: np.ndarray = field(init=False)  # availability at `height`; a new array on each refresh
    refresh_at: float = field(init=False)  # height from which `avail` is out of date
    total: float = field(init=False)  # pairwise sum of the available hashrates
    idx: np.ndarray = field(init=False)  # the available miners, ascending; len() is their count
    cum: np.ndarray = field(init=False)  # cumsum of their hashrates, for the winner draw
    large_share: float = field(init=False)  # share of `total` held by large miners
    # availability log, one epoch per height at which availability was taken
    # anew: the height it starts at and each miner's available blocks before it;
    # the last epoch's availability is `avail`.  Epoch starts strictly increase
    epoch_start: list[int]
    epoch_count: list[np.ndarray]


def _refresh(state: NetworkState, window: int) -> None:
    """Take availability at `state.height` anew, with its aggregates and `refresh_at`.

    At a new height it opens a log epoch and drops the epochs that ended before
    the last `window` blocks; at the open epoch's start (genesis, a stall
    quantum), which holds no block yet, it replaces that epoch's availability.
    """
    h, b = state.hashrate, state.height
    if state.has_duty:
        on, duty = state.duty_on, state.duty_on > 0
        period = on + state.duty_off
        phase = b % np.maximum(period, 1)
        avail = state.active & ~(duty & (phase >= on))
        to_edge = np.where(phase < on, on - phase, period - phase)
        state.refresh_at = b + int(to_edge[duty].min())
    else:
        avail = state.active.copy()
        state.refresh_at = math.inf
    idx = avail.nonzero()[0]
    ha = h[idx]
    total = float(np.add.reduce(ha))
    large = float(np.add.reduce(ha[state.is_large[idx]]))
    starts, counts = state.epoch_start, state.epoch_count
    if b > starts[-1]:
        counts.append(counts[-1] + state.avail * (b - starts[-1]))
        old = bisect_right(starts, b - window) - 1
        if old > 0:
            del starts[:old], counts[:old]
        starts.append(b)
    state.avail = avail
    state.total = total
    state.idx = idx
    state.cum = ha.cumsum()
    state.large_share = large / total if total > 0.0 else 0.0


def _window_count(state: NetworkState, i: int, window: int) -> int:
    """Blocks among the last `window` before this one in which miner `i` was available."""
    starts, counts, b = state.epoch_start, state.epoch_count, state.height
    lo = b - window if b > window else 0
    if starts[-1] <= lo:  # one availability over the whole window
        return (b - lo) * bool(state.avail[i])
    e = bisect_right(starts, lo) - 1  # the epoch that holds block `lo`
    was_avail = int(counts[e + 1][i] - counts[e][i]) // (starts[e + 1] - starts[e])
    return (
        int(counts[-1][i] - counts[e][i])
        + (b - starts[-1]) * bool(state.avail[i])
        - (lo - starts[e]) * was_avail
    )


_MARGIN = 1e-9  # relative slack of the candidate test, far above revenue_rate's rounding
# with every share and 1 / total within 2**±200 (`NetworkState.exact_totals`), the
# reward, reward * price and reward * price * 3600 / T within these keep each
# product in a revenue and in x within 2**±1000, in the normal range
_RATE_MIN, _RATE_MAX = 2.0**-800, 2.0**800
_INDEX = operator.itemgetter(1)  # a ready-list entry's miner
_ON_COST = operator.itemgetter(3)  # and its on_cost


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
    share after joining is below hashrate / total.)

    The margin covers the rounding only while no product in a revenue or in
    x leaves the normal range, so the test runs only at the totals in
    `state.exact_totals` and while the reward is 0 or the reward,
    reward * price and reward * price * 3600 / T lie within 2**-800..2**800
    (see `_RATE_MIN`).  Otherwise, and in a stall quantum, every ready active
    miner is judged, and the ready inactive ones unless even the lowest
    on_cost among them is above revenue_rate(1, 1, ...): a share is at most
    1, so no inactive miner earns more (in a stall, with the total at 0,
    each earns exactly that).
    """
    p = state.passes
    state.passes = p + 1
    on, off = state.ready_active, state.ready_inactive
    for e in state.due.pop(p, ()):  # the miners whose dwell ends here
        insort(on if e[5] else off, e)
    t = config.retarget.target_interval
    lo_total, hi_total = state.exact_totals
    rp = block_reward * price
    rate = rp * (3600.0 / t)
    exact = block_reward == 0.0 or (  # a zero reward makes every revenue and x exactly 0
        _RATE_MIN <= block_reward <= _RATE_MAX
        and _RATE_MIN <= rp <= _RATE_MAX
        and _RATE_MIN <= rate <= _RATE_MAX
    )
    if exact and lo_total <= total_hash <= hi_total:
        x = rate / total_hash
        lo, hi = x * (1.0 - _MARGIN), x * (1.0 + _MARGIN)
        if (not on or on[-1][0] < lo) and (not off or off[0][0] > hi):
            return
        j = bisect_left(on, (lo,))
        m = bisect_right(on, (hi, math.inf))
        k = bisect_right(off, (hi, math.inf))
    else:  # a stall, or magnitudes at which rounding may leave the margin
        j, m = 0, len(on)
        # an inactive miner's share h / (h + total) is at most 1
        top = revenue_rate(1.0, 1.0, block_reward, price, t)
        k = len(off) if off and min(map(_ON_COST, off)) <= top else 0
    total = max(total_hash, 1e-300)
    leave, stay = on[m:], []  # above x * (1 + margin) an active miner leaves for certain
    for e in on[j:m]:
        rev = revenue_rate(e[2], total, block_reward, price, t)
        (leave if flips(True, rev, e[3], e[4]) else stay).append(e)
    enter, wait = [], []
    for e in off[:k]:
        rev = revenue_rate(e[2], e[2] + total_hash, block_reward, price, t)
        (enter if flips(False, rev, e[3], e[4]) else wait).append(e)
    if not leave and not enter:
        return
    on[j:], off[:k] = stay, wait
    state.refresh_at = state.height
    # each flipped miner's entry in the list it goes back to, in index order
    inactive, active = state.inactive_entry, state.active_entry
    back = [inactive[e[1]] for e in leave]
    back += [active[e[1]] for e in enter]
    back.sort(key=_INDEX)
    act = state.active
    for e in back:
        act[e[1]] = e[5]
    _arm(state.due, back, p + 1 + config.economics.dwell, draws.jitter)


def _arm(due: defaultdict, entries: list, first: int, jitter: Callable[[int], list[int]]) -> None:
    """Re-arm `entries`, in order: each may flip again from pass first + U[0, dwell),
    the n offsets drawn by `jitter(n)`."""
    for e, j in zip(entries, jitter(len(entries))):
        due[first + j].append(e)


def step(state: NetworkState, config: SimConfig, draws: Draws) -> tuple[NetworkState, BlockRecord]:
    """Produce one block, updating state in place.

    Draws, in order: in each stall quantum and after the block, the dwell
    jitter of the miners the decision pass flipped (`draws.jitter`); for the
    block, its interval (`draws.interval`, scaled by d / (kappa * total)), then
    its winner (`draws.uniform`).  A source with these three methods may stand
    in for `Draws`.

    If no miner is available the step advances time in stall quanta,
    decaying difficulty and re-running decisions until someone re-enters.
    """
    price = config.price.at(state.height)
    window = config.pom.window
    rc = config.retarget
    stalls = 0
    while True:
        if state.height >= state.refresh_at:
            _refresh(state, window)
        if state.total > 0.0:
            break
        stalls += 1
        if stalls > _MAX_STALL_QUANTA:
            raise InternalError(
                f"network stalled: no miner re-entered within {_MAX_STALL_QUANTA} quanta "
                f"at height {state.height}, clock {state.clock!r} s, difficulty "
                f"{state.difficulty!r}, price {price!r}; "
                f"{np.count_nonzero(state.active & ~state.avail)} active miner(s) "
                "held off only by their duty phase"
            )
        quantum = rc.target_interval * rc.clamp
        state.clock += quantum
        d, state.ema = retarget(rc, state.floor, state.difficulty, state.ema, quantum)
        state.difficulty = d
        r = _block_reward(config, d, state.r_max)
        _decision_pass(state, config, draws, r, price, 0.0)
    total = state.total

    d = state.difficulty
    interval = draws.interval() * (d / (state.kappa * total))
    if not state.clock + interval > state.clock:
        raise InternalError(
            f"block interval {interval!r} s does not advance the clock {state.clock!r} s "
            f"at height {state.height}"
        )
    state.clock += interval

    # winner proportional to available hashrate
    u = draws.uniform() * total
    cum = state.cum
    k = cum.searchsorted(u, "right")
    if k == len(cum):  # u is past cum[-1] by rounding: take the last available miner
        k = cum.searchsorted(cum[-1])
    widx = int(state.idx[k])

    raw = _block_reward(config, d, state.r_max)
    mult = pom_credit(_window_count(state, widx, window), state.height, config.pom)
    record = BlockRecord(
        state.height, state.clock, d, total, state.ids[widx],
        raw, mult, raw * mult, len(state.idx), state.large_share,
    )  # built positionally, at about half the cost of a keyword call

    state.difficulty, state.ema = retarget(rc, state.floor, d, state.ema, interval)
    _decision_pass(state, config, draws, raw, price, total)
    state.height += 1
    return state, record


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
    active = np.array([m.active for m in agents])
    duty_on = np.array([m.duty[0] if m.duty else 0 for m in agents], dtype=int)
    duty_off = np.array([m.duty[1] if m.duty else 0 for m in agents], dtype=int)
    _, r_max = schedule_max(config.schedule)
    on_cost = (config.economics.margin_on * (unit_cost * hashrate)).tolist()
    off_cost = (config.economics.margin_off * (unit_cost * hashrate)).tolist()
    miners = list(zip(range(n), hashrate.tolist(), on_cost, off_cost))
    active_entry = [(c_off / h, i, h, c_on, c_off, True) for i, h, c_on, c_off in miners]
    inactive_entry = [(c_on / h, i, h, c_on, c_off, False) for i, h, c_on, c_off in miners]
    # a total within this keeps each share h / total and h / (h + total), and
    # 1 / total, within 2**±200 (see `_decision_pass`)
    h_lo, h_hi = float(hashrate.min()), float(hashrate.max())
    exact_totals = (max(1.0, h_hi) * 2.0**-200, min(2.0**200, h_lo * 2.0**199))
    state = NetworkState(
        height=0,
        clock=0.0,
        r_max=r_max,
        ids=[m.id for m in agents],
        hashrate=hashrate,
        is_large=hashrate > config.large_threshold,
        active=active,
        active_entry=active_entry,
        inactive_entry=inactive_entry,
        ready_active=[],
        ready_inactive=[],
        due=defaultdict(list),
        exact_totals=exact_totals,
        passes=0,
        duty_on=duty_on,
        duty_off=duty_off,
        kappa=config.resolved_rate_constant(),
        has_duty=bool((duty_on > 0).any()),
        ema=config.retarget.target_interval,
        floor=config.difficulty_map.floor,
        epoch_start=[0],  # the first epoch opens at genesis
        epoch_count=[np.zeros(n, dtype=int)],
    )
    # staggered start: every miner goes through the re-arm rule from pass 0,
    # its jitter drawn from `rng` in one call
    entries = [active_entry[i] if on else inactive_entry[i] for i, on in enumerate(active)]
    dwell = config.economics.dwell
    _arm(state.due, entries, 0, lambda n: rng.integers(0, dwell, n).tolist() if dwell else [0] * n)
    _refresh(state, config.pom.window)
    h0 = state.total  # at height 0 the available miners are the active ones
    state.difficulty = hash_to_difficulty(h0, config.difficulty_map) if h0 > 0 else state.floor
    return state


def run(config: SimConfig) -> RunSeries:
    """Execute the configured horizon from genesis; deterministic per seed."""
    state = initial_state(config, np.random.default_rng(config.seed))
    h0, large0 = state.total, state.large_share  # the genesis refresh's
    draws = Draws(config.seed, config.economics.dwell)

    records: list[BlockRecord] = []
    for _ in range(config.horizon):
        state, rec = step(state, config, draws)
        records.append(rec)

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
        if next(rd, None) != list(BlockRecord._fields):
            raise ConfigError(f"unexpected CSV header in {path}")
        records = []
        try:
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
        except ValueError as exc:  # a short, long, garbled or NaN row
            raise ConfigError(f"{path}, line {rd.line_num}: bad row ({exc})") from exc
    with open(path, "rb") as f:  # the writer ends every row with a line terminator
        f.seek(-1, os.SEEK_END)
        if f.read(1) != b"\n":
            raise ConfigError(f"{path}, line {rd.line_num}: no line terminator (truncated file)")
    return records
