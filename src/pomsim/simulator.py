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
from bisect import bisect_right
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional, get_type_hints

import numpy as np

from .agents import decide_all, generate_population, pom_credit, revenue_rate
# the config dataclasses (EconomicsConfig from `agents`, RetargetConfig from
# `difficulty`) are re-exported here for callers that import them from here
from .config import EconomicsConfig, PricePath, RetargetConfig, SimConfig  # noqa: F401
from .difficulty import RetargetState, hash_to_difficulty, retarget
from .errors import ConfigError, InternalError
from .metrics import equilibrium_summary
from .reward_curve import RewardScheduleParams, find_peak, reward

_MAX_STALL_QUANTA = 100_000


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


@dataclass
class RunSummary:
    initial_hashrate: float
    initial_large_share: float
    r_max: float
    burn_in: int
    mean_hashrate: Optional[float] = None
    std_hashrate: Optional[float] = None
    mean_interval: Optional[float] = None
    std_interval: Optional[float] = None
    mean_share: Optional[float] = None
    std_share: Optional[float] = None


@dataclass
class RunSeries:
    config_digest: str
    records: list[BlockRecord]
    summary: RunSummary


@dataclass(slots=True)
class NetworkState:
    """Mutable per-run state: clock, controller, population arrays, and the
    kernel's event bookkeeping.

    Availability (`avail`) and the aggregates taken over it are kept until an
    event changes them: a flip (`stale`) or a duty-phase edge (`next_edge`).
    A miner's dwell is the decision pass from which it may flip again
    (`ready_at`); `pending` holds those passes still to come, so a pass at
    which some dwell expires is found in O(1).
    """

    height: int
    clock: float
    retarget_state: RetargetState
    r_max: float
    ids: list[str]
    hashrate: np.ndarray
    on_cost: np.ndarray  # margin_on * unit_cost * hashrate, hourly
    off_cost: np.ndarray  # margin_off * unit_cost * hashrate, hourly
    on_key: np.ndarray  # on_cost / hashrate
    off_key: np.ndarray  # off_cost / hashrate
    is_large: np.ndarray
    active: np.ndarray
    ready_at: np.ndarray  # first decision pass at which each miner may flip
    pending: set[int]  # the ready_at passes not yet reached
    passes: int  # decision passes run so far, stall quanta included
    flipped: bool  # the last decision pass flipped someone
    bounds: Optional[tuple[float, float]]  # skip window for x; None when stale
    duty_on: np.ndarray
    duty_off: np.ndarray
    next_edge: float  # next height at which a duty phase turns; inf without duty
    kappa: float  # solve-rate constant, resolved once per run
    has_duty: bool
    avail: np.ndarray  # availability at `height`; a new array on each refresh
    stale: bool  # a flip happened since `avail` was taken
    total: float  # pairwise sum of the available hashrates
    cum: Optional[np.ndarray]  # cumsum for the winner draw; None until taken for `avail`
    count: int  # available miners
    large_share: float  # share of `total` held by large miners
    # availability log, one epoch per refresh that reached a block: the height
    # it starts at, its availability, and each miner's available blocks before it
    epoch_start: list[int]
    epoch_avail: list[np.ndarray]
    epoch_count: list[np.ndarray]


def _available(state: NetworkState) -> np.ndarray:
    """Miners able to mine at `state.height`, as a new array."""
    if not state.has_duty:
        return state.active.copy()
    duty = state.duty_on > 0
    period = state.duty_on + state.duty_off
    phase = state.height % np.maximum(period, 1)
    return state.active & ~(duty & (phase >= state.duty_on))


def _next_edge(state: NetworkState) -> float:
    """The first height after `state.height` at which some duty phase turns."""
    if not state.has_duty:
        return math.inf
    duty = state.duty_on > 0
    on = state.duty_on[duty]
    period = on + state.duty_off[duty]
    phase = state.height % period
    return state.height + int(np.where(phase < on, on - phase, period - phase).min())


def _refresh(state: NetworkState) -> None:
    """Take availability anew, with the network total over it."""
    state.avail = _available(state)
    state.total = float(np.add.reduce(state.hashrate[state.avail]))
    state.cum = None
    state.stale = False


def _aggregate(state: NetworkState, window: int) -> None:
    """The block aggregates of a new availability, which opens a log epoch.

    Epochs that ended before the last `window` blocks are dropped.
    """
    avail, h, b = state.avail, state.hashrate, state.height
    state.cum = (h * avail).cumsum()
    state.count = int(np.count_nonzero(avail))
    state.large_share = float(np.add.reduce(h[avail & state.is_large])) / state.total
    starts, avails, counts = state.epoch_start, state.epoch_avail, state.epoch_count
    counts.append(counts[-1] + avails[-1] * (b - starts[-1]))
    old = bisect_right(starts, b - window) - 1
    if old > 0:
        del starts[:old], avails[:old], counts[:old]
    starts.append(b)
    avails.append(avail)


def _window_count(state: NetworkState, i: int, window: int) -> int:
    """Blocks among the last `window` before this one in which miner `i` was available."""
    starts, b = state.epoch_start, state.height
    lo = b - window if b > window else 0
    if starts[-1] <= lo:  # one availability over the whole window
        return (b - lo) * bool(state.avail[i])
    e = bisect_right(starts, lo) - 1  # the epoch that holds block `lo`
    counts, avails = state.epoch_count, state.epoch_avail
    return (
        int(counts[-1][i] - counts[e][i])
        + (b - starts[-1]) * bool(avails[-1][i])
        - (lo - starts[e]) * bool(avails[e][i])
    )


_MARGIN = 1e-9  # relative slack of the skip test, far above revenue_rate's rounding


def _bounds(state: NetworkState, p: int) -> tuple[float, float]:
    """The window of x in which no ready miner flips at pass `p`."""
    ready = state.ready_at <= p
    lo = state.off_key[ready & state.active].max(initial=-np.inf)
    hi = state.on_key[ready & ~state.active].min(initial=np.inf)
    return float(lo) * (1.0 + _MARGIN), float(hi) * (1.0 - _MARGIN)


def _decision_pass(
    state: NetworkState,
    config: SimConfig,
    rng: np.random.Generator,
    block_reward: float,
    price: float,
    total_hash: float,
) -> None:
    """One entry/exit pass: `agents.decide_all` over the ready miners, then the dwell jitter.

    Inactive miners evaluate the revenue they would earn after joining
    (their hashrate added to the total), so an empty network can restart.
    A miner that flips at pass p may flip again from pass
    p + 1 + dwell + U[0, dwell).

    With x = block_reward * price * 3600 / (T * total), an active miner earns
    hashrate * x and an inactive one at most that, up to rounding.  So while
    x lies inside `_bounds`, nobody flips and the pass is skipped.  The bounds
    hold until a dwell expires or someone flips: a pass with an expiry, the
    pass after a flip and every stall quantum run in full.
    """
    p = state.passes
    state.passes = p + 1
    if p in state.pending:
        state.pending.discard(p)
        state.bounds = None
    elif total_hash > 0.0 and not state.flipped:
        if state.bounds is None:
            state.bounds = _bounds(state, p)
        lo, hi = state.bounds
        t = config.retarget.target_interval
        if lo < block_reward * price * (3600.0 / t) / total_hash < hi:
            return
    h = state.hashrate
    prospective = h + total_hash
    prospective[state.active] = max(total_hash, 1e-300)
    rev = revenue_rate(h, prospective, block_reward, price, config.retarget.target_interval)
    flips = decide_all(state.active, state.ready_at <= p, rev, state.on_cost, state.off_cost)
    n_flips = np.count_nonzero(flips)
    state.flipped = n_flips > 0
    if not n_flips:
        return
    state.stale = True
    state.bounds = None
    base = config.economics.dwell
    if base > 0:  # with no dwell a flipped miner stays ready
        ready = p + 1 + base + rng.integers(0, base, n_flips)
        state.ready_at[flips] = ready
        state.pending.update(ready.tolist())


def step(
    state: NetworkState, config: SimConfig, rng: np.random.Generator
) -> tuple[NetworkState, BlockRecord]:
    """Produce one block, updating state in place.

    If no miner is available the step advances time in stall quanta,
    decaying difficulty and re-running decisions until someone re-enters.
    """
    price = config.price.at(state.height)
    if state.stale or state.height >= state.next_edge:
        _refresh(state)
        if state.height >= state.next_edge:
            state.next_edge = _next_edge(state)

    stalls = 0
    while state.total <= 0.0:
        stalls += 1
        if stalls > _MAX_STALL_QUANTA:
            raise InternalError(
                f"network stalled: no miner re-entered within {_MAX_STALL_QUANTA} quanta "
                f"at height {state.height}, clock {state.clock!r} s, difficulty "
                f"{state.retarget_state.current_difficulty!r}, price {price!r}; "
                f"{np.count_nonzero(state.active & ~state.avail)} active miner(s) "
                "held off only by their duty phase"
            )
        rt = state.retarget_state
        quantum = rt.target_interval * rt.clamp
        state.clock += quantum
        state.retarget_state = retarget(rt, quantum)
        d = state.retarget_state.current_difficulty
        r = _block_reward(config, d, state.r_max)
        _decision_pass(state, config, rng, r, price, 0.0)
        if state.stale:
            _refresh(state)
    total = state.total

    d = max(state.retarget_state.current_difficulty, config.difficulty_map.floor)
    interval = float(rng.exponential(d / (state.kappa * total)))
    state.clock += interval

    # winner proportional to available hashrate
    u = rng.random() * total
    if state.cum is None:
        _aggregate(state, config.pom.window)
    cum = state.cum
    widx = int(cum.searchsorted(u, "right"))
    if widx == len(cum):  # u is past cum[-1] by rounding: take the last available miner
        widx = int(cum.searchsorted(cum[-1]))

    raw = _block_reward(config, d, state.r_max)
    mult = pom_credit(_window_count(state, widx, config.pom.window), state.height, config.pom)
    record = BlockRecord(
        height=state.height,
        timestamp=state.clock,
        difficulty=d,
        total_hash=total,
        winner=state.ids[widx],
        raw_reward=raw,
        pom_multiplier=mult,
        credited_reward=raw * mult,
        active_miner_count=state.count,
        large_miner_share=state.large_share,
    )

    state.retarget_state = retarget(state.retarget_state, interval)
    _decision_pass(state, config, rng, raw, price, total)
    state.height += 1
    return state, record


def _block_reward(config: SimConfig, d: float, r_max: float) -> float:
    if config.constant_reward:
        return r_max
    return reward(d, config.schedule)


def schedule_max(schedule: RewardScheduleParams) -> tuple[float, float]:
    """Peak (d_star, r_max) of a schedule over its natural range."""
    hi = 20.0 / schedule.base.a
    if schedule.cutoff is not None:
        hi = min(hi, schedule.cutoff.d_co + 20.0 * schedule.cutoff.spread)
    return find_peak(schedule, 1e-12, hi)


def initial_state(config: SimConfig, rng: np.random.Generator) -> NetworkState:
    if config.explicit_population is not None:
        agents = config.explicit_population
    else:
        agents = generate_population(config.population, rng)
    n = len(agents)
    if n == 0:
        raise ConfigError("population: must contain at least one miner")
    hashrate = np.array([m.hashrate for m in agents])
    unit_cost = np.array([m.unit_cost for m in agents])
    active = np.array([m.active for m in agents])
    duty_on = np.array([m.duty[0] if m.duty else 0 for m in agents], dtype=int)
    duty_off = np.array([m.duty[1] if m.duty else 0 for m in agents], dtype=int)
    base_dwell = config.economics.dwell
    if base_dwell > 0:
        ready_at = np.asarray(rng.integers(0, base_dwell, n), dtype=int)  # staggered start
    else:
        ready_at = np.zeros(n, dtype=int)
    _, r_max = schedule_max(config.schedule)
    h0 = float(hashrate[active].sum())
    d0 = hash_to_difficulty(h0, config.difficulty_map) if h0 > 0 else config.difficulty_map.floor
    rt = RetargetState(
        **vars(config.retarget),
        current_difficulty=d0,
        ema_interval=config.retarget.target_interval,
        floor=config.difficulty_map.floor,
    )
    on_cost = config.economics.margin_on * (unit_cost * hashrate)
    off_cost = config.economics.margin_off * (unit_cost * hashrate)
    state = NetworkState(
        height=0,
        clock=0.0,
        retarget_state=rt,
        r_max=r_max,
        ids=[m.id for m in agents],
        hashrate=hashrate,
        on_cost=on_cost,
        off_cost=off_cost,
        on_key=on_cost / hashrate,
        off_key=off_cost / hashrate,
        is_large=hashrate > config.large_threshold,
        active=active,
        ready_at=ready_at,
        pending=set(ready_at.tolist()),
        passes=0,
        flipped=False,
        bounds=None,
        duty_on=duty_on,
        duty_off=duty_off,
        next_edge=math.inf,
        kappa=config.resolved_rate_constant(),
        has_duty=bool((duty_on > 0).any()),
        avail=active,
        stale=True,
        total=0.0,
        cum=None,
        count=0,
        large_share=0.0,
        epoch_start=[0],  # an empty epoch before the first block's
        epoch_avail=[np.zeros(n, dtype=bool)],
        epoch_count=[np.zeros(n, dtype=int)],
    )
    _refresh(state)
    state.next_edge = _next_edge(state)
    return state


def run(config: SimConfig) -> RunSeries:
    """Execute the configured horizon from genesis; deterministic per seed."""
    rng = np.random.default_rng(config.seed)
    state = initial_state(config, rng)
    h0 = float(state.hashrate[state.active].sum())
    large0 = float(state.hashrate[state.active & state.is_large].sum())
    share0 = large0 / h0 if h0 > 0 else 0.0

    records: list[BlockRecord] = []
    for _ in range(config.horizon):
        state, rec = step(state, config, rng)
        records.append(rec)

    burn_in = config.horizon // 5
    stats = asdict(equilibrium_summary(records, burn_in)) if records else {}
    summary = RunSummary(
        initial_hashrate=h0,
        initial_large_share=share0,
        r_max=state.r_max,
        burn_in=burn_in,
        **stats,
    )
    return RunSeries(config_digest=config.digest(), records=records, summary=summary)


# one `blocks.csv` row: `str()` of each field, as `csv.writer` writes it (a
# float is its repr), unquoted, since no field can need quoting (numbers never
# do, and `MinerAgent` rejects an id that would)
_ROW = ",".join(["%s"] * len(BlockRecord._fields)) + "\r\n"


def write_series_csv(series: RunSeries, path) -> None:
    with open(path, "w", newline="") as f:
        f.write(",".join(BlockRecord._fields) + "\r\n")
        f.writelines(map(_ROW.__mod__, series.records))


def read_series_csv(path) -> list[BlockRecord]:
    types = get_type_hints(BlockRecord).values()
    n = len(types)
    with open(path, newline="") as f:
        rd = csv.reader(f)
        if next(rd, None) != list(BlockRecord._fields):
            raise ConfigError(f"unexpected CSV header in {path}")
        records = []
        try:
            for row in rd:
                if len(row) != n:
                    raise ValueError(f"{len(row)} fields, expected {n}")
                records.append(BlockRecord._make(map(operator.call, types, row)))
        except ValueError as exc:  # a short, long or garbled row
            raise ConfigError(f"{path}, line {rd.line_num}: bad row ({exc})") from exc
    with open(path, "rb") as f:  # the writer ends every row with a line terminator
        f.seek(-1, os.SEEK_END)
        if f.read(1) != b"\n":
            raise ConfigError(f"{path}, line {rd.line_num}: no line terminator (truncated file)")
    return records
