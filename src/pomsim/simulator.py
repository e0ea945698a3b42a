"""Seeded discrete-event loop for the mining network.

Each step draws a block solve time, picks a winner proportional to
hashrate, credits the scheduled reward scaled by proof-of-mining
participation, retargets difficulty, and lets every agent re-decide
whether to keep mining.  A run is strictly sequential and bit-identical
for a given (config, seed).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

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


@dataclass
class BlockRecord:
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

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class RunSeries:
    config_digest: str
    records: list[BlockRecord]
    summary: RunSummary


@dataclass
class NetworkState:
    """Mutable per-run state: clock, controller, and population arrays."""

    height: int
    clock: float
    retarget_state: RetargetState
    r_max: float
    ids: list[str]
    hashrate: np.ndarray
    on_cost: np.ndarray  # margin_on * unit_cost * hashrate, hourly
    off_cost: np.ndarray  # margin_off * unit_cost * hashrate, hourly
    is_large: np.ndarray
    active: np.ndarray
    dwell: np.ndarray
    duty_on: np.ndarray
    duty_off: np.ndarray
    hist: np.ndarray  # bool, (pom window, n agents), circular
    hist_count: np.ndarray
    hist_pos: int
    blocks_seen: int
    kappa: float  # solve-rate constant, resolved once per run
    has_duty: bool


def _available(state: NetworkState) -> np.ndarray:
    """Miners able to mine this block: `state.active` itself if nobody has a duty cycle."""
    if not state.has_duty:
        return state.active
    duty = state.duty_on > 0
    period = state.duty_on + state.duty_off
    phase = state.height % np.maximum(period, 1)
    return state.active & ~(duty & (phase >= state.duty_on))


def _decide_all(
    state: NetworkState,
    config: SimConfig,
    rng: np.random.Generator,
    block_reward: float,
    price: float,
    total_hash: float,
) -> None:
    """`agents.decide_all` over the whole population, then the dwell jitter.

    Inactive miners evaluate the revenue they would earn after joining
    (their hashrate added to the total), so an empty network can restart.
    A flipped miner's dwell counter re-arms to `dwell + U[0, dwell)`.
    """
    h = state.hashrate
    prospective = np.where(state.active, max(total_hash, 1e-300), total_hash + h)
    rev = revenue_rate(h, prospective, block_reward, price, config.retarget.target_interval)
    flips = decide_all(state.active, state.dwell, rev, state.on_cost, state.off_cost)
    n_flips = np.count_nonzero(flips)
    base = config.economics.dwell
    if n_flips and base > 0:  # with no dwell a flipped miner's counter stays at 0
        state.dwell[flips] = base + rng.integers(0, base, n_flips)


def step(
    state: NetworkState, config: SimConfig, rng: np.random.Generator
) -> tuple[NetworkState, BlockRecord]:
    """Produce one block, updating state in place.

    If no miner is available the step advances time in stall quanta,
    decaying difficulty and re-running decisions until someone re-enters.
    """
    price = config.price.at(state.height)

    avail = _available(state)
    total = float(np.add.reduce(state.hashrate[avail]))
    stalls = 0
    while total <= 0.0:
        stalls += 1
        if stalls > _MAX_STALL_QUANTA:
            raise InternalError(
                f"network stalled: no miner re-entered within {_MAX_STALL_QUANTA} quanta "
                f"at height {state.height}, clock {state.clock!r} s, difficulty "
                f"{state.retarget_state.current_difficulty!r}, price {price!r}; "
                f"{np.count_nonzero(state.active & ~avail)} active miner(s) "
                "held off only by their duty phase"
            )
        rt = state.retarget_state
        quantum = rt.target_interval * rt.clamp
        state.clock += quantum
        state.retarget_state = retarget(rt, quantum)
        d = state.retarget_state.current_difficulty
        r = _block_reward(config, d, state.r_max)
        _decide_all(state, config, rng, r, price, 0.0)
        avail = _available(state)
        total = float(np.add.reduce(state.hashrate[avail]))

    d = max(state.retarget_state.current_difficulty, config.difficulty_map.floor)
    interval = float(rng.exponential(d / (state.kappa * total)))
    state.clock += interval

    # winner proportional to available hashrate
    u = rng.random() * total
    cum = (state.hashrate * avail).cumsum()
    widx = int(cum.searchsorted(u, "right"))
    if widx == len(cum):  # u is past cum[-1] by rounding: take the last available miner
        widx = int(cum.searchsorted(cum[-1]))

    raw = _block_reward(config, d, state.r_max)
    mult = pom_credit(state.hist_count[widx], state.blocks_seen, config.pom)
    credited = raw * mult

    large_avail = avail & state.is_large
    record = BlockRecord(
        height=state.height,
        timestamp=state.clock,
        difficulty=d,
        total_hash=total,
        winner=state.ids[widx],
        raw_reward=raw,
        pom_multiplier=mult,
        credited_reward=credited,
        active_miner_count=int(np.count_nonzero(avail)),
        large_miner_share=float(np.add.reduce(state.hashrate[large_avail])) / total,
    )

    # participation history (circular buffer over the PoM window)
    state.hist_count -= state.hist[state.hist_pos]
    state.hist[state.hist_pos] = avail
    state.hist_count += avail
    state.hist_pos = (state.hist_pos + 1) % config.pom.window
    state.blocks_seen += 1

    state.retarget_state = retarget(state.retarget_state, interval)
    _decide_all(state, config, rng, raw, price, total)
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
    is_large = hashrate > config.large_threshold
    active = np.array([m.active for m in agents])
    duty_on = np.array([m.duty[0] if m.duty else 0 for m in agents], dtype=int)
    duty_off = np.array([m.duty[1] if m.duty else 0 for m in agents], dtype=int)
    base_dwell = config.economics.dwell
    if base_dwell > 0:
        dwell = np.asarray(rng.integers(0, base_dwell, n), dtype=int)  # staggered start
    else:
        dwell = np.zeros(n, dtype=int)
    _, r_max = schedule_max(config.schedule)
    h0 = float(hashrate[active].sum())
    d0 = hash_to_difficulty(h0, config.difficulty_map) if h0 > 0 else config.difficulty_map.floor
    rt = RetargetState(
        **vars(config.retarget),
        current_difficulty=d0,
        ema_interval=config.retarget.target_interval,
        floor=config.difficulty_map.floor,
    )
    return NetworkState(
        height=0,
        clock=0.0,
        retarget_state=rt,
        r_max=r_max,
        ids=[m.id for m in agents],
        hashrate=hashrate,
        on_cost=config.economics.margin_on * (unit_cost * hashrate),
        off_cost=config.economics.margin_off * (unit_cost * hashrate),
        is_large=is_large,
        active=active,
        dwell=dwell,
        duty_on=duty_on,
        duty_off=duty_off,
        hist=np.zeros((config.pom.window, n), dtype=bool),
        hist_count=np.zeros(n, dtype=int),
        hist_pos=0,
        blocks_seen=0,
        kappa=config.resolved_rate_constant(),
        has_duty=bool((duty_on > 0).any()),
    )


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
    stats = equilibrium_summary(records, burn_in).to_dict() if records else {}
    summary = RunSummary(
        initial_hashrate=h0,
        initial_large_share=share0,
        r_max=state.r_max,
        burn_in=burn_in,
        **stats,
    )
    return RunSeries(config_digest=config.digest(), records=records, summary=summary)


CSV_HEADER = [
    "height",
    "timestamp",
    "difficulty",
    "total_hash",
    "winner",
    "raw_reward",
    "pom_multiplier",
    "credited_reward",
    "active_miner_count",
    "large_miner_share",
]


def write_series_csv(series: RunSeries, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        for r in series.records:
            w.writerow(
                [
                    r.height,
                    repr(r.timestamp),
                    repr(r.difficulty),
                    repr(r.total_hash),
                    r.winner,
                    repr(r.raw_reward),
                    repr(r.pom_multiplier),
                    repr(r.credited_reward),
                    r.active_miner_count,
                    repr(r.large_miner_share),
                ]
            )


def read_series_csv(path) -> list[BlockRecord]:
    records = []
    with open(path, newline="") as f:
        rd = csv.reader(f)
        header = next(rd, None)
        if header != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header in {path}")
        try:
            for row in rd:
                records.append(
                    BlockRecord(
                        height=int(row[0]),
                        timestamp=float(row[1]),
                        difficulty=float(row[2]),
                        total_hash=float(row[3]),
                        winner=row[4],
                        raw_reward=float(row[5]),
                        pom_multiplier=float(row[6]),
                        credited_reward=float(row[7]),
                        active_miner_count=int(row[8]),
                        large_miner_share=float(row[9]),
                    )
                )
        except (ValueError, IndexError) as exc:  # a truncated or garbled row
            raise ConfigError(f"{path}, line {rd.line_num}: bad row ({exc})") from exc
    return records
