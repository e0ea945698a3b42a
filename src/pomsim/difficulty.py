"""Hashrate-to-difficulty map and per-block difficulty retargeting.

The map is affine and fitted (least squares) to anchor pairs taken from the
reference network; the retarget controller nudges difficulty so the
exponentially smoothed block interval tracks a target interval.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ParameterError

# (hashrate MHash/s, difficulty) anchor pairs for the reference network
DEFAULT_ANCHORS: tuple[tuple[float, float], ...] = (
    (40.0, 1.75),
    (51.0, 2.20),
    (55.0, 2.37),
)

MIN_DIFFICULTY = 1e-6


@dataclass(frozen=True)
class DifficultyMap:
    """Affine map from network hashrate (MHash/s) to difficulty."""

    slope: float
    intercept: float
    floor: float = MIN_DIFFICULTY

    def __post_init__(self):
        if not (self.slope > 0.0):
            raise ParameterError(f"slope must be positive, got {self.slope}")
        if not (self.floor > 0.0):
            raise ParameterError(f"floor must be positive, got {self.floor}")
        for h in (1.0, 200.0):
            if self.slope * h + self.intercept <= 0.0:
                raise ParameterError(
                    f"map must be positive over H in [1, 200]; fails at H={h}"
                )


def hash_to_difficulty(h: float, m: DifficultyMap) -> float:
    """Difficulty at network hashrate h, floored at the map's minimum."""
    if h < 0.0:
        raise DomainError(f"hashrate must be nonnegative, got {h}")
    return max(m.slope * h + m.intercept, m.floor)


def fit_difficulty_map(
    anchors: Iterable[Sequence[float]] = DEFAULT_ANCHORS, floor: float = MIN_DIFFICULTY
) -> DifficultyMap:
    """Least-squares affine fit through (hashrate, difficulty) anchor pairs."""
    pts = [(float(h), float(d)) for h, d in anchors]
    if len(pts) < 2:
        raise ParameterError("need at least two anchor pairs")
    hs = np.array([p[0] for p in pts])
    ds = np.array([p[1] for p in pts])
    design = np.vstack([hs, np.ones_like(hs)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, ds, rcond=None)
    return DifficultyMap(slope=float(slope), intercept=float(intercept), floor=floor)


@dataclass(frozen=True)
class RetargetConfig:
    """Retarget controller parameters: the EMA of block intervals tracks
    `target_interval`, and one step moves difficulty by at most `clamp`.

    The default smoothing and clamp keep the loop responsive without the
    overshoot that a large per-block clamp produces when the reward cliff
    makes the miner population swing hard.
    """

    target_interval: float = 120.0
    smoothing: float = 0.2
    clamp: float = 1.25

    def __post_init__(self):
        if not (self.target_interval > 0.0):
            raise ParameterError(f"target_interval must be positive, got {self.target_interval}")
        if not (0.0 < self.smoothing <= 1.0):
            raise ParameterError(f"smoothing must be in (0, 1], got {self.smoothing}")
        if not (self.clamp > 1.0):
            raise ParameterError(f"clamp must exceed 1, got {self.clamp}")


@dataclass(frozen=True, kw_only=True)
class RetargetState(RetargetConfig):
    """Difficulty controller state; updated by a pure transition per block."""

    current_difficulty: float
    ema_interval: float
    floor: float = MIN_DIFFICULTY

    def __post_init__(self):
        if not (self.current_difficulty > 0.0):
            raise ParameterError(f"difficulty must be positive, got {self.current_difficulty}")
        if not (self.ema_interval > 0.0):
            raise ParameterError(f"ema_interval must be positive, got {self.ema_interval}")
        super().__post_init__()


def retarget_step(
    rc: RetargetConfig, floor: float, d: float, ema: float, observed: float
) -> tuple[float, float]:
    """One controller step: the new (difficulty, interval EMA) after an observed interval."""
    if not (observed > 0.0):
        raise DomainError(f"observed interval must be positive, got {observed}")
    ema = rc.smoothing * observed + (1.0 - rc.smoothing) * ema
    ratio = min(max(rc.target_interval / ema, 1.0 / rc.clamp), rc.clamp)
    return max(d * ratio, floor), ema


def retarget(state: RetargetState, observed_interval: float) -> RetargetState:
    """One controller step from a freshly observed block interval (`retarget_step`)."""
    d, ema = state.current_difficulty, state.ema_interval
    d, ema = retarget_step(state, state.floor, d, ema, observed_interval)
    return replace(state, current_difficulty=d, ema_interval=ema)


def rate_constant_from_map(
    m: DifficultyMap, anchor_hashrate: float, target_interval: float
) -> float:
    """Solve-rate constant kappa making the map's anchor hit the target interval.

    With solve times exponential of mean D / (kappa * H), choosing
    kappa = D(anchor) / (anchor * target) makes a network at the anchor
    hashrate produce blocks at the target interval.
    """
    if not (anchor_hashrate > 0.0 and target_interval > 0.0):
        raise ParameterError("anchor hashrate and target interval must be positive")
    return hash_to_difficulty(anchor_hashrate, m) / (anchor_hashrate * target_interval)
