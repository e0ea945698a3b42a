"""Hashrate-to-difficulty map and per-block difficulty retargeting.

The map is affine and fitted (least squares) to anchor pairs taken from the
reference network; the retarget controller nudges difficulty so the
exponentially smoothed block interval tracks a target interval.  The
controller's step is written once, `retarget`, on the difficulty and the
interval EMA as two floats; the simulator calls it, and it is the scalar API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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
        for name in ("slope", "intercept", "floor"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
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
    """Least-squares affine fit through (hashrate, difficulty) anchor pairs, in closed
    form: sums by `math.fsum`, every other step one correctly rounded IEEE operation,
    so the fit has the same bits on any host. Unfittable anchors raise `ParameterError`."""
    pts = [(float(h), float(d)) for h, d in anchors]
    if len(pts) < 2:
        raise ParameterError("need at least two anchor pairs")
    try:
        h_mean, d_mean = (math.fsum(column) / len(pts) for column in zip(*pts))
        dh, dd = [h - h_mean for h, _ in pts], [d - d_mean for _, d in pts]
        slope = math.fsum(x * y for x, y in zip(dh, dd)) / math.fsum(x * x for x in dh)
    except (ZeroDivisionError, OverflowError, ValueError) as exc:
        # no spread (or one whose squares underflow), a sum that overflows, or inf - inf
        raise ParameterError(f"anchors {pts} cannot be fitted: {exc}") from None
    return DifficultyMap(slope=slope, intercept=d_mean - slope * h_mean, floor=floor)


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


def retarget(
    rc: RetargetConfig, floor: float, d: float, ema: float, observed: float
) -> tuple[float, float]:
    """One controller step: the new (difficulty, interval EMA) after an observed interval."""
    if not (observed > 0.0):
        raise DomainError(f"observed interval must be positive, got {observed}")
    ema = rc.smoothing * observed + (1.0 - rc.smoothing) * ema
    # each clamp is the one comparison that max(a, b) (b > a) or min(a, b) (b < a) makes
    ratio, clamp = rc.target_interval / ema, rc.clamp
    if 1.0 / clamp > ratio:
        ratio = 1.0 / clamp
    if clamp < ratio:
        ratio = clamp
    d *= ratio
    return floor if floor > d else d, ema


def rate_constant_from_map(
    m: DifficultyMap, anchor_hashrate: float, target_interval: float
) -> float:
    """Solve-rate constant kappa making the map's anchor hit the target interval.

    With solve times exponential of mean D / (kappa * H), choosing
    kappa = D(anchor) / (anchor * target) makes a network at the anchor
    hashrate produce blocks at the target interval.
    """
    if not (anchor_hashrate > 0.0 and target_interval > 0.0):
        raise ParameterError("need anchor_hashrate > 0 and target_interval > 0, got "
                             f"anchor_hashrate={anchor_hashrate}, target_interval={target_interval}")
    return hash_to_difficulty(anchor_hashrate, m) / (anchor_hashrate * target_interval)
