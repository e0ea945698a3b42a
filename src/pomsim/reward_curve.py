"""Network-dependent block reward curve.

The reward is a rising sqrt-bell in difficulty, optionally multiplied by a
logistic (Fermi-Dirac style) cutoff that suppresses rewards past a chosen
difficulty.  Calibration routines place the curve's landmarks (peak,
half-max, tenth-max) at requested difficulties.

All functions here are pure and the parameter objects are immutable, so
everything is safe to share between threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    BracketingError,
    CalibrationError,
    DomainError,
    OrderingError,
    ParameterError,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

LN9 = math.log(9.0)


@dataclass(frozen=True)
class BaseCurveParams:
    """Shape of the rising bell: scale * sqrt((exp(-a d) - exp(-b d)) * d).

    Requires 0 < a < b < inf and 0 < scale < inf.  `scale` converts the dimensionless
    bell into coin units.
    """

    a: float
    b: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.a > 0.0):
            raise ParameterError(f"a must be positive, got {self.a}")
        if not (0.0 < self.b < math.inf):
            raise ParameterError(f"b must be positive and finite, got {self.b}")
        if not (self.a < self.b):
            raise ParameterError(f"a must be strictly less than b, got a={self.a} b={self.b}")
        if not (0.0 < self.scale < math.inf):
            raise ParameterError(f"scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class CutoffParams:
    """Logistic cutoff 1 / (1 + exp((d - d_co) / spread)).

    `d_co` places the midpoint of the decline, `spread` its width.
    """

    d_co: float
    spread: float

    def __post_init__(self):
        if not (0.0 < self.d_co < math.inf):
            raise ParameterError(f"d_co must be positive and finite, got {self.d_co}")
        if not (0.0 < self.spread < math.inf):
            raise ParameterError(f"spread must be positive and finite, got {self.spread}")


@dataclass(frozen=True)
class RewardScheduleParams:
    """Full schedule: base bell, optionally multiplied by a cutoff.

    When a cutoff is present its midpoint must sit above the base curve's
    peak, so the cutoff only shapes the high-difficulty side.
    """

    base: BaseCurveParams
    cutoff: Optional[CutoffParams] = None

    def __post_init__(self):
        if self.cutoff is not None:
            peak = _unit_peak(self.base.b / self.base.a) / self.base.a
            if not (self.cutoff.d_co > peak):
                raise ParameterError(
                    f"cutoff midpoint d_co={self.cutoff.d_co} must exceed the "
                    f"base-curve peak at d={peak:.6g}"
                )


def base_reward(d: float, p: BaseCurveParams) -> float:
    """Reward from the base bell at difficulty d (coin units)."""
    if d < 0.0:
        raise DomainError(f"difficulty must be nonnegative, got {d}")
    radicand = (math.exp(-p.a * d) - math.exp(-p.b * d)) * d
    if radicand < 0.0:
        # unreached while libm's exp is monotone, which neither C nor glibc promises
        radicand = 0.0
    return p.scale * math.sqrt(radicand)


def cutoff_factor(d: float, c: CutoffParams) -> float:
    """Logistic suppression factor in (0, 1); overflow-safe for any finite d."""
    x = (d - c.d_co) / c.spread
    if x > 0.0:
        e = math.exp(-x)
        return e / (1.0 + e)
    return 1.0 / (1.0 + math.exp(x))


def reward(d: float, s: RewardScheduleParams) -> float:
    """Composed schedule: base bell times cutoff (when present)."""
    r = base_reward(d, s.base)
    if s.cutoff is not None:
        r *= cutoff_factor(d, s.cutoff)
    return r


def find_peak(
    s: RewardScheduleParams, lo: Optional[float] = None, hi: Optional[float] = None
) -> tuple[float, float]:
    """Maximize the schedule on [lo, hi] by golden-section search.

    A caller's bracket must hold a single maximum.  The default is the
    schedule's peak bracket: from 1e-12 · min(1, hi) to 20 / a, where
    exp(-a d) is exp(-20), or to d_co + 20 * spread, where the cutoff factor
    is below exp(-20), whichever comes first.
    Returns (d_star, r_max), d_star located to 1e-9 · min(1, hi).
    """
    if hi is None:
        hi = 20.0 / s.base.a
        if s.cutoff is not None:
            hi = min(hi, s.cutoff.d_co + 20.0 * s.cutoff.spread)
    if lo is None:  # relative to the bracket, as the tolerance is
        lo = 1e-12 * min(1.0, hi)
    return _golden_max(lambda d: reward(d, s), lo, hi, 1e-9)


@functools.cache
def _unit_peak(ratio: float) -> float:
    """Peak of the bell with a = 1, b = ratio; the bell (a, b) peaks at _unit_peak(b / a) / a."""
    return find_peak(RewardScheduleParams(BaseCurveParams(a=1.0, b=ratio)))[0]


def _golden_max(f, lo: float, hi: float, rtol: float) -> tuple[float, float]:
    if not (lo < hi):
        raise DomainError(f"need lo < hi, got lo={lo} hi={hi}")
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    if max(fc, fd) < min(f(lo), f(hi)):
        raise BracketingError(
            f"interior samples below both ends on [{lo}, {hi}]; function not unimodal"
        )
    tol = rtol * min(1.0, hi)
    # Stop also once the interior points stop moving: a tol below one ulp of
    # the bracket ends would otherwise never be met.
    while hi - lo > tol and lo < c < d < hi:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
    x = 0.5 * (lo + hi)
    return x, f(x)


def calibrate_cutoff(half_d: float, tenth_d: float) -> CutoffParams:
    """Closed-form cutoff from the half-max and tenth-max difficulties.

    Treats the base curve as flat across the decline, so the cutoff factor
    alone must be 0.5 at half_d and 0.1 at tenth_d.
    """
    if not (0.0 < half_d < tenth_d):
        raise OrderingError(f"need 0 < half_d < tenth_d, got {half_d}, {tenth_d}")
    return CutoffParams(d_co=half_d, spread=(tenth_d - half_d) / LN9)


def calibrate_schedule(
    peak_d: float,
    half_d: float,
    tenth_d: float,
    r_max_target: float,
    b_ratio: float = 4.0,
) -> RewardScheduleParams:
    """Fit a full schedule to the three landmark difficulties.

    Stage 1 fixes the cutoff in closed form.  Stage 2 finds the base shape
    parameter a (with b = b_ratio * a) at which the composed peak lands at
    peak_d: the peak falls as a rises, so |peak - peak_d| has one minimum on
    the bracket.  Stage 3 rescales so the composed maximum equals r_max_target.
    Every search is `find_peak` over the schedule's peak bracket, or
    `_golden_max` over a.
    """
    if not (0.0 < peak_d < half_d < tenth_d):
        raise OrderingError(
            f"need 0 < peak_d < half_d < tenth_d, got {peak_d}, {half_d}, {tenth_d}"
        )
    if not (0.0 < r_max_target < math.inf):
        raise ParameterError(f"r_max_target must be positive and finite, got {r_max_target}")
    if not (1.0 < b_ratio < math.inf):
        raise ParameterError(f"b_ratio must exceed 1 and be finite, got {b_ratio}")

    cutoff = calibrate_cutoff(half_d, tenth_d)

    def shape(a: float, scale: float = 1.0) -> RewardScheduleParams:
        return RewardScheduleParams(BaseCurveParams(a=a, b=b_ratio * a, scale=scale), cutoff)

    def residual(a: float) -> float:
        return find_peak(shape(a))[0] - peak_d

    # a_hi puts the base peak exactly at peak_d (composed peak slightly left);
    # a_lo puts it just under the cutoff midpoint (composed peak to the right),
    # by a margin far above the peak's search tolerance.
    a_hi = _unit_peak(b_ratio) / peak_d
    a_lo = _unit_peak(b_ratio) / half_d * (1.0 + 1e-6)
    r_lo, r_hi = residual(a_lo), residual(a_hi)
    if not (r_lo > 0.0 > r_hi):
        raise CalibrationError(
            f"peak residuals do not bracket a root: f({a_lo:.6g})={r_lo:.3g}, "
            f"f({a_hi:.6g})={r_hi:.3g}"
        )
    a_star, _ = _golden_max(lambda a: -abs(residual(a)), a_lo, a_hi, 1e-12)

    # > 0: the cutoff is >= 1/2 at the base peak, and the bell's top underflows only where
    # b overflows (BaseCurveParams rejects it) or b_ratio is ulps above 1 (no bracket)
    _, r_unscaled = find_peak(shape(a_star))
    schedule = shape(a_star, r_max_target / r_unscaled)

    half_ratio = reward(half_d, schedule) / r_max_target
    tenth_ratio = reward(tenth_d, schedule) / r_max_target
    if abs(half_ratio - 0.5) > 0.01 or abs(tenth_ratio - 0.1) > 0.01:
        raise CalibrationError(
            f"calibrated schedule misses landmarks: reward({half_d})/max={half_ratio:.4f} "
            f"(want 0.5), reward({tenth_d})/max={tenth_ratio:.4f} (want 0.1)"
        )
    return schedule

