"""Observables over a finished run's block records: equilibrium means, deltas."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class EquilibriumSummary:
    """Post-burn-in means and stddevs; a run with no blocks has none (`None`)."""

    burn_in: int
    mean_hashrate: Optional[float] = None
    std_hashrate: Optional[float] = None
    mean_interval: Optional[float] = None
    std_interval: Optional[float] = None
    mean_share: Optional[float] = None
    std_share: Optional[float] = None


def equilibrium_summary(records: Sequence, burn_in: Optional[int] = None) -> EquilibriumSummary:
    """Post-burn-in time averages (and stddevs) of hashrate, interval, share;
    the burn-in defaults to the first fifth of the series.  A statistic that
    overflows is a `DomainError` naming its series and largest magnitude."""
    if burn_in is None:
        burn_in = len(records) // 5
    if burn_in >= len(records):
        raise DomainError(f"burn_in {burn_in} must be below series length {len(records)}")
    if burn_in < 0:
        raise DomainError(f"burn_in must be nonnegative, got {burn_in}")
    ts = np.array([r.timestamp for r in records])
    intervals = np.diff(np.concatenate([[0.0], ts]))
    tail = records[burn_in:]
    series = {
        "hashrate": np.array([r.total_hash for r in tail]),
        "interval": intervals[burn_in:],
        "share": np.array([r.large_miner_share for r in tail]),
    }
    stats = {}
    for name, xs in series.items():
        try:
            with np.errstate(over="raise"):
                stats[f"mean_{name}"] = float(xs.mean())
                stats[f"std_{name}"] = float(xs.std())
        except FloatingPointError as exc:
            raise DomainError(
                f"the {name} series overflows its mean or stddev "
                f"(largest magnitude {float(np.abs(xs).max())!r})"
            ) from exc
    return EquilibriumSummary(burn_in=burn_in, **stats)


@dataclass(frozen=True)
class ComparisonDeltas:
    """Treatment-minus-baseline equilibrium deltas (and ratios)."""

    delta_hashrate: float
    delta_share: float
    delta_interval: float
    hashrate_ratio: float
    share_ratio: float


def compare(
    baseline: Sequence, treatment: Sequence, burn_in: Optional[int] = None
) -> ComparisonDeltas:
    if len(baseline) != len(treatment):
        raise DomainError(
            f"horizon mismatch: baseline {len(baseline)} vs treatment {len(treatment)}"
        )
    b = equilibrium_summary(baseline, burn_in)
    t = equilibrium_summary(treatment, burn_in)
    return ComparisonDeltas(
        delta_hashrate=t.mean_hashrate - b.mean_hashrate,
        delta_share=t.mean_share - b.mean_share,
        delta_interval=t.mean_interval - b.mean_interval,
        hashrate_ratio=t.mean_hashrate / b.mean_hashrate if b.mean_hashrate else float("nan"),
        share_ratio=t.mean_share / b.mean_share if b.mean_share else float("nan"),
    )
