"""Observables over a finished run's block records: equilibrium means, deltas."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class EquilibriumSummary:
    mean_hashrate: float
    std_hashrate: float
    mean_interval: float
    std_interval: float
    mean_share: float
    std_share: float


def equilibrium_summary(records: Sequence, burn_in: int) -> EquilibriumSummary:
    """Post-burn-in time averages (and stddevs) of hashrate, interval, share."""
    if burn_in >= len(records):
        raise DomainError(f"burn_in {burn_in} must be below series length {len(records)}")
    if burn_in < 0:
        raise DomainError(f"burn_in must be nonnegative, got {burn_in}")
    ts = np.array([r.timestamp for r in records])
    intervals = np.diff(np.concatenate([[0.0], ts]))
    tail = records[burn_in:]
    hs = np.array([r.total_hash for r in tail])
    shares = np.array([r.large_miner_share for r in tail])
    iv = intervals[burn_in:]
    return EquilibriumSummary(
        mean_hashrate=float(hs.mean()),
        std_hashrate=float(hs.std()),
        mean_interval=float(iv.mean()),
        std_interval=float(iv.std()),
        mean_share=float(shares.mean()),
        std_share=float(shares.std()),
    )


@dataclass(frozen=True)
class ComparisonDeltas:
    """Treatment-minus-baseline equilibrium deltas (and ratios)."""

    delta_hashrate: float
    delta_share: float
    delta_interval: float
    hashrate_ratio: float
    share_ratio: float


def compare(baseline: Sequence, treatment: Sequence, burn_in: int) -> ComparisonDeltas:
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
