"""Observables over a finished run: concentration, equilibrium means, deltas."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, ParameterError


def large_miner_share(hashrates: Iterable[float], threshold: float = 5.0) -> float:
    """Fraction of total hashrate held by miners above the threshold.

    `hashrates` are the hashrates of the currently active miners; returns 0
    when nobody is active.
    """
    if not (threshold > 0.0):
        raise ParameterError(f"threshold must be positive, got {threshold}")
    hs = np.asarray(list(hashrates), dtype=float)
    total = hs.sum()
    if total <= 0.0:
        return 0.0
    return float(hs[hs > threshold].sum() / total)


@dataclass(frozen=True)
class EquilibriumSummary:
    mean_hashrate: float
    std_hashrate: float
    mean_interval: float
    std_interval: float
    mean_share: float
    std_share: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _records(series) -> list:
    """The block records of a `RunSeries`, or of any iterable of them."""
    return list(getattr(series, "records", series))


def equilibrium_summary(series, burn_in: int) -> EquilibriumSummary:
    """Post-burn-in time averages (and stddevs) of hashrate, interval, share."""
    records = _records(series)
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

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def compare(baseline, treatment, burn_in: int) -> ComparisonDeltas:
    base_records = _records(baseline)
    treat_records = _records(treatment)
    if len(base_records) != len(treat_records):
        raise DomainError(
            f"horizon mismatch: baseline {len(base_records)} vs treatment {len(treat_records)}"
        )
    b = equilibrium_summary(base_records, burn_in)
    t = equilibrium_summary(treat_records, burn_in)
    return ComparisonDeltas(
        delta_hashrate=t.mean_hashrate - b.mean_hashrate,
        delta_share=t.mean_share - b.mean_share,
        delta_interval=t.mean_interval - b.mean_interval,
        hashrate_ratio=t.mean_hashrate / b.mean_hashrate if b.mean_hashrate else float("nan"),
        share_ratio=t.mean_share / b.mean_share if b.mean_share else float("nan"),
    )
