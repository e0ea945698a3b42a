import math
from pathlib import Path

import pytest

from pomsim.errors import DomainError
from pomsim.metrics import compare, equilibrium_summary
from pomsim.simulator import BlockRecord, read_series_csv

FIXTURE = Path(__file__).parent / "fixtures" / "reference_run.csv"

# golden values computed independently with pandas on the fixture CSV
GOLDEN_BURN_IN = 80
GOLDEN = {
    "mean_hashrate": 63.77186873153922,
    "std_hashrate": 15.960086342016528,
    "mean_interval": 136.1020450632657,
    "std_interval": 186.0013413895567,
    "mean_share": 0.5314073236727628,
    "std_share": 0.09393885119845588,
}


def record(height, timestamp, total_hash=10.0, share=0.0):
    return BlockRecord(
        height=height, timestamp=timestamp, difficulty=1.0, total_hash=total_hash,
        winner="m", raw_reward=1.0, pom_multiplier=1.0, credited_reward=1.0,
        active_miner_count=1, large_miner_share=share,
    )


class TestEquilibriumSummary:
    def test_burn_in_defaults_to_a_fifth_of_the_series(self):
        recs = [record(i, 120.0 * (i + 1) + i % 3, share=0.1 * (i % 4)) for i in range(53)]
        s = equilibrium_summary(recs)
        assert s.burn_in == 10
        assert s == equilibrium_summary(recs, burn_in=10)
        assert compare(recs, recs) == compare(recs, recs, burn_in=10)

    def test_constant_series(self):
        recs = [record(i, 120.0 * (i + 1), total_hash=40.0, share=0.25) for i in range(10)]
        s = equilibrium_summary(recs, burn_in=2)
        assert s.mean_hashrate == 40.0
        assert s.std_hashrate == 0.0
        assert s.mean_interval == 120.0
        assert s.std_interval == 0.0
        assert s.mean_share == 0.25

    def test_interval_from_timestamp_diffs(self):
        recs = [record(0, 100.0), record(1, 150.0), record(2, 350.0)]
        s = equilibrium_summary(recs, burn_in=1)
        # intervals are 100, 50, 200; burn-in drops the first
        assert s.mean_interval == pytest.approx(125.0)

    def test_burn_in_too_large(self):
        recs = [record(0, 1.0)]
        with pytest.raises(DomainError):
            equilibrium_summary(recs, burn_in=1)

    def test_negative_burn_in(self):
        with pytest.raises(DomainError):
            equilibrium_summary([record(0, 1.0)], burn_in=-1)

    @pytest.mark.parametrize(
        "name,recs",
        [
            ("hashrate", [record(i, 1.0 + i, total_hash=1e308) for i in range(3)]),
            ("interval", [record(0, 1.0), record(1, 1e308), record(2, 1.7e308)]),
            ("share", [record(i, 1.0 + i, share=1e308) for i in range(3)]),
        ],
        ids=["hashrate-mean", "interval-stddev", "share-mean"],
    )
    def test_an_overflowing_statistic_is_a_domain_error(self, name, recs):
        msg = rf"^the {name} series overflows its mean or stddev \(largest magnitude 1e\+308\)$"
        with pytest.raises(DomainError, match=msg):
            equilibrium_summary(recs, burn_in=1)

    def test_golden_fixture(self):
        recs = read_series_csv(FIXTURE)
        s = equilibrium_summary(recs, burn_in=GOLDEN_BURN_IN)
        for name, want in GOLDEN.items():
            assert getattr(s, name) == pytest.approx(want, rel=1e-12), name


class TestCompare:
    def test_self_comparison_is_zero(self):
        recs = read_series_csv(FIXTURE)
        d = compare(recs, recs, burn_in=GOLDEN_BURN_IN)
        assert d.delta_hashrate == 0.0
        assert d.delta_share == 0.0
        assert d.delta_interval == 0.0
        assert d.hashrate_ratio == 1.0
        assert d.share_ratio == 1.0

    def test_antisymmetry(self):
        recs = read_series_csv(FIXTURE)
        half = len(recs) // 2
        a, b = recs[:half], recs[half:2 * half]
        fwd = compare(a, b, burn_in=10)
        rev = compare(b, a, burn_in=10)
        assert fwd.delta_hashrate == pytest.approx(-rev.delta_hashrate)
        assert fwd.delta_share == pytest.approx(-rev.delta_share)
        assert fwd.hashrate_ratio == pytest.approx(1.0 / rev.hashrate_ratio)

    def test_known_delta(self):
        a = [record(i, 120.0 * (i + 1), total_hash=40.0, share=0.5) for i in range(5)]
        b = [record(i, 120.0 * (i + 1), total_hash=50.0, share=0.25) for i in range(5)]
        d = compare(a, b, burn_in=0)
        assert d.delta_hashrate == pytest.approx(10.0)
        assert d.delta_share == pytest.approx(-0.25)
        assert d.hashrate_ratio == pytest.approx(1.25)

    def test_zero_baseline_share_gives_nan_ratio(self):
        a = [record(i, 120.0 * (i + 1), share=0.0) for i in range(5)]
        b = [record(i, 120.0 * (i + 1), share=0.5) for i in range(5)]
        assert math.isnan(compare(a, b, burn_in=0).share_ratio)

    def test_horizon_mismatch_rejected(self):
        a = [record(0, 1.0)]
        b = [record(0, 1.0), record(1, 2.0)]
        with pytest.raises(DomainError):
            compare(a, b, burn_in=0)
