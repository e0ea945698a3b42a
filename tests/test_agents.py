import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pomsim.agents import (
    EconomicsConfig,
    MinerAgent,
    PomCredit,
    PopulationSpec,
    flips,
    generate_population,
    pom_credit,
    revenue_rate,
)
from pomsim.errors import ParameterError


def miner(hashrate=1.0, unit_cost=0.5, active=True):
    return MinerAgent(id="m", hashrate=hashrate, unit_cost=unit_cost, active=active)


class TestRevenueRate:
    def test_solo_network(self):
        assert revenue_rate(10.0, 10.0, 1.0, 1.0, 3600.0) == pytest.approx(1.0)

    def test_half_share(self):
        assert revenue_rate(10.0, 20.0, 1.0, 1.0, 3600.0) == pytest.approx(0.5)

    def test_arithmetic(self):
        assert revenue_rate(1.0, 10.0, 9.0, 0.02, 120.0) == pytest.approx(0.54)

    def test_zero_total_inactive_earns_the_whole_reward(self):
        # on an empty network a miner that joins holds all of it: this lets the network restart
        assert revenue_rate(1.0, 1.0 + 0.0, 1.0, 1.0, 120.0) == 30.0

    @pytest.mark.parametrize("h,total", [(10.0, 10.0), (1.0, 0.0), (0.3, 115.0), (24.0, 1e-9)])
    def test_inactive_miner_is_judged_by_its_share_after_joining(self, h, total):
        # the kernel judges an inactive miner at h / (h + total): never more than the
        # whole reward, and all of it only when joining leaves the total at its own h
        joined = revenue_rate(h, h + total, 9.0, 30.0, 120.0)
        whole = revenue_rate(h, h, 9.0, 30.0, 120.0)
        assert joined <= whole and (joined == whole) == (h + total == h)


@pytest.mark.parametrize("field", ["hashrate", "unit_cost"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_a_non_finite_hashrate_or_cost_is_rejected(field, value):
    with pytest.raises(ParameterError):
        miner(**{field: value})


class TestFlips:
    """`flips` on the costs that `EconomicsConfig.costs` gives one miner."""

    def test_zero_cost_turns_on_and_stays(self):
        costs = EconomicsConfig().costs(0.0, 1.0)
        assert flips(False, 0.01, *costs)
        assert not flips(True, 0.01, *costs)

    def test_dead_band_keeps_state(self):
        costs = EconomicsConfig(margin_on=1.1, margin_off=0.9).costs(0.5, 1.0)  # cost rate 0.5
        for active in (True, False):
            assert not flips(active, 0.5, *costs)

    def test_exit_below_off_margin(self):
        assert flips(True, 0.9, *EconomicsConfig(margin_on=1.05, margin_off=0.95).costs(1.0, 1.0))

    def test_inverted_margins_rejected(self):
        with pytest.raises(ParameterError):
            EconomicsConfig(0.9, 1.1)

    def test_no_flap_under_constant_conditions(self):
        costs = EconomicsConfig().costs(1.0, 1.0)
        active, flipped = True, 0
        for _ in range(100):
            if flips(active, 0.5, *costs):
                active, flipped = not active, flipped + 1
        assert flipped <= 1

    @given(
        st.floats(0.1, 20.0),
        st.floats(0.01, 5.0),
        st.floats(0.0, 10.0),
        st.floats(0.1, 100.0),
        st.booleans(),
    )
    def test_homogeneity(self, hashrate, unit_cost, revenue, k, active):
        # jointly scaling price (hence revenue) and cost leaves the decision unchanged
        econ = EconomicsConfig()
        assert flips(active, revenue, *econ.costs(unit_cost, hashrate)) == flips(
            active, revenue * k, *econ.costs(unit_cost * k, hashrate)
        )


class TestPomCredit:
    def test_full_window(self):
        assert pom_credit(50, 50, PomCredit(window=50, required=40)) == 1.0

    def test_exactly_required(self):
        assert pom_credit(40, 50, PomCredit(window=50, required=40)) == 1.0

    def test_half_of_required(self):
        assert pom_credit(20, 50, PomCredit(window=50, required=40)) == 0.5

    def test_fifty_percent_duty_against_full_requirement(self):
        c = PomCredit(window=50, required=50)
        assert pom_credit(25, 50, c) == pytest.approx(0.5, abs=1e-12)

    def test_no_block_seen(self):
        assert pom_credit(0, 0, PomCredit()) == 1.0

    def test_a_window_longer_than_fifty(self):
        assert pom_credit(0, 100, PomCredit(window=60, required=40)) == 0.0

    def test_short_history_is_warm_up(self):
        # fewer blocks than the window: full credit, as in the simulator's warm-up
        assert pom_credit(10, 10, PomCredit()) == 1.0
        assert pom_credit(0, 49, PomCredit()) == 1.0

    def test_monotone_in_active_blocks(self):
        c = PomCredit(window=50, required=40)
        credits = [pom_credit(k, 50, c) for k in range(51)]
        assert credits == sorted(credits)

    @given(st.integers(0, 2**64), st.integers(1, 2**64), st.integers(0, 2**64))
    @example(40, 40, 0)  # exactly the required count: 1.0
    @example(39, 40, 0)
    @example(2**53 + 1, 2**53 + 1, 0)  # both round to 2**53: exactly 1.0
    @example(2**53 + 1, 2**53 + 2, 0)  # float(a) is 2**53 below the required count
    @example(2**64, 1, 0)
    def test_the_credit_is_min_by_its_comparison(self, a, required, extra):
        # `pom_credit` clamps by the one comparison that min(1.0, c) makes, so it gives the
        # bits of the call, for counts past float's exact integers too
        credit = PomCredit(window=required + extra, required=required)
        got = pom_credit(a, credit.window, credit)
        assert got.hex() == min(1.0, float(a) / required).hex()
        assert pom_credit(a, credit.window - 1, credit) == 1.0  # the warm-up

    def test_invalid_credit_params(self):
        with pytest.raises(ParameterError):
            PomCredit(window=50, required=0)
        with pytest.raises(ParameterError):
            PomCredit(window=50, required=51)


class TestPopulation:
    def test_counts_classes_and_ranges(self):
        spec = PopulationSpec()
        agents = generate_population(spec, np.random.default_rng(0))
        assert len(agents) == spec.n_small + spec.n_large
        small = [m for m in agents if m.id.startswith("s")]
        large = [m for m in agents if m.id.startswith("l")]
        assert len(small) == spec.n_small and len(large) == spec.n_large
        assert all(spec.small_hash[0] <= m.hashrate <= spec.small_hash[1] for m in small)
        assert all(spec.large_hash[0] <= m.hashrate <= spec.large_hash[1] for m in large)
        assert all(spec.small_cost[0] <= m.unit_cost <= spec.small_cost[1] for m in small)
        assert all(spec.large_cost[0] <= m.unit_cost <= spec.large_cost[1] for m in large)

    def test_deterministic_per_seed(self):
        a = generate_population(PopulationSpec(), np.random.default_rng(42))
        b = generate_population(PopulationSpec(), np.random.default_rng(42))
        assert [(m.id, m.hashrate, m.unit_cost) for m in a] == [
            (m.id, m.hashrate, m.unit_cost) for m in b
        ]

    def test_share_conservation(self):
        agents = generate_population(PopulationSpec(), np.random.default_rng(1))
        total = sum(m.hashrate for m in agents if m.active)
        shares = sum(m.hashrate / total for m in agents if m.active)
        assert shares == pytest.approx(1.0, abs=1e-12)

    def test_empty_population_rejected(self):
        with pytest.raises(ParameterError):
            PopulationSpec(n_small=0, n_large=0)
