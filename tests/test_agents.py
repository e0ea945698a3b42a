import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pomsim.agents import (
    MinerAgent,
    PomCredit,
    PopulationSpec,
    decide,
    expected_revenue_rate,
    generate_population,
    pom_multiplier,
    revenue_rate,
)
from pomsim.errors import InternalError, ParameterError


def miner(hashrate=1.0, unit_cost=0.5, active=True, dwell=0, history=()):
    h = deque(maxlen=50)
    h.extend(history)
    return MinerAgent(
        id="m", hashrate=hashrate, unit_cost=unit_cost, active=active,
        dwell_remaining=dwell, history=h,
    )


class TestRevenueRate:
    def test_solo_network(self):
        m = miner(hashrate=10.0)
        assert expected_revenue_rate(m, 10.0, 1.0, 1.0, 3600.0) == pytest.approx(1.0)

    def test_half_share(self):
        m = miner(hashrate=10.0)
        assert expected_revenue_rate(m, 20.0, 1.0, 1.0, 3600.0) == pytest.approx(0.5)

    def test_arithmetic(self):
        m = miner(hashrate=1.0)
        assert expected_revenue_rate(m, 10.0, 9.0, 0.02, 120.0) == pytest.approx(0.54)

    def test_zero_total_with_active_miner(self):
        with pytest.raises(InternalError):
            expected_revenue_rate(miner(active=True), 0.0, 1.0, 1.0, 120.0)

    def test_zero_total_inactive_earns_the_whole_reward(self):
        # on an empty network a miner that joins holds all of it: this lets the network restart
        assert expected_revenue_rate(miner(active=False), 0.0, 1.0, 1.0, 120.0) == 30.0

    @pytest.mark.parametrize("h,total", [(10.0, 10.0), (1.0, 0.0), (0.3, 115.0), (24.0, 1e-9)])
    def test_inactive_miner_is_judged_by_its_share_after_joining(self, h, total):
        # the value `simulator._decision_pass` judges an inactive miner by
        m = miner(hashrate=h, active=False)
        want = revenue_rate(h, h + total, 9.0, 30.0, 120.0)
        assert expected_revenue_rate(m, total, 9.0, 30.0, 120.0) == want


@pytest.mark.parametrize("field", ["hashrate", "unit_cost"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_a_non_finite_hashrate_or_cost_is_rejected(field, value):
    with pytest.raises(ParameterError):
        miner(**{field: value})


class TestDecide:
    def test_zero_cost_turns_on_and_stays(self):
        m = miner(unit_cost=0.0, active=False)
        m = decide(m, 0.01)
        assert m.active
        for _ in range(50):
            m = decide(m, 0.01)
        assert m.active

    def test_dead_band_keeps_state(self):
        cost_rate = 0.5  # hashrate 1, cost 0.5
        for active in (True, False):
            m = miner(active=active)
            out = decide(m, 1.0 * cost_rate, margin_on=1.1, margin_off=0.9)
            assert out.active == active

    def test_exit_below_off_margin(self):
        m = miner(unit_cost=1.0, active=True)
        out = decide(m, 0.9, margin_on=1.05, margin_off=0.95)
        assert not out.active
        assert out.dwell_remaining > 0

    def test_dwell_blocks_flip(self):
        m = miner(unit_cost=1.0, active=True, dwell=3)
        out = decide(m, 0.0)
        assert out.active
        assert out.dwell_remaining == 2

    def test_inverted_margins_rejected(self):
        with pytest.raises(ParameterError):
            decide(miner(), 1.0, margin_on=0.9, margin_off=1.1)

    def test_no_flap_under_constant_conditions(self):
        m = miner(unit_cost=1.0, active=True)
        flips = 0
        prev = m.active
        for _ in range(100):
            m = decide(m, 0.5)
            flips += m.active != prev
            prev = m.active
        assert flips <= 1

    @given(
        st.floats(0.1, 20.0),
        st.floats(0.01, 5.0),
        st.floats(0.0, 10.0),
        st.floats(0.1, 100.0),
        st.booleans(),
    )
    def test_homogeneity(self, hashrate, unit_cost, revenue, k, active):
        # jointly scaling price (hence revenue) and cost leaves the decision unchanged
        m1 = miner(hashrate=hashrate, unit_cost=unit_cost, active=active)
        m2 = miner(hashrate=hashrate, unit_cost=unit_cost * k, active=active)
        assert decide(m1, revenue).active == decide(m2, revenue * k).active


class TestPomMultiplier:
    def test_full_window(self):
        c = PomCredit(window=50, required=40)
        assert pom_multiplier(miner(history=[True] * 50), c) == 1.0

    def test_exactly_required(self):
        c = PomCredit(window=50, required=40)
        hist = [True] * 40 + [False] * 10
        assert pom_multiplier(miner(history=hist), c) == 1.0

    def test_half_of_required(self):
        c = PomCredit(window=50, required=40)
        hist = [True] * 20 + [False] * 30
        assert pom_multiplier(miner(history=hist), c) == 0.5

    def test_fifty_percent_duty_against_full_requirement(self):
        c = PomCredit(window=50, required=50)
        hist = [i % 2 == 0 for i in range(50)]
        assert pom_multiplier(miner(history=hist), c) == pytest.approx(0.5, abs=1e-12)

    def test_empty_history(self):
        assert pom_multiplier(miner(history=[]), PomCredit()) == 1.0

    def test_default_history_keeps_a_window_longer_than_fifty(self):
        m = MinerAgent(id="m", hashrate=1.0, unit_cost=0.0)
        m.history.extend([False] * 100)
        assert pom_multiplier(m, PomCredit(window=60, required=40)) == 0.0

    def test_short_history_is_warm_up(self):
        # fewer blocks than the window: full credit, as in the simulator's warm-up
        assert pom_multiplier(miner(history=[True] * 10), PomCredit()) == 1.0
        assert pom_multiplier(miner(history=[False] * 49), PomCredit()) == 1.0

    def test_monotone_in_active_blocks(self):
        c = PomCredit(window=50, required=40)
        prev = -1.0
        for k in range(51):
            hist = [True] * k + [False] * (50 - k)
            cur = pom_multiplier(miner(history=hist), c)
            assert cur >= prev
            prev = cur

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
