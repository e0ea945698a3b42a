import copy
import csv
import dataclasses
import json
import math
from collections import Counter, deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pomsim.agents import (
    MinerAgent,
    PomCredit,
    PopulationSpec,
    decide,
    expected_revenue_rate,
    pom_multiplier,
    revenue_rate,
)
from pomsim.config import config_from_dict, load_config
from pomsim import simulator
from pomsim.difficulty import hash_to_difficulty
from pomsim.errors import ConfigError, DomainError, InternalError, ParameterError
from pomsim.metrics import EquilibriumSummary, equilibrium_summary
from pomsim.simulator import (
    BlockRecord,
    Draws,
    EconomicsConfig,
    PricePath,
    RunSummary,
    SimConfig,
    _decision_pass,
    initial_state,
    read_series_csv,
    run,
    schedule_max,
    step,
    write_series_csv,
)
from pomsim.reward_curve import calibrate_schedule

SCHEDULE = calibrate_schedule(1.75, 2.20, 2.37, 9.0)
CONFIG_PATH = "configs/example.json"


def explicit_miner(mid, hashrate, unit_cost=0.0, duty=None):
    return MinerAgent(
        id=mid, hashrate=hashrate, unit_cost=unit_cost, duty=duty,
        history=deque(maxlen=50),
    )


def make_config(**kw):
    defaults = dict(schedule=SCHEDULE, horizon=500, seed=0)
    defaults.update(kw)
    return SimConfig(**defaults)


class TestDeterminism:
    def test_repeat_run_identical_csv(self, tmp_path):
        cfg = dataclasses.replace(load_config(CONFIG_PATH), horizon=300)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series_csv(run(cfg), a)
        write_series_csv(run(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self):
        s1 = run(make_config(seed=0)).summary
        s2 = run(make_config(seed=1)).summary
        assert s1.mean_hashrate != s2.mean_hashrate

    def test_csv_round_trip(self, tmp_path):
        series = run(make_config(horizon=50))
        path = tmp_path / "blocks.csv"
        write_series_csv(series, path)
        back = read_series_csv(path)
        assert back == series.records


# floats whose repr is a corner case: signed zero, the smallest subnormal, the
# switches to exponent form at 1e-5 and 1e16, `1e+22`, the infinities
EDGE_FLOATS = [-0.0, 5e-324, 1e-5, 1e16, 1e22, math.inf, -math.inf]
csv_floats = st.floats(allow_nan=False) | st.sampled_from(EDGE_FLOATS)
csv_ints = st.integers(min_value=-(2**63), max_value=2**63)
csv_safe_ids = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters=',"'))
block_records = st.builds(
    BlockRecord,
    height=csv_ints,
    timestamp=csv_floats,
    difficulty=csv_floats,
    total_hash=csv_floats,
    winner=csv_safe_ids,
    raw_reward=csv_floats,
    pom_multiplier=csv_floats,
    credited_reward=csv_floats,
    active_miner_count=csv_ints,
    large_miner_share=csv_floats,
)
CSV_UNSAFE_IDS = ["a,b", 'a"b', "a\nb", "a\rb"]


class TestBlocksCsv:
    """`write_series_csv` formats rows itself; the csv module is the reference."""

    @staticmethod
    def csv_module_bytes(records, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(BlockRecord._fields)
            w.writerows(records)
        return path.read_bytes()

    @given(records=st.lists(block_records, max_size=8))
    @settings(max_examples=300)
    def test_same_bytes_as_the_csv_module_and_read_back(self, tmp_path_factory, records):
        tmp = tmp_path_factory.mktemp("csv")
        ours = tmp / "blocks.csv"
        write_series_csv(simulator.RunSeries("", records, None), ours)
        assert ours.read_bytes() == self.csv_module_bytes(records, tmp / "ref.csv")
        assert read_series_csv(ours) == records

    @pytest.mark.parametrize("mid", CSV_UNSAFE_IDS)
    def test_an_id_that_needs_quoting_is_rejected(self, mid):
        with pytest.raises(ParameterError, match="id must be a string without"):
            MinerAgent(id=mid, hashrate=1.0, unit_cost=0.0)
        with open(CONFIG_PATH, encoding="utf-8") as f:
            data = json.load(f)
        data["population"] = {"explicit": [{"id": mid, "hashrate": 1.0, "unit_cost": 0.0}]}
        with pytest.raises(ConfigError) as info:
            config_from_dict(data)
        assert str(info.value).startswith("$.population.explicit[0]: ")

    def test_an_id_that_is_not_a_string_is_rejected(self):
        with pytest.raises(ParameterError, match="id must be a string without"):
            MinerAgent(id=7, hashrate=1.0, unit_cost=0.0)


class TestDegenerateRuns:
    def test_horizon_zero(self):
        series = run(make_config(horizon=0))
        assert series.records == []
        assert series.summary.mean_hashrate is None
        assert series.summary.initial_hashrate > 0.0

    def test_summary_is_the_equilibrium_summary_plus_the_genesis_figures(self):
        own = set(RunSummary.__annotations__)  # the fields RunSummary declares itself
        assert own == {"initial_hashrate", "initial_large_share", "r_max"}
        assert not own & {f.name for f in dataclasses.fields(EquilibriumSummary)}
        series = run(make_config(horizon=120))
        eq = equilibrium_summary(series.records)
        assert {k: getattr(series.summary, k) for k in vars(eq)} == vars(eq)
        assert series.summary.burn_in == 24

    def test_an_overflowing_summary_is_a_domain_error(self):
        # a lone miner of hashrate 1e-300: intervals near 1e298 s, whose stddev overflows
        cfg = dataclasses.replace(
            load_config("configs/dynamics.json"),
            horizon=300,
            explicit_population=[explicit_miner("m0", 1e-300, unit_cost=0.5)],
        )
        with pytest.raises(DomainError, match=r"^the interval series overflows its mean or stddev"):
            run(cfg)

    def test_single_miner_wins_everything(self):
        cfg = make_config(
            horizon=400,
            explicit_population=[explicit_miner("solo", 40.0)],
            constant_reward=True,
        )
        series = run(cfg)
        assert all(r.winner == "solo" for r in series.records)
        # interval settles near the target once retargeting catches up
        assert series.summary.mean_interval == pytest.approx(120.0, rel=0.25)

    def test_winner_frequency_proportional_to_hashrate(self):
        cfg = make_config(
            horizon=100_000,
            explicit_population=[explicit_miner("a", 1.0), explicit_miner("b", 3.0)],
            constant_reward=True,
        )
        series = run(cfg)
        counts = Counter(r.winner for r in series.records)
        assert counts["a"] / cfg.horizon == pytest.approx(0.25, abs=0.01)
        assert counts["b"] / cfg.horizon == pytest.approx(0.75, abs=0.01)


class TestInvariants:
    def test_reward_bounds_and_attribution(self):
        cfg = make_config(horizon=2000)
        series = run(cfg)
        _, r_max = schedule_max(cfg.schedule)
        ids = set()
        for i, r in enumerate(series.records):
            assert r.height == i
            assert 0.0 <= r.credited_reward <= r.raw_reward + 1e-12
            assert r.raw_reward <= r_max + 1e-9
            assert r.credited_reward == pytest.approx(r.raw_reward * r.pom_multiplier)
            assert r.active_miner_count >= 1
            assert 0.0 <= r.large_miner_share <= 1.0
            ids.add(r.winner)
        assert ids  # at least one winner recorded

    def test_map_consistency_at_equilibrium(self):
        # constant reward keeps the network stable, so difficulty should settle
        # where solves arrive at the target rate: D = kappa * H * target.  The
        # retarget noise is multiplicative, so compare the geometric mean.
        cfg = make_config(horizon=3000, constant_reward=True)
        series = run(cfg)
        tail = series.records[600:]
        geom_d = np.exp(np.mean([np.log(r.difficulty) for r in tail]))
        mean_h = np.mean([r.total_hash for r in tail])
        expected = cfg.resolved_rate_constant() * mean_h * cfg.retarget.target_interval
        assert geom_d == pytest.approx(expected, rel=0.10)

    def test_cutoff_suppresses_hashrate_vs_constant(self):
        cfg = make_config(horizon=3000, seed=5)
        cutoff_run = run(cfg)
        const_run = run(dataclasses.replace(cfg, constant_reward=True))
        assert cutoff_run.summary.mean_hashrate < const_run.summary.mean_hashrate


def draws_for(cfg):
    """The draw source `run` gives `step` for this config."""
    return Draws(cfg.seed, cfg.economics.dwell)


class _FixedDraw(Draws):
    """A draw source whose uniform draw is always `u`: by default 1.0, the top of the range."""

    def __init__(self, seed, dwell, u=1.0):
        super().__init__(seed, dwell)
        self.uniform = lambda: u


class TestWinnerAvailability:
    def test_top_draw_picks_last_available_miner(self):
        last_off = explicit_miner("c", 5.0)
        last_off.active = False
        cfg = make_config(
            explicit_population=[explicit_miner("a", 10.0), explicit_miner("b", 30.0), last_off],
            constant_reward=True,
        )
        state = initial_state(cfg, np.random.default_rng(cfg.seed))
        _, rec = step(state, cfg, _FixedDraw(cfg.seed, cfg.economics.dwell))
        assert rec.winner == "b"

    @pytest.mark.parametrize("duty", [None, (2, 1)], ids=["no-duty", "duty"])
    def test_winner_is_the_dense_draws_at_every_boundary(self, duty):
        # unavailable miners first, in the middle and last; with a duty cycle,
        # "d" also sits out every third block.  Nobody flips: the active miners
        # cost nothing, the inactive ones far more than the constant reward
        spec = [("a", 0.1, False), ("b", 0.2, True), ("c", 0.3, False),
                ("d", 0.7, True), ("e", 0.3, True), ("f", 0.4, False)]
        miners = [
            MinerAgent(id=mid, hashrate=h, unit_cost=0.0 if on else 1e9, active=on,
                       duty=duty if mid == "d" else None)
            for mid, h, on in spec
        ]
        cfg = make_config(explicit_population=miners, constant_reward=True)
        state, draws = initial_state(cfg, np.random.default_rng(cfg.seed)), draws_for(cfg)
        for _ in range(4):
            probe = copy.deepcopy(state)  # the availability this block draws over
            step(probe, cfg, Draws(0, cfg.economics.dwell))
            cum = (probe.hashrate * probe.avail).cumsum()
            bounds = cum[probe.avail] / probe.total
            for u in [0.0, math.nextafter(1.0, 0.0), 1.0, *bounds.tolist()]:
                _, rec = step(copy.deepcopy(state), cfg, _FixedDraw(0, cfg.economics.dwell, u))
                w = int(cum.searchsorted(u * rec.total_hash, "right"))
                if w == len(cum):
                    w = int(cum.searchsorted(cum[-1]))
                assert rec.winner == state.ids[w]
                assert type(rec.active_miner_count) is int
                assert rec.active_miner_count == np.count_nonzero(probe.avail)
            state, _ = step(state, cfg, draws)

    def test_stall_heavy_run_keeps_invariants(self):
        # 2,000 miners overshoot the cutoff: mass exits, stall quanta, re-entry
        cfg = dataclasses.replace(
            load_config("configs/dynamics.json"),
            horizon=300,
            population=PopulationSpec(n_small=1936, n_large=64),
        )
        state, draws = initial_state(cfg, np.random.default_rng(cfg.seed)), draws_for(cfg)
        index = {mid: i for i, mid in enumerate(state.ids)}
        clock = 0.0
        for _ in range(cfg.horizon):
            state, rec = step(state, cfg, draws)
            assert state.avail[index[rec.winner]]  # the availability the block was drawn from
            assert rec.credited_reward <= rec.raw_reward
            assert 0.0 <= rec.pom_multiplier <= 1.0
            assert 0.0 <= rec.large_miner_share <= 1.0
            assert rec.timestamp > clock
            clock = rec.timestamp
            starts = state.epoch_start  # one log epoch per height, stall quanta included
            assert all(a < b for a, b in zip(starts, starts[1:]))
        assert state.passes > state.height  # a pass per block and per stall quantum: it stalled


class TestDutyCycle:
    def test_duty_miner_sits_out_its_off_phase(self):
        cfg = make_config(
            horizon=60,
            explicit_population=[
                explicit_miner("full", 10.0),
                explicit_miner("duty", 10.0, duty=(5, 5)),
            ],
            constant_reward=True,
        )
        series = run(cfg)
        for r in series.records:
            if r.height % 10 >= 5:
                assert r.winner == "full"
                assert r.active_miner_count == 1
            else:
                assert r.active_miner_count == 2


    @pytest.mark.parametrize(
        "credit,stalls",
        [(PomCredit(), False), (PomCredit(60, 40), False), (PomCredit(7, 3), False),
         (PomCredit(7, 3), True)],
        ids=["40-of-50", "40-of-60", "3-of-7", "3-of-7-stalling"],
    )
    def test_credit_is_the_scalar_rule_over_the_winners_availability(self, credit, stalls):
        # full0 costs nothing and never leaves, so the run never stalls.  With
        # `stalls`, full0 pays too and every hashrate is tripled: genesis
        # difficulty lies past the cutoff, and at seed 2 the network stalls and
        # recovers three times.  Its stall quanta take availability anew at one
        # height, which opens no second log epoch there, and its short window
        # reaches into epochs of a log that has been trimmed
        scale, cost0, seed = (3.0, 0.8, 2) if stalls else (1.0, 0.0, 0)
        cfg = dataclasses.replace(
            load_config("configs/dynamics.json"),
            seed=seed,
            pom=credit,
            explicit_population=[
                explicit_miner("full0", 12.0 * scale, unit_cost=cost0),
                explicit_miner("full1", 6.0 * scale, unit_cost=1.5),
                explicit_miner("duty0", 10.0 * scale, unit_cost=0.5, duty=(5, 5)),
                explicit_miner("duty1", 4.0 * scale, unit_cost=1.0, duty=(3, 7)),
                explicit_miner("duty2", 20.0 * scale, unit_cost=2.0, duty=(40, 10)),
            ],
        )
        window = cfg.pom.window
        state, draws = initial_state(cfg, np.random.default_rng(cfg.seed)), draws_for(cfg)
        seen, mults = [], []
        for _ in range(window + 100):
            state, rec = step(state, cfg, draws)
            seen.append(state.avail)  # the availability this block was drawn from
            starts = state.epoch_start
            assert all(a < b for a, b in zip(starts, starts[1:]))  # one epoch per height
            w = state.ids.index(rec.winner)
            # the blocks before this one, at most a window of them (none at genesis)
            history = deque((avail[w] for avail in seen[:-1]), maxlen=window)
            agent = MinerAgent(id=rec.winner, hashrate=1.0, unit_cost=0.0, history=history)
            assert rec.pom_multiplier == pom_multiplier(agent, cfg.pom)
            mults.append(rec.pom_multiplier)
        assert mults[:window] == [1.0] * window
        assert min(mults[window:]) < 1.0
        assert (state.passes > state.height) == stalls  # each stall quantum is a pass

    @settings(max_examples=100, deadline=None)
    @given(
        miners=st.lists(
            st.tuples(
                st.floats(0.5, 20.0),
                st.floats(0.0, 2.0),
                st.none() | st.tuples(st.integers(1, 60), st.integers(0, 60)),
            ),
            min_size=1,
            max_size=8,
        ),
        horizon=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_aggregates_are_a_dense_recount_of_availability(self, miners, horizon, seed):
        cfg = dataclasses.replace(
            load_config("configs/dynamics.json"),
            horizon=horizon,
            seed=seed,
            explicit_population=[
                explicit_miner(f"m{i}", h, unit_cost=c, duty=duty)
                for i, (h, c, duty) in enumerate(miners)
            ],
        )
        hashrate = np.array([h for h, _, _ in miners])
        is_large = hashrate > cfg.large_threshold
        passes = []  # each decision pass's state.active, taken as it starts

        def recorded(state, *args):
            passes.append(state.active.copy())
            return decision_pass(state, *args)

        decision_pass = simulator._decision_pass
        state, draws = initial_state(cfg, np.random.default_rng(seed)), draws_for(cfg)
        with (
            mock.patch.object(simulator, "_decision_pass", recorded),
            mock.patch.object(simulator, "_MAX_STALL_QUANTA", 1000),
        ):
            for _ in range(horizon):
                try:
                    state, rec = step(state, cfg, draws)
                except InternalError as exc:  # a stall that does not end soon
                    assert "network stalled" in str(exc)
                    break
                # the block's pass is the step's last, and no flip came between it and the draw
                active = passes[-1]
                avail = np.array([
                    bool(active[i]) and (duty is None or rec.height % sum(duty) < duty[0])
                    for i, (_, _, duty) in enumerate(miners)
                ])
                total = float(np.add.reduce(hashrate[avail]))
                assert rec.active_miner_count == np.count_nonzero(avail)
                assert rec.total_hash == total
                assert rec.large_miner_share == np.add.reduce(hashrate[avail & is_large]) / total
                assert avail[state.ids.index(rec.winner)]


class TestStallRecovery:
    def test_network_restarts_after_total_exit(self):
        # genesis difficulty is far past the cutoff, so the miner exits at once;
        # stall decay must walk difficulty back into the profitable band
        cfg = make_config(
            horizon=50,
            explicit_population=[explicit_miner("m", 100.0, unit_cost=2.0)],
            economics=EconomicsConfig(dwell=0),
            price=PricePath(constant=30.0),
        )
        series = run(cfg)
        assert len(series.records) == 50
        assert all(r.active_miner_count == 1 for r in series.records)


    def test_a_block_that_does_not_advance_the_clock_is_an_error(self):
        # intervals near 1e-300 s are lost in a clock of thousands of seconds
        cfg = dataclasses.replace(
            load_config("configs/dynamics.json"), horizon=300, rate_constant=1e300
        )
        with pytest.raises(InternalError, match=r"^block interval .* s does not advance the "
                           r"clock 7050\.0 s at height 29$"):
            run(cfg)

    def test_stall_error_carries_the_state(self, monkeypatch):
        # two costly full-time miners leave, and the duty miners that stay active are
        # in their off phase: the stall loop does not advance the height, so the
        # network cannot restart
        monkeypatch.setattr(simulator, "_MAX_STALL_QUANTA", 100)
        cfg = dataclasses.replace(
            load_config("configs/dynamics.json"),
            seed=0,
            explicit_population=[
                explicit_miner("f0", 10.0, unit_cost=1.0),
                explicit_miner("f1", 10.0, unit_cost=1.0),
                explicit_miner("d0", 1.0, unit_cost=0.5, duty=(5, 5)),
                explicit_miner("d1", 1.0, unit_cost=0.5, duty=(3, 7)),
                explicit_miner("d2", 1.0, unit_cost=0.5, duty=(40, 10)),
            ],
        )
        with pytest.raises(InternalError) as info:
            run(cfg)
        msg = str(info.value)
        assert "within 100 quanta at height 249, clock " in msg
        assert ", difficulty 1e-06, price 30.0;" in msg
        assert msg.endswith("3 active miner(s) held off only by their duty phase")


class TestVectorizedDecisions:
    def test_matches_scalar_decide(self):
        rng = np.random.default_rng(3)
        agents = [
            explicit_miner(f"m{i}", float(h), float(c))
            for i, (h, c) in enumerate(zip(rng.uniform(0.5, 20, 30), rng.uniform(0.0, 3.0, 30)))
        ]
        for i, m in enumerate(agents):
            m.active = bool(i % 3)
        cfg = make_config(
            explicit_population=agents, economics=EconomicsConfig(dwell=0)
        )
        state = initial_state(cfg, np.random.default_rng(cfg.seed))
        total = float(state.hashrate[state.active].sum())
        block_reward, price = 4.2, 30.0

        expected = []
        for m in agents:  # an inactive miner is judged by its share after joining
            rev = expected_revenue_rate(m, total, block_reward, price, 120.0)
            expected.append(
                decide(m, rev, cfg.economics.margin_on, cfg.economics.margin_off, dwell=0).active
            )

        _decision_pass(state, cfg, Draws(99, 0), block_reward, price, total)
        assert list(state.active) == expected


def decide_all(active, ready, revenue, on_cost, off_cost):
    """The dense entry/exit rule over the whole population, in place; returns the flips."""
    flips = np.where(active, revenue < off_cost, revenue >= on_cost)
    flips &= ready
    active ^= flips
    return flips


def set_dwell(state, left):
    """Make miner i ready from `left[i]` decision passes on: now when 0."""
    state.ready_active.clear()
    state.ready_inactive.clear()
    state.due.clear()
    for i, wait in enumerate(left):
        entry = state.active_entry[i] if state.active[i] else state.inactive_entry[i]
        if wait:
            state.due[state.passes + int(wait)].append(entry)
        else:
            (state.ready_active if state.active[i] else state.ready_inactive).append(entry)
    state.ready_active.sort()
    state.ready_inactive.sort()


def ready_miners(state):
    """The miners that may flip at the next decision pass, after checking the lists."""
    on, off = state.ready_active, state.ready_inactive
    assert on == sorted(on) and off == sorted(off)
    assert on == [state.active_entry[e[1]] for e in on] and all(state.active[e[1]] for e in on)
    assert off == [state.inactive_entry[e[1]] for e in off] and not any(state.active[e[1]] for e in off)
    return sorted(e[1] for e in on + off + state.due.get(state.passes, []))


def costs(state):
    """The (on_cost, off_cost) arrays of the population."""
    return np.array([e[3] for e in state.active_entry]), np.array([e[4] for e in state.active_entry])


def check_against_decide_all(cfg, state, left, seed, conditions):
    """Run `_decision_pass` under each (block_reward, total) and the dense rule beside it.

    Returns, per pass, the number of flips and of miners whose dwell ran out.
    """
    h, target, dwell = state.hashrate, cfg.retarget.target_interval, cfg.economics.dwell
    on_cost, off_cost = costs(state)
    left = np.array(left)
    set_dwell(state, left)
    active = state.active.copy()
    draws, jitter_ref = _RecordedJitter(seed, dwell), _children(seed)[2]
    jitters = []  # the jitter values the dense pass drew, in order
    seen = []
    for block_reward, total in conditions:
        _decision_pass(state, cfg, draws, block_reward, 30.0, total)

        # the dense pass: a dwell countdown on every miner, the rule on all of them
        busy = left > 0
        left -= busy
        expired = int(np.count_nonzero(busy & (left == 0)))
        prospective = np.where(active, max(total, 1e-300), total + h)
        rev = revenue_rate(h, prospective, block_reward, 30.0, target)
        flips = decide_all(active, ~busy, rev, on_cost, off_cost)
        if flips.any() and dwell > 0:
            drawn = [int(jitter_ref.integers(dwell)) for _ in range(np.count_nonzero(flips))]
            left[flips] = dwell + np.array(drawn)
            jitters += drawn

        assert list(state.active) == list(active)
        assert ready_miners(state) == list(np.flatnonzero(left == 0))
        assert draws.jitters == jitters
        seen.append((int(np.count_nonzero(flips)), expired))
    return seen


def _children(seed):
    """Generators on the seed's three child seeds: the interval, winner and jitter streams."""
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(3)]


class _RecordedJitter(Draws):
    """A `Draws` that keeps the jitter values it draws (none while dwell is 0)."""

    def __init__(self, seed, dwell):
        super().__init__(seed, dwell)
        self.jitters = []

    def jitter(self, n):
        out = super().jitter(n)
        if self._dwell:
            self.jitters += out
        return out


class TestDraws:
    """Each stream of `Draws` is the scalar draws of its own child generator, in order:
    drawing 4,096 at a time changes no value."""

    BATCH = simulator._BATCH

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
    def test_intervals_and_winners_across_refills(self, seed):
        draws, (intervals, winners, _) = Draws(seed, 30), _children(seed)
        n = 2 * self.BATCH + 3
        expected = [intervals.standard_exponential() for _ in range(n)]
        assert [draws.interval() for _ in range(n)] == expected
        assert [draws.uniform() for _ in range(n)] == [winners.random() for _ in range(n)]

    @pytest.mark.parametrize("base", [1, 2, 30, 1000, 2**31 + 5, 10**12])
    def test_jitter_across_refills_straddles_and_a_set_larger_than_a_batch(self, base):
        # 10**12 takes numpy's 64-bit path, the others its buffered 32-bit one
        for seed in range(3):
            draws, jitters = Draws(seed, base), _children(seed)[2]
            # the set of 7 straddles the first refill; the set of 4,100, larger than
            # a batch, and the one of exactly 4,096 each straddle another
            for n in [1, 2, self.BATCH - 6, 7, self.BATCH + 4, self.BATCH, 3]:
                assert draws.jitter(n) == [int(jitters.integers(base)) for _ in range(n)]

    def test_no_jitter_is_drawn_when_dwell_is_0(self):
        draws, jitters = Draws(5, 0), _children(5)[2]
        for n in (1, 3, self.BATCH + 1):
            assert draws.jitter(n) == [0] * n
        assert draws._jitters.bit_generator.state == jitters.bit_generator.state

    def test_jitter_leaves_the_interval_and_winner_streams_where_they_were(self):
        draws, (intervals, winners, _) = Draws(7, 30), _children(7)
        for n in range(1, 200):
            assert draws.jitter(n)
            assert draws.interval() == intervals.standard_exponential()
            assert draws.uniform() == winners.random()


class TestDecisionPass:
    """`_decision_pass` judges only candidates, and flips what `decide_all` would."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_decide_all_over_the_whole_population(self, data):
        n = data.draw(st.integers(1, 12), label="miners")
        dwell = data.draw(st.sampled_from([0, 1, 3, 30]), label="dwell")
        miners = data.draw(
            st.lists(
                st.tuples(
                    st.floats(0.1, 30.0),
                    st.just(0.0) | st.floats(0.0, 3.0),
                    st.booleans(),
                    st.integers(0, 2 * dwell),
                ),
                min_size=n,
                max_size=n,
            ),
            label="(hashrate, unit_cost, active, dwell left)",
        )
        agents = [
            MinerAgent(id=f"m{i}", hashrate=h, unit_cost=c, active=a)
            for i, (h, c, a, _) in enumerate(miners)
        ]
        cfg = make_config(explicit_population=agents, economics=EconomicsConfig(dwell=dwell))
        state = initial_state(cfg, np.random.default_rng(0))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        base_reward = data.draw(st.floats(0.0, 20.0), label="reward")
        base_total = data.draw(st.floats(1.0, 200.0), label="total")
        conditions = [
            # mostly the same conditions pass after pass, so most passes judge nobody
            (base_reward * data.draw(st.sampled_from([1.0, 1.0, 1.0, 0.5, 2.0])),
             base_total * data.draw(st.sampled_from([1.0, 1.0, 0.98, 1.02, 0.0])))
            for _ in range(data.draw(st.integers(1, 40), label="passes"))
        ]
        check_against_decide_all(cfg, state, [m[3] for m in miners], seed, conditions)

    @pytest.mark.parametrize("dwell", [0, 3])
    def test_many_flips_and_expiries_in_one_pass(self, dwell):
        # 300 miners whose keys spread around x: each swing of the reward flips
        # dozens, and with a dwell of 3 dozens come out of it at the same pass
        rng = np.random.default_rng(11)
        agents = [
            MinerAgent(id=f"m{i}", hashrate=float(h), unit_cost=float(c), active=bool(a))
            for i, (h, c, a) in enumerate(
                zip(rng.uniform(0.5, 5.0, 300), rng.uniform(0.5, 1.5, 300), rng.random(300) < 0.5)
            )
        ]
        cfg = make_config(explicit_population=agents, economics=EconomicsConfig(dwell=dwell))
        state = initial_state(cfg, np.random.default_rng(0))
        total = 400.0
        unit = revenue_rate(1.0, total, 1.0, 30.0, cfg.retarget.target_interval)  # x at reward 1
        conditions = [(x / unit, total) for x in [0.6, 1.4, 0.9, 1.1, 0.7, 1.3] * 4]
        seen = check_against_decide_all(
            cfg, state, rng.integers(0, 2 * dwell + 1, 300), 5, conditions
        )
        assert max(f for f, _ in seen) >= 50
        if dwell:
            assert max(e for _, e in seen) >= 30

    @pytest.mark.parametrize(
        "hashrate,unit_cost,reward,total",
        [(1.0, 5e-324, 5e-324, 2.0), (5e-324, 1.0, 1.0, 2.0), (1.0, 1.5e308, 1e307, 100.0)],
        ids=["subnormal-reward", "subnormal-hashrate", "overflowing-x"],
    )
    def test_products_outside_the_normal_range_are_judged_in_full(
        self, hashrate, unit_cost, reward, total
    ):
        # rounding there leaves any relative margin: the dense rule flips this miner
        agents = [MinerAgent(id="m", hashrate=hashrate, unit_cost=unit_cost)]
        cfg = make_config(explicit_population=agents, economics=EconomicsConfig(dwell=0))
        state = initial_state(cfg, np.random.default_rng(0))
        assert check_against_decide_all(cfg, state, [0], 0, [(reward, total)]) == [(1, 0)]

    @staticmethod
    def _ready_state(miners, passes, left=None):
        """A dwell-free state at pass `passes`: miner i ready from `left[i]` passes on (0: now)."""
        cfg = make_config(explicit_population=miners, economics=EconomicsConfig(dwell=0))
        state = initial_state(cfg, np.random.default_rng(0))
        state.passes = passes
        set_dwell(state, left or [0] * len(miners))
        return cfg, state

    @staticmethod
    def _reward_for(state, cfg, i, revenue, prospective):
        """The block reward at which miner `i` earns `revenue` at `prospective` total."""
        unit = revenue_rate(state.hashrate[i], prospective, 1.0, 30.0, cfg.retarget.target_interval)
        return revenue / unit

    @pytest.mark.parametrize("active", [True, False])
    def test_a_miner_just_past_its_threshold_is_not_skipped(self, active):
        # a 2e5 zero-cost miner sets the total, so the inactive miner's prospective
        # share is within 1e-5 of its share of the total: the margin must still hold
        cfg, state = self._ready_state(
            [MinerAgent(id="m", hashrate=2.0, unit_cost=1.0, active=active),
             MinerAgent(id="big", hashrate=2e5, unit_cost=0.0)],
            passes=1,
        )
        on_cost, off_cost = costs(state)
        total = float(np.add.reduce(state.hashrate[state.active]))
        if active:  # 1e-10 below the exit threshold
            block_reward = self._reward_for(state, cfg, 0, off_cost[0] * (1 - 1e-10), total)
        else:  # 1e-10 above the entry threshold
            block_reward = self._reward_for(state, cfg, 0, on_cost[0] * (1 + 1e-10), total + 2.0)
        _decision_pass(state, cfg, Draws(0, 0), block_reward, 30.0, total)
        assert state.active[0] != active

    @staticmethod
    def _conditions_with_bound_at(cfg, key):
        """A (block_reward, total) at which the pass's x * (1 + margin) is exactly `key`."""
        t = cfg.retarget.target_interval
        for total in np.linspace(10.0, 12.0, 9).tolist():
            reward = key / (1.0 + simulator._MARGIN) * total / (30.0 * (3600.0 / t))
            for _ in range(8):  # step the reward by ulps onto the bound
                hi = reward * 30.0 * (3600.0 / t) / total * (1.0 + simulator._MARGIN)
                if hi == key:
                    return reward, total
                reward = math.nextafter(reward, math.inf if hi < key else -math.inf)
        raise AssertionError(f"no reward puts the bound at {key!r}")

    @staticmethod
    def _count_judged(monkeypatch):
        """Collect the kernel's `flips` calls: one per judged miner."""
        calls, flips = [], simulator.flips

        def counted(*args):
            calls.append(args)
            return flips(*args)

        monkeypatch.setattr(simulator, "flips", counted)
        return calls

    @pytest.mark.parametrize("above", [False, True], ids=["at-the-bound", "one-ulp-above"])
    def test_only_keys_past_the_upper_bound_leave_unjudged(self, above, monkeypatch):
        # m's key is x * (1 + margin), or one ulp above it; far's key is 50 times
        # that, low's a tenth: m is judged only at the bound, far never, low never
        cfg, state = self._ready_state(
            [MinerAgent(id="low", hashrate=2.0, unit_cost=0.1),
             MinerAgent(id="m", hashrate=2.0, unit_cost=1.0),
             MinerAgent(id="far", hashrate=3.0, unit_cost=50.0)],
            passes=1,
        )
        key = state.active_entry[1][0]
        reward, total = self._conditions_with_bound_at(
            cfg, math.nextafter(key, -math.inf) if above else key
        )
        judged = self._count_judged(monkeypatch)
        assert check_against_decide_all(cfg, state, [0, 0, 0], 0, [(reward, total)]) == [(2, 0)]
        assert len(judged) == (0 if above else 1)
        assert list(state.active) == [True, False, False]

    @pytest.mark.parametrize(
        "reward,total,judged,flipped",
        [(1e-3, 10.0, 0, 3), (1e-300, 10.0, 3, 3), (4.2, 0.0, 3, 0)],
        ids=["all-above-the-bound", "reward-out-of-range", "stall-quantum"],
    )
    def test_certain_exits_need_the_exact_test(self, reward, total, judged, flipped, monkeypatch):
        # every ready active miner's key is far above x * (1 + margin) at the
        # first condition: all of `ready_active` leaves as one slice.  Outside
        # the exact test (a reward below 2**-800, a stall) each one is judged
        cfg, state = self._ready_state(
            [MinerAgent(id=f"m{i}", hashrate=h, unit_cost=1.0) for i, h in enumerate([1.0, 2.0, 7.0])],
            passes=1,
        )
        calls = self._count_judged(monkeypatch)
        assert check_against_decide_all(cfg, state, [0, 0, 0], 0, [(reward, total)]) == [(flipped, 0)]
        assert len(calls) == judged

    def test_a_dwell_expiry_brings_the_miner_into_the_bounds(self):
        cfg, state = self._ready_state(
            [MinerAgent(id="m", hashrate=2.0, unit_cost=1.0),
             MinerAgent(id="big", hashrate=20.0, unit_cost=0.0)],
            passes=1,
            left=[1, 0],  # m is still in its dwell at pass 1
        )
        draws, total, off_cost = Draws(0, 0), 22.0, costs(state)[1]
        stay = self._reward_for(state, cfg, 0, off_cost[0] * 2.0, total)
        leave = self._reward_for(state, cfg, 0, off_cost[0] * 0.5, total)
        _decision_pass(state, cfg, draws, leave, 30.0, total)  # pass 1: only big is ready
        assert state.active[0]
        _decision_pass(state, cfg, draws, stay, 30.0, total)  # pass 2: m is ready and stays
        assert state.active[0]
        _decision_pass(state, cfg, draws, leave, 30.0, total)  # pass 3: m leaves
        assert not state.active[0]

    def test_with_no_dwell_a_flipped_miner_is_judged_in_its_new_state(self):
        cfg, state = self._ready_state(
            [MinerAgent(id="m", hashrate=2.0, unit_cost=1.0),
             MinerAgent(id="big", hashrate=20.0, unit_cost=0.0)],
            passes=1,
        )
        draws, (on_cost, off_cost) = Draws(0, 0), costs(state)
        leave = self._reward_for(state, cfg, 0, off_cost[0] * 0.5, 22.0)
        enter = self._reward_for(state, cfg, 0, on_cost[0] * 2.0, 22.0)
        _decision_pass(state, cfg, draws, leave, 30.0, 22.0)  # m leaves
        assert not state.active[0]
        _decision_pass(state, cfg, draws, leave, 30.0, 20.0)  # the pass after a flip
        assert not state.active[0]
        _decision_pass(state, cfg, draws, enter, 30.0, 20.0)  # m is ready at once and enters
        assert state.active[0]

    def test_quiet_network_skips_its_passes(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(1)
            return revenue_rate(*args)

        def judged(constant_reward):
            calls.clear()
            run(make_config(horizon=300, constant_reward=constant_reward))
            return len(calls)

        monkeypatch.setattr(simulator, "revenue_rate", counted)
        # constant reward: nobody's threshold is near x, so no miner is judged;
        # at the cutoff miners flip, and so are judged
        assert judged(True) < 300 // 3
        assert judged(False) > 0


class TestLargeMinerRule:
    """A miner is large when its hashrate is above `SimConfig.large_threshold`."""

    @staticmethod
    def shares(hashrates, threshold=5.0):
        """(initial_large_share, the first record's large_miner_share) of an always-on network."""
        miners = [explicit_miner(f"m{i}", h) for i, h in enumerate(hashrates)]
        cfg = make_config(explicit_population=miners, horizon=1, large_threshold=threshold)
        series = run(cfg)
        return series.summary.initial_large_share, series.records[0].large_miner_share

    def test_all_small(self):
        assert self.shares([1.0, 2.0, 4.9]) == (0.0, 0.0)

    def test_all_large(self):
        assert self.shares([6.0, 20.0]) == (1.0, 1.0)

    def test_mixed(self):
        assert self.shares([2.0, 2.0, 6.0]) == pytest.approx((0.6, 0.6))

    def test_no_active_miner(self):
        miners = [explicit_miner("a", 1.0), explicit_miner("b", 6.0)]
        for m in miners:
            m.active = False
        series = run(make_config(explicit_population=miners, horizon=0))
        assert series.summary.initial_large_share == 0.0

    def test_threshold_is_exclusive(self):
        # the default threshold is 5.0: a miner of exactly 5.0 is small
        assert make_config().large_threshold == 5.0
        assert self.shares([5.0, 6.0]) == (6 / 11, 6 / 11)

    def test_bad_threshold(self):
        with pytest.raises(ConfigError, match=r"large_threshold"):
            make_config(large_threshold=0.0)

    @settings(deadline=None)
    @given(
        st.lists(st.floats(0.1, 100.0), min_size=1, max_size=30),
        st.floats(0.5, 50.0),
    )
    def test_scale_invariant_and_bounded(self, hs, k):
        s = self.shares(hs)
        assert all(0.0 <= x <= 1.0 for x in s)
        # jointly rescaling hashrates and the threshold preserves the share
        assert self.shares([h * k for h in hs], threshold=5.0 * k) == pytest.approx(s)


class TestConfigDigest:
    def test_digest_changes_with_config(self):
        c1 = make_config(horizon=500)
        c2 = make_config(horizon=501)
        assert c1.digest() != c2.digest()
        assert c1.digest() == make_config(horizon=500).digest()

    def test_digest_ignores_seed(self):
        # the digest identifies the experiment; seeds within a sweep share it
        assert make_config(seed=0).digest() == make_config(seed=1).digest()
