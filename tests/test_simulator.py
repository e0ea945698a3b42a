import dataclasses
from collections import Counter, deque

import numpy as np
import pytest

from pomsim.agents import (
    MinerAgent,
    PopulationSpec,
    decide,
    expected_revenue_rate,
    pom_multiplier,
)
from pomsim.config import load_config
from pomsim import simulator
from pomsim.difficulty import hash_to_difficulty, retarget
from pomsim.errors import InternalError
from pomsim.simulator import (
    EconomicsConfig,
    PricePath,
    SimConfig,
    _decide_all,
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


class TestDegenerateRuns:
    def test_horizon_zero(self):
        series = run(make_config(horizon=0))
        assert series.records == []
        assert series.summary.mean_hashrate is None
        assert series.summary.initial_hashrate > 0.0

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


class _TopDraw:
    """A generator whose uniform draw is always 1.0, the top of the range."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self):
        return 1.0

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestWinnerAvailability:
    def test_top_draw_picks_last_available_miner(self):
        last_off = explicit_miner("c", 5.0)
        last_off.active = False
        cfg = make_config(
            explicit_population=[explicit_miner("a", 10.0), explicit_miner("b", 30.0), last_off],
            constant_reward=True,
        )
        state = initial_state(cfg, np.random.default_rng(cfg.seed))
        _, rec = step(state, cfg, _TopDraw(cfg.seed))
        assert rec.winner == "b"

    def test_stall_heavy_run_keeps_invariants(self, monkeypatch):
        # 2,000 miners overshoot the cutoff: mass exits, stall quanta, re-entry
        cfg = dataclasses.replace(
            load_config("configs/dynamics.json"),
            horizon=300,
            population=PopulationSpec(n_small=1936, n_large=64),
        )
        retargets = []

        def counted(rt, interval):
            retargets.append(interval)
            return retarget(rt, interval)

        monkeypatch.setattr(simulator, "retarget", counted)
        rng = np.random.default_rng(cfg.seed)
        state = initial_state(cfg, rng)
        index = {mid: i for i, mid in enumerate(state.ids)}
        window = cfg.pom.window
        clock = 0.0
        for _ in range(cfg.horizon):
            state, rec = step(state, cfg, rng)
            written = state.hist[(state.hist_pos - 1) % window]
            assert written[index[rec.winner]]
            assert rec.credited_reward <= rec.raw_reward
            assert 0.0 <= rec.pom_multiplier <= 1.0
            assert 0.0 <= rec.large_miner_share <= 1.0
            assert rec.timestamp > clock
            clock = rec.timestamp
        assert len(retargets) > cfg.horizon  # the run went through the stall loop


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


    def test_credit_is_the_scalar_rule_over_the_winners_availability(self):
        # full0 costs nothing and never leaves, so the run never stalls and the
        # availability taken before each step is the one the step records
        cfg = dataclasses.replace(
            load_config("configs/dynamics.json"),
            explicit_population=[
                explicit_miner("full0", 12.0),
                explicit_miner("full1", 6.0, unit_cost=1.5),
                explicit_miner("duty0", 10.0, unit_cost=0.5, duty=(5, 5)),
                explicit_miner("duty1", 4.0, unit_cost=1.0, duty=(3, 7)),
                explicit_miner("duty2", 20.0, unit_cost=2.0, duty=(40, 10)),
            ],
        )
        window = cfg.pom.window
        rng = np.random.default_rng(cfg.seed)
        state = initial_state(cfg, rng)
        seen, mults = [], []
        for _ in range(2 * window):
            seen.append(simulator._available(state).copy())
            state, rec = step(state, cfg, rng)
            w = state.ids.index(rec.winner)
            # the blocks before this one, at most a window of them (none at genesis)
            history = deque((avail[w] for avail in seen[:-1]), maxlen=window)
            agent = MinerAgent(id=rec.winner, hashrate=1.0, unit_cost=0.0, history=history)
            assert rec.pom_multiplier == pom_multiplier(agent, cfg.pom)
            mults.append(rec.pom_multiplier)
        assert mults[:window] == [1.0] * window
        assert min(mults[window:]) < 1.0


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
        assert "within 100 quanta at height 245, clock " in msg
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
        for m in agents:
            prospective = total if m.active else total + m.hashrate
            rev = expected_revenue_rate(m, prospective, block_reward, price, 120.0)
            expected.append(
                decide(m, rev, cfg.economics.margin_on, cfg.economics.margin_off, dwell=0).active
            )

        _decide_all(state, cfg, np.random.default_rng(99), block_reward, price, total)
        assert list(state.active) == expected


class TestConfigDigest:
    def test_digest_changes_with_config(self):
        c1 = make_config(horizon=500)
        c2 = make_config(horizon=501)
        assert c1.digest() != c2.digest()
        assert c1.digest() == make_config(horizon=500).digest()

    def test_digest_ignores_seed(self):
        # the digest identifies the experiment; seeds within a sweep share it
        assert make_config(seed=0).digest() == make_config(seed=1).digest()
