import copy
import csv
import dataclasses
import json
import math
import operator
import re
from bisect import bisect_right
from collections import Counter
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from pomsim.agents import (
    EconomicsConfig,
    MinerAgent,
    PomCredit,
    generate_population,
    revenue_rate,
)
from pomsim.config import PricePath, config_from_dict, load_config
from pomsim.difficulty import RetargetConfig, hash_to_difficulty
import pomsim
from pomsim import agents, difficulty, reward_curve, simulator
from pomsim.errors import ConfigError, DomainError, InternalError, ParameterError, PomSimError
from pomsim.metrics import EquilibriumSummary, equilibrium_summary
from pomsim.simulator import (
    BlockRecord,
    Draws,
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

import dense_model
from test_golden_traces import PINNED, assert_invariants, csv_lines, duty_miners

SCHEDULE = calibrate_schedule(1.75, 2.20, 2.37, 9.0)
DYNAMICS = load_config("configs/dynamics.json")
NO_EXPLAIN = set(Phase) - {Phase.explain}  # explaining a kernel-model failure takes a minute
CONFIG_PATH = "configs/example.json"


def explicit_miner(mid, hashrate, unit_cost=0.0, duty=None):
    return MinerAgent(id=mid, hashrate=hashrate, unit_cost=unit_cost, duty=duty)


def make_config(**kw):
    defaults = dict(schedule=SCHEDULE, horizon=500, seed=0)
    defaults.update(kw)
    return SimConfig(**defaults)


# the scalar API: (defining module, rule, whether the kernel imports it by name)
RULES = [(agents, "revenue_rate", True), (agents, "flips", True),
         (agents, "EconomicsConfig.costs", False), (agents, "pom_credit", True),
         (difficulty, "retarget", True)]


@pytest.mark.parametrize("module,name,imported", RULES, ids=[r[1] for r in RULES])
def test_the_package_exports_the_rule_that_the_kernel_calls(module, name, imported):
    # one object each, so the kernel runs the public rule and not a copy; it reaches
    # `costs` through `config.economics`
    rule = operator.attrgetter(name)(module)
    assert operator.attrgetter(name)(pomsim) is rule
    assert name.split(".")[0] in pomsim.__all__
    if imported:
        assert getattr(simulator, name) is rule


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
            DYNAMICS,
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

    # integers at and past the int64 and uint64 edges, for every integer field
    # but the population counts (a huge count only exhausts memory)
    _INTS = st.sampled_from([0, 1, 2**31, 2**62, 2**63 - 1, 2**63, 2**64, 10**30])

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.fixed_dictionaries(
            {"horizon": st.integers(1, 100), "seed": _INTS},
            optional={
                "economics": st.fixed_dictionaries({"dwell": _INTS}),
                "pom": st.fixed_dictionaries({"window": _INTS, "required": _INTS}),
                "price": st.builds(
                    lambda at: {"initial": 30.0, "factor": 0.5, "at_block": at}, _INTS
                ),
                "population": st.lists(
                    st.tuples(st.floats(1.0, 30.0), st.tuples(_INTS, _INTS) | st.none()),
                    min_size=1, max_size=3,
                ).map(lambda ms: {"explicit": [
                    {"hashrate": h, "unit_cost": 0.5, **({"duty": list(d)} if d else {})}
                    for h, d in ms
                ]}),
            },
        )
    )
    def test_integer_extremes_give_a_sound_run_or_a_typed_error(self, data):
        base = json.loads(Path("configs/dynamics.json").read_text(encoding="utf-8"))
        try:
            cfg = config_from_dict({**base, **data})
        except ConfigError:
            return
        try:  # the stalls that end here last at most a few dozen quanta
            with mock.patch.object(simulator, "_MAX_STALL_QUANTA", 1000):
                series = run(cfg)
        except PomSimError:
            return
        assert_invariants(series.records, series.summary.r_max)
        summary = dataclasses.astuple(series.summary)
        assert all(math.isfinite(v) for v in summary)


def draws_for(cfg):
    """The draw source `run` gives `step` for this config."""
    return Draws(cfg.seed, cfg.economics.dwell)


def assert_toggles_track_active(state):
    """Each miner's toggle heights strictly increase, and their count is odd
    exactly when it is active."""
    assert [len(t) % 2 == 1 for t in state.toggles] == state.active.tolist()
    assert all(all(map(operator.lt, t, t[1:])) for t in state.toggles)


def checking_toggles():
    """A patch under which every decision pass, stall quanta included, ends with
    `assert_toggles_track_active`."""
    decision_pass = simulator._decision_pass

    def checked(state, *args):
        decision_pass(state, *args)
        assert_toggles_track_active(state)

    return mock.patch.object(simulator, "_decision_pass", checked)


def clone(state):
    """A deep copy of `state`.  `copy.deepcopy` copies `active` apart from `flags`, so
    the copy's `active` is pointed back at its own `flags`, as `initial_state` builds it."""
    twin = copy.deepcopy(state)
    twin.active = np.frombuffer(twin.flags, np.bool_)
    return twin


def available(state):
    """`state.idx`, the available miners, as a mask over all of them."""
    mask = np.zeros(len(state.ids), dtype=bool)
    mask[state.idx] = True
    return mask


class _FixedDraw(Draws):
    """A draw source whose uniform draw is always `u`."""

    def __init__(self, seed, dwell, u):
        super().__init__(seed, dwell)
        self.uniform = lambda: u


class TestWinnerAvailability:
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
            probe = clone(state)  # the availability this block draws over
            assert np.shares_memory(probe.active, np.frombuffer(probe.flags, np.bool_))
            step(probe, cfg, Draws(0, cfg.economics.dwell))
            avail = available(probe)
            cum = (probe.hashrate * avail).cumsum()
            bounds = cum[avail] / probe.total
            for u in [0.0, math.nextafter(1.0, 0.0), 1.0, *bounds.tolist()]:
                rec = step(clone(state), cfg, _FixedDraw(0, cfg.economics.dwell, u))
                w = int(cum.searchsorted(u * rec.total_hash, "right"))
                if w == len(cum):
                    w = int(cum.searchsorted(cum[-1]))
                assert rec.winner == state.ids[w]
                assert type(rec.active_miner_count) is int
                assert rec.active_miner_count == np.count_nonzero(avail)
            step(state, cfg, draws)

    def test_stall_heavy_run_keeps_invariants(self, monkeypatch):
        # the cliff-s0 trace, whose records `test_golden_traces` checks against the
        # dense model: 2,000 miners overshoot the cutoff, with mass exits, stall
        # quanta and re-entry.  Its stalls last a few quanta, so a stall that
        # cannot end fails after 1,000 and not after 100,000
        monkeypatch.setattr(simulator, "_MAX_STALL_QUANTA", 1000)
        cfg = PINNED["cliff-s0"]
        state, draws = initial_state(cfg, np.random.default_rng(cfg.seed)), draws_for(cfg)
        with checking_toggles():  # after every pass, stall quanta included
            for _ in range(cfg.horizon):
                rec = step(state, cfg, draws)
                assert rec.total_hash == state.total == state.cum[-1]  # one sum, bit for bit
        assert state.passes > state.height  # a pass per block and per stall quantum: it stalled
        # the pass writes the byte flags; `active` is the same memory, so `_refresh` reads them
        assert np.shares_memory(state.active, np.frombuffer(state.flags, np.bool_))
        assert [len(t) % 2 for t in state.toggles] == list(state.flags)
        assert state.active.tolist() == list(map(bool, state.flags))

    @pytest.mark.parametrize("name", ["cliff-s0", "duty-s0"])
    def test_each_refresh_copies_the_dense_availability(self, name, monkeypatch):
        # `step` bisects `idx` and `cum` as typed-array copies: after every refresh they
        # hold the dense mask's miners and their cumsum, element for element and bit for bit.
        # The large miners' sum is kept until their mask changes (at a flip in cliff-s0, at
        # a phase edge too in duty-s0), yet every refresh's share is the dense one
        monkeypatch.setattr(simulator, "_MAX_STALL_QUANTA", 1000)
        cfg = PINNED[name]
        refresh, heights, cycling = simulator._refresh, [], []

        def checked(state):
            refresh(state)
            if not heights:  # genesis: the cycling miners are fixed from here on
                cycling.extend((i, c) for i, c in enumerate(state.cycles) if c)
            avail = np.frombuffer(state.flags, np.bool_).copy()
            for i, c in cycling:
                avail[i] &= state.height % c[1] < c[0]
            idx = np.flatnonzero(avail)
            assert (state.idx.typecode, state.cum.typecode) == (idx.dtype.char, "d")
            assert state.idx.tolist() == idx.tolist()
            assert [*map(float.hex, state.cum)] == [*map(float.hex, state.hashrate[idx].cumsum())]
            large = avail & (state.hashrate > cfg.large_threshold)
            dense = np.where(large, state.hashrate, 0.0).cumsum()[-1]  # the others zeroed
            share = dense / state.total if large.any() else 0.0
            assert state.large_share.hex() == float(share).hex()
            heights.append(state.height)

        with mock.patch.object(simulator, "_refresh", checked):
            state = initial_state(cfg, np.random.default_rng(cfg.seed))
            draws = draws_for(cfg)
            for _ in range(cfg.horizon):
                step(state, cfg, draws)
        assert len(heights) > cfg.horizon // 4  # flips and phase edges: many refreshes
        twin = clone(state)  # the copies are deep-copied, not shared
        assert (twin.idx, twin.cum) == (state.idx, state.cum)
        assert twin.idx is not state.idx and twin.cum is not state.cum
        twin.cum[0] = math.nan
        assert state.cum[0] == state.hashrate[state.idx[0]]


def duty_population(credit, stalls):
    """The golden traces' duty miners under `credit`.  full0 costs nothing and never
    leaves, so the network never stalls.  With `stalls` full0 pays too and every
    hashrate is tripled: genesis difficulty lies past the cutoff, and at seed 2 the
    network stalls and recovers three times."""
    scale, cost0, seed = (3.0, 0.8, 2) if stalls else (1.0, 0.0, 0)
    miners = [dataclasses.replace(m, hashrate=m.hashrate * scale) for m in duty_miners()]
    miners[0].unit_cost = cost0
    return dataclasses.replace(DYNAMICS, seed=seed, pom=credit, explicit_population=miners)


class TestDutyCycle:
    def test_a_duty_cycle_without_an_off_phase_is_always_on(self):
        # [5, 0] and [1, 0] have phase edges every 5 blocks and every block, but
        # never take their miner out: the same bytes and no refresh at those edges
        def population(duty5, duty1):
            return dataclasses.replace(
                DYNAMICS,
                horizon=1000,
                constant_reward=True,
                explicit_population=[
                    explicit_miner("full", 10.0),
                    explicit_miner("on5", 4.0, duty=duty5),
                    explicit_miner("on1", 6.0, duty=duty1),
                ],
            )

        refresh, outputs, refreshes = simulator._refresh, [], []
        for cfg in (population(None, None), population((5, 0), (1, 0))):
            calls = []

            def counted(state):
                calls.append(state.height)
                refresh(state)

            with mock.patch.object(simulator, "_refresh", counted):
                outputs.append(csv_lines(run(cfg).records))
            refreshes.append(len(calls))
        assert outputs[0] == outputs[1]
        assert refreshes == [1, 1]  # genesis only: nobody flips at a constant reward

    @pytest.mark.parametrize(
        "credit,stalls",
        [(PomCredit(), False), (PomCredit(60, 40), False), (PomCredit(7, 3), False),
         (PomCredit(7, 3), True)],
        ids=["40-of-50", "40-of-60", "3-of-7", "3-of-7-stalling"],
    )
    def test_credit_is_the_scalar_rule_over_the_winners_availability(self, credit, stalls):
        # with `stalls` the network stalls and recovers three times; its stall
        # quanta flip miners at one height, where a second flip cancels the first
        window = credit.window
        cfg = dataclasses.replace(duty_population(credit, stalls), horizon=window + 100)
        state, draws = initial_state(cfg, np.random.default_rng(cfg.seed)), draws_for(cfg)
        with checking_toggles():
            records = [step(state, cfg, draws) for _ in range(cfg.horizon)]
        # the model's credit counts each block's availability, kept whole
        assert csv_lines(records) == csv_lines(list(dense_model.blocks(cfg)))
        mults = [r.pom_multiplier for r in records]
        assert mults[:window] == [1.0] * window
        assert min(mults[window:]) < 1.0
        assert (state.passes > state.height) == stalls  # each stall quantum is a pass

    @pytest.mark.parametrize("duty,credit", [
        ((40, 10), PomCredit(50, 40)), ((45, 5), PomCredit(50, 40)), ((25, 25), PomCredit(50, 50)),
        ((25, 25), PomCredit(50, 40)), ((1, 6), PomCredit(7, 3)), ((2, 5), PomCredit(14, 8)),
    ], ids=["40-10@50-40", "45-5@50-40-capped", "25-25@50-50", "25-25@50-40", "1-6@7-3",
            "2-5@14-8"])
    def test_credit_is_the_closed_form_of_a_period_that_divides_the_window(self, duty, credit):
        # every window holds window // period whole on-phases, whatever its phase;
        # `full` costs nothing and never leaves, and is available at every block
        on, off = duty
        cfg = dataclasses.replace(
            DYNAMICS, horizon=2000, constant_reward=True, pom=credit,
            explicit_population=[explicit_miner("full", 10.0),
                                 explicit_miner("duty", 10.0, duty=duty)],
        )
        past = [r for r in run(cfg).records if r.height >= credit.window]
        duty_credits = {r.pom_multiplier for r in past if r.winner == "duty"}
        assert {r.pom_multiplier for r in past if r.winner == "full"} == {1.0}
        assert duty_credits == {min(1.0, credit.window // (on + off) * on / credit.required)}

    def test_window_count_is_a_dense_recount_with_or_without_compaction(self):
        # every miner's count, after every block, against the availability each block
        # was drawn from; compaction on every append (`_KEEP` 0), and never, gives the
        # dense model's bytes
        cfg = dataclasses.replace(duty_population(PomCredit(7, 3), stalls=True), horizon=207)
        window, n = cfg.pom.window, len(cfg.explicit_population)
        outputs, stored = [], []
        for keep in (0, 2**62):
            state, draws = initial_state(cfg, np.random.default_rng(cfg.seed)), draws_for(cfg)
            seen, records = [], []
            with mock.patch.object(simulator, "_KEEP", keep):
                for _ in range(cfg.horizon):
                    records.append(step(state, cfg, draws))
                    seen.append(available(state).tolist())
                    b = state.height  # the next block's
                    dense = [sum(a[i] for a in seen[max(b - window, 0):b]) for i in range(n)]
                    assert [simulator._window_count(state, i, window) for i in range(n)] == dense
            assert state.passes > state.height  # it stalled
            outputs.append(csv_lines(records))
            stored.append(sum(map(len, state.toggles)))
        assert outputs[0] == outputs[1] == csv_lines(list(dense_model.blocks(cfg)))
        assert stored[0] < stored[1]  # compaction dropped toggles

    # duty cycles (on, off), with no off-phase and with periods at the int64 edge
    _CYCLES = st.sampled_from([(1, 0), (2**63 - 1, 0), (1, 2**63 - 2), (2**62, 2**62 - 1)]) | (
        st.tuples(st.integers(1, 2**62), st.integers(0, 2**62 - 1))
    )

    @given(on=st.integers(1, 12), off=st.integers(0, 12), t=st.integers(0, 200))
    def test_on_blocks_is_a_dense_count(self, on, off, t):
        period = on + off
        assert simulator._on_blocks(t, on, period) == sum(h % period < on for h in range(t))

    @given(cycle=_CYCLES, t=st.integers(0, 2**80))
    def test_on_blocks_counts_each_height_once(self, cycle, t):
        # f(0) = 0 and f(t + 1) - f(t) = [t % period < on] make f the dense count at
        # every t, by induction; large periods and heights reach it only this way
        on, period = cycle[0], sum(cycle)
        f = partial(simulator._on_blocks, on=on, period=period)
        assert f(0) == 0
        assert f(t + 1) - f(t) == (t % period < on)
        assert f(t + period) - f(t) == on  # one whole period
        for h in (period - 1, on - 1, on):  # the last height of a period and the phase edge
            assert f(h + 1) - f(h) == (h % period < on)

    def test_the_toggle_store_stays_within_its_bound(self, monkeypatch):
        # the cliff shape: 2,000 miners toggle 105,554 times in 3,000 blocks, so their
        # lists reach `_KEEP` toggles and are compacted by the appends that pass it.
        # Its longest stall is 8 quanta: one that cannot end fails after 1,000
        monkeypatch.setattr(simulator, "_MAX_STALL_QUANTA", 1000)
        cfg = dataclasses.replace(PINNED["cliff-s0"], horizon=3000, seed=7)
        keep, window = simulator._KEEP, cfg.pom.window
        state, draws = initial_state(cfg, np.random.default_rng(cfg.seed)), draws_for(cfg)
        stored, longest = [], 0
        for _ in range(cfg.horizon):
            step(state, cfg, draws)
            stored.append(sum(map(len, state.toggles)))
            longest = max(longest, *map(len, state.toggles))
            # a list past `_KEEP` holds no on/off pair that ended at or before height - window
            lo = state.height - window
            assert all(len(t) <= keep or bisect_right(t, lo) < 2 for t in state.toggles)
        assert longest == keep  # the lists reached the bound and were held at it
        assert max(stored) <= keep * 2000

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
        with checking_toggles():  # each re-entry pops its exit's toggle at the same height
            series = run(cfg)
        assert len(series.records) == 50
        assert all(r.active_miner_count == 1 for r in series.records)

    def test_an_empty_genesis_network_starts_at_the_maps_difficulty(self, monkeypatch):
        # no miner is active at genesis: the difficulty is the map's at a total of 0, its
        # intercept, and the stall decays it until a lone miner's revenue covers its
        # on-cost.  Started at the map's floor instead, no miner could ever re-enter
        monkeypatch.setattr(simulator, "_MAX_STALL_QUANTA", 1000)
        data = json.loads(Path("configs/dynamics.json").read_text())
        data.update(horizon=50, population={"explicit": [
            {"id": f"m{i}", "hashrate": 10.0, "unit_cost": 0.5, "active": False} for i in range(2)
        ]})
        cfg = config_from_dict(data)
        dmap = cfg.difficulty_map
        state = initial_state(cfg, np.random.default_rng(cfg.seed))
        assert state.total == 0.0
        assert state.difficulty == hash_to_difficulty(0.0, dmap) == dmap.intercept > dmap.floor
        records = run(cfg).records
        assert len(records) == 50
        assert records[0].difficulty < dmap.intercept  # reached by stall quanta alone
        assert csv_lines(records) == csv_lines(dense_model.blocks(cfg, max_stall_quanta=1000))


    def test_a_block_that_does_not_advance_the_clock_is_an_error(self):
        # intervals near 1e-300 s are lost in a clock of thousands of seconds
        cfg = dataclasses.replace(
            DYNAMICS, horizon=300, rate_constant=1e300
        )
        with pytest.raises(InternalError, match=r"^block interval .* s does not advance the "
                           r"clock 7050\.0 s at height 29$"):
            run(cfg)

    def test_an_infinite_block_interval_is_an_error(self):
        # a solve-rate constant this small makes the genesis block's interval inf
        cfg = dataclasses.replace(
            DYNAMICS, horizon=1, rate_constant=1e-320
        )
        with pytest.raises(InternalError, match=r"^block interval inf s does not advance the "
                           r"clock 0\.0 s at height 0$"):
            run(cfg)

    def test_a_solve_rate_that_underflows_is_an_error(self):
        # kappa * 5e-324 underflows to 0, so the genesis block's interval is inf
        base = DYNAMICS
        cfg = dataclasses.replace(
            base, horizon=5, explicit_population=[explicit_miner("m0", 5e-324)]
        )
        with pytest.raises(InternalError, match=r"^block interval inf s does not advance the "
                           r"clock 0\.0 s at height 0$"):
            run(cfg)
        # a subnormal hashrate beside a normal one runs: nothing is rejected up front
        pair = [explicit_miner("m0", 1e-310), explicit_miner("m1", 1.0)]
        assert len(run(dataclasses.replace(base, horizon=50, explicit_population=pair)).records) == 50

    def test_stall_error_carries_the_state(self, monkeypatch):
        # two costly full-time miners leave, and the duty miners that stay active are
        # in their off phase: the stall loop does not advance the height, so the
        # network cannot restart
        monkeypatch.setattr(simulator, "_MAX_STALL_QUANTA", 100)
        cfg = dataclasses.replace(
            DYNAMICS,
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

    def test_a_stall_with_no_active_miner_names_what_keeps_each_one_out(self, monkeypatch):
        # the price falls a millionfold at block 50: every miner leaves, and at the
        # difficulty floor a lone miner earns far less than the cheapest on-cost
        monkeypatch.setattr(simulator, "_MAX_STALL_QUANTA", 1000)
        price = PricePath(initial=30.0, factor=1e-6, at_block=50)
        cfg = dataclasses.replace(DYNAMICS, horizon=300, price=price)
        with pytest.raises(InternalError) as info:
            run(cfg)
        state, why = str(info.value).split("; ")
        assert state.endswith(", difficulty 1e-06, price 2.9999999999999997e-05")
        figures = re.fullmatch(r"no miner is active: reward (\S+), a lone miner earns (\S+), "
                               r"cheapest on-cost (\S+)", why)
        r, lone, cheapest = map(float, figures.groups())
        assert r == reward_curve.reward(1e-6, cfg.schedule)  # at the floor
        assert lone == revenue_rate(1.0, 1.0, r, price.at(50), cfg.retarget.target_interval)
        miners = generate_population(cfg.population, np.random.default_rng(cfg.seed))
        assert lone < cheapest == min(cfg.economics.costs(m.unit_cost, m.hashrate)[0]
                                      for m in miners)


OFF_KEY, ON_KEY, INDEX = (operator.itemgetter(k) for k in range(3))  # of a miner's entry


def entries(state):
    """Each miner's one entry, in index order, after checking that the ready
    lists and `due` hold every miner exactly once."""
    held = state.ready_active + state.ready_inactive + [e for es in state.due.values() for e in es]
    held.sort(key=INDEX)
    assert list(map(INDEX, held)) == list(range(len(state.ids)))
    return held


def set_dwell(state, left):
    """Make miner i ready from `left[i]` decision passes on: now when 0."""
    held = entries(state)
    state.ready_active.clear()
    state.ready_inactive.clear()
    state.due.clear()
    for i, wait in enumerate(left):
        if wait:
            state.due[state.passes + int(wait)].append(held[i])
        else:
            (state.ready_active if state.active[i] else state.ready_inactive).append(held[i])
    state.ready_active.sort(key=OFF_KEY)
    state.ready_inactive.sort(key=ON_KEY)


def ready_passes(state):
    """Each miner's next pass at which it may flip (its key in `due`), after checking the lists."""
    on, off = state.ready_active, state.ready_inactive
    assert on == sorted(on, key=OFF_KEY) and off == sorted(off, key=ON_KEY)
    assert all(state.active[INDEX(e)] for e in on) and not any(state.active[INDEX(e)] for e in off)
    ready = {INDEX(e): state.passes for e in on + off}
    ready.update((INDEX(e), p) for p, es in state.due.items() for e in es)
    return [ready[INDEX(e)] for e in entries(state)]


def costs(state):
    """The (on_cost, off_cost) lists of the population."""
    held = entries(state)
    return [e[4] for e in held], [e[5] for e in held]


def check_against_dense_pass(cfg, state, left, seed, conditions):
    """Run `_decision_pass` and the dense model's pass under each (block_reward, total),
    from miner i ready `left[i]` passes on, each with its own `Draws(seed, dwell)`.
    Returns, per pass, the number of flips and of miners whose dwell ran out."""
    dwell = cfg.economics.dwell
    set_dwell(state, left)
    pop = dense_model.Population(
        state.hashrate.tolist(), *costs(state), state.active.tolist(),
        [state.passes + int(k) for k in left], dwell, cfg.retarget.target_interval, state.passes,
    )
    draws, model_draws = Draws(seed, dwell), Draws(seed, dwell)
    seen = []
    for block_reward, total in conditions:
        expired = pop.ready.count(pop.passes + 1)  # ready from the pass after this one
        _decision_pass(state, cfg, draws, block_reward, 30.0, total)
        flipped = dense_model.decision_pass(pop, model_draws, block_reward, 30.0, total)
        assert state.active.tolist() == pop.active
        assert ready_passes(state) == [max(p, state.passes) for p in pop.ready]
        seen.append((len(flipped), expired))
    return seen


def _children(seed):
    """Generators on the seed's three child seeds: the interval, winner and jitter streams."""
    return [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(3)]


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


def nudge(v, ulps):
    """`v` moved by `ulps` units in the last place, up if positive."""
    for _ in range(abs(ulps)):
        v = math.nextafter(v, math.copysign(math.inf, ulps))
    return v


TARGET = RetargetConfig().target_interval
# the ceiling `rate` of a stall quantum at reward 4.2: an inactive 1-MHash/s miner at
# this unit cost and margin_on 1.0 costs exactly what it earns there
STALL_RATE = revenue_rate(1.0, 1.0, 4.2, 30.0, TARGET)


def reward_at(revenue, hashrate, total):
    """The block reward at which a `hashrate` miner earns `revenue` at `total`."""
    return revenue / revenue_rate(hashrate, total, 1.0, 30.0, TARGET)


# (hashrate, unit_cost, block reward, total) at which a revenue or x leaves the normal range
OUTSIDE_THE_NORMAL_RANGE = {
    "subnormal-reward": (1.0, 5e-324, 5e-324, 2.0),
    "overflowing-x": (1.0, 1.5e308, 1e307, 100.0),
    "subnormal-hashrate": (5e-324, 1.0, 1.0, 2.0),
}
# per row: each miner's (hashrate, unit_cost, active) and dwell left, each pass's
# (block_reward, total), and the (flips, expiries) per pass that show the row reaches
# its edge.  Every row runs at the default margin_on but the stall tie, which needs 1.0
EDGES = {
    # x and both ends of the band are 0: the zero-cost miners coming out of their dwell
    # sit on them (the active one stays, the inactive one enters), and m2, ready and
    # above them, leaves for certain
    "zero-reward-expiry": ([(1.0, 0.0, True), (1.0, 0.0, False), (2.0, 1.0, True)], [1, 1, 0],
                           [(1.0, 10.0), (0.0, 10.0)], [(0, 2), (2, 0)]),
    # m0's key is an ulp above x, yet it earns exactly its off_cost and stays
    "an-ulp-from-x": ([(26.975264810243004, 2.055111956427169, True),
                       (21.039540405604793, 0.0, True)], [0, 0],
                      [(0.09867580028461041, 48.0148052158478)], [(0, 0)]),
    # a revenue or x outside the normal range, where the exact test is off: the miner
    # leaves when ready, or at the pass after its dwell of 1 or 3 passes runs out
    **{name + (f"-dwell-{left}" if left else ""):
       ([(h, c, True)], [left], [(reward, total)] * (left + 1),
        [(0, 0)] * (left - 1) + [(0, 1)] * (left > 0) + [(1, 0)])
       for left in (0, 1, 3) for name, (h, c, reward, total) in OUTSIDE_THE_NORMAL_RANGE.items()},
    "stall-tie": ([(1.0, STALL_RATE, False)], [0], [(4.2, 0.0)], [(1, 0)]),
    # a 2e5 zero-cost miner sets the total, so m0's prospective share is within 1e-5 of
    # its share of the total, yet 1e-10 past its exit or entry threshold it flips
    "just-below-the-exit-threshold": ([(2.0, 1.0, True), (2e5, 0.0, True)], [0, 0],
                                      [(reward_at(1.8 * (1 - 1e-10), 2.0, 2e5 + 2.0), 2e5 + 2.0)],
                                      [(1, 0)]),
    "just-above-the-entry-threshold": ([(2.0, 1.0, False), (2e5, 0.0, True)], [0, 0],
                                       [(reward_at(2.2 * (1 + 1e-10), 2.0, 2e5 + 2.0), 2e5)],
                                       [(1, 0)]),
    # m0 (off_cost 1.8) is in its dwell at the first pass, where only m1 is ready; it
    # stays at twice its off_cost and leaves at half of it
    "a-dwell-expiry-into-the-band": ([(2.0, 1.0, True), (20.0, 0.0, True)], [1, 0],
                                     [(reward_at(0.9, 2.0, 22.0), 22.0),
                                      (reward_at(3.6, 2.0, 22.0), 22.0),
                                      (reward_at(0.9, 2.0, 22.0), 22.0)],
                                     [(0, 1), (0, 0), (1, 0)]),
    # with no dwell m0 leaves, stays out at the pass after, then is judged inactive and
    # enters at twice its on_cost of 2.2
    "judged-in-its-new-state": ([(2.0, 1.0, True), (20.0, 0.0, True)], [0, 0],
                                [(reward_at(0.9, 2.0, 22.0), 22.0),
                                 (reward_at(0.9, 2.0, 22.0), 20.0),
                                 (reward_at(4.4, 2.0, 22.0), 20.0)],
                                [(1, 0), (0, 0), (1, 0)]),
    # an active miner at a total below 1e-300 is judged by its share of 1e-300: it earns
    # 0.081 against its off_cost of 900 and leaves (by its share of the total, h / total,
    # it would earn 8,100 and stay)
    "active-below-1e-300": ([(1e-305, 1e308, True)], [0], [(9.0, 1e-305)], [(1, 0)]),
}


class TestDecisionPass:
    """`_decision_pass` judges only candidates, and flips what the dense model's pass would."""

    @settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
    @given(data=st.data())
    def test_matches_the_dense_pass(self, data):
        # aimed at the band's edges: keys a few ulps from x or either end of the band,
        # subnormal hashrates, rewards outside the exact test's window, and a tie at
        # the ceiling of a stall quantum
        n = data.draw(st.integers(1, 12), label="miners")
        dwell = data.draw(st.sampled_from([0, 1, 3, 30]), label="dwell")
        tie = data.draw(st.booleans(), label="stall tie")
        margin_on = 1.0 if tie else data.draw(st.sampled_from([1.1, 1.0]), label="margin_on")
        economics = EconomicsConfig(margin_on=margin_on, dwell=dwell)
        hashrates = data.draw(st.sampled_from([st.floats(0.1, 30.0), st.floats(5e-324, 1e-300)]))
        base_reward = data.draw(
            st.floats(0.0, 20.0) | st.sampled_from([5e-324, 1e-300, 1e300]), label="reward"
        )
        base_total = data.draw(st.floats(1.0, 200.0), label="total")
        margin = simulator._MARGIN
        aim = data.draw(st.sampled_from([None, 1.0, 1.0 - margin, 1.0 + margin]), label="aim")
        miners = data.draw(
            st.lists(
                st.tuples(
                    hashrates,
                    st.just(0.0) | st.floats(0.0, 3.0) if aim is None else st.integers(-3, 3),
                    st.booleans(),
                    st.integers(0, 2 * dwell),
                ),
                min_size=n,
                max_size=n,
            ),
            label="(hashrate, unit_cost or its ulps from the aim, active, dwell left)",
        )
        rate = revenue_rate(1.0, 1.0, base_reward, 30.0, TARGET)
        if aim is not None:  # the unit cost that puts the miner's key at x * aim, nudged
            x = rate / base_total
            miners = [
                (h, max(0.0, nudge(x * aim / (economics.margin_off if a else margin_on), k)), a, w)
                for h, k, a, w in miners
            ]
        if tie:
            miners[0] = (1.0, rate, False, miners[0][3])
        agents = [
            MinerAgent(id=f"m{i}", hashrate=h, unit_cost=c, active=a)
            for i, (h, c, a, _) in enumerate(miners)
        ]
        cfg = make_config(explicit_population=agents, economics=economics)
        state = initial_state(cfg, np.random.default_rng(0))
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        conditions = [
            # mostly the same conditions pass after pass, so most passes judge nobody
            (base_reward * data.draw(st.sampled_from([1.0, 1.0, 1.0, 0.5, 2.0])),
             base_total * data.draw(st.sampled_from([1.0, 1.0, 0.98, 1.02, 0.0])))
            for _ in range(data.draw(st.integers(1, 40), label="passes"))
        ]
        check_against_dense_pass(cfg, state, [m[3] for m in miners], seed, conditions)

    @pytest.mark.parametrize("row", EDGES)
    def test_the_hand_placed_edges_match_the_dense_pass(self, row):
        miners, left, conditions, seen = EDGES[row]
        agents = [MinerAgent(id=f"m{i}", hashrate=h, unit_cost=c, active=a)
                  for i, (h, c, a) in enumerate(miners)]
        margin_on = 1.0 if row == "stall-tie" else EconomicsConfig.margin_on
        cfg = make_config(explicit_population=agents,
                          economics=EconomicsConfig(margin_on=margin_on, dwell=0))
        state = initial_state(cfg, np.random.default_rng(0))
        assert check_against_dense_pass(cfg, state, left, 0, conditions) == seen

    @staticmethod
    def _ready_state(miners, passes, left=None):
        """A dwell-free state at pass `passes`: miner i ready from `left[i]` passes on (0: now)."""
        cfg = make_config(explicit_population=miners, economics=EconomicsConfig(dwell=0))
        state = initial_state(cfg, np.random.default_rng(0))
        state.passes = passes
        set_dwell(state, left or [0] * len(miners))
        return cfg, state

    @staticmethod
    def _conditions_with_bound_at(cfg, key, lowest_total=10.0):
        """A (block_reward, total) at which the pass's x * (1 + margin) is exactly `key`,
        with the total in [lowest_total, 1.2 * lowest_total]."""
        t = cfg.retarget.target_interval
        for total in np.linspace(lowest_total, 1.2 * lowest_total, 9).tolist():
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

    @staticmethod
    def _count_filed(monkeypatch):
        """Collect the entries the kernel files into a ready list with `insort`."""
        filed, insort = [], simulator.insort

        def counted(a, x, **kw):
            filed.append(x)
            return insort(a, x, **kw)

        monkeypatch.setattr(simulator, "insort", counted)
        return filed

    def _expiring_state(self, miners):
        """A dwell-free state at pass 1 in which every miner's dwell ends at pass 2."""
        return self._ready_state(miners, passes=1, left=[1] * len(miners))

    @pytest.mark.parametrize(
        "active,scale,lowest_total,judged,filed",
        [(True, 10.0, 10.0, 0, 0), (True, 0.1, 10.0, 0, 1), (False, 10.0, 10.0, 0, 1),
         (False, 10.0, 30.0, 0, 1), (False, 0.1, 10.0, 1, 0)],
        ids=["active-above", "active-below", "inactive-above", "inactive-above-under-the-ceiling",
             "inactive-below"],
    )
    def test_an_expiry_outside_the_band_takes_the_lists_test(
        self, active, scale, lowest_total, judged, filed, monkeypatch
    ):
        # the key is 10 times x * (1 + margin), or a tenth of it.  Above the band an
        # active miner leaves for certain and is not filed, an inactive one cannot
        # enter and is filed unjudged; below it an active one cannot leave and is
        # filed unjudged, an inactive one is judged and enters.  An inactive miner
        # above the band is under the ceiling `rate` = x * total once the total is
        # above 10 times its hashrate: there the band alone keeps it unjudged
        cfg, state = self._expiring_state([MinerAgent(id="m", hashrate=2.0, unit_cost=1.0,
                                                      active=active)])
        key = entries(state)[0][0 if active else 1]
        reward, total = self._conditions_with_bound_at(cfg, key / scale, lowest_total)
        calls, stored = self._count_judged(monkeypatch), self._count_filed(monkeypatch)
        seen = check_against_dense_pass(cfg, state, [1], 0, [(reward, total)] * 2)
        # pass 1 judges nobody: the lists are empty and nobody's dwell ends there
        assert seen == [(0, 1), (1 - filed, 0)]
        assert len(calls) == judged
        assert [INDEX(e) for e in stored] == [0] * filed

    @pytest.mark.parametrize("active", [True, False])
    @pytest.mark.parametrize("where", [1.0, 1.0 + 5e-10], ids=["at-the-bound", "inside"])
    def test_an_expiry_inside_the_band_is_judged_at_once(self, active, where, monkeypatch):
        # the key is x * (1 + margin), or a relative 5e-10 below it: judged once,
        # then filed only if it stays
        cfg, state = self._expiring_state([MinerAgent(id="m", hashrate=2.0, unit_cost=1.0,
                                                      active=active)])
        t = cfg.retarget.target_interval
        key = entries(state)[0][0 if active else 1]
        reward, total = self._conditions_with_bound_at(cfg, key)
        reward *= where
        judged, filed = self._count_judged(monkeypatch), self._count_filed(monkeypatch)
        seen = check_against_dense_pass(cfg, state, [1], 0, [(reward, total)] * 2)
        assert seen[0] == (0, 1) and judged == [judged[0]]
        rev = revenue_rate(2.0, total if active else 2.0 + total, reward, 30.0, t)
        assert judged[0][:2] == (active, rev)
        flipped = seen[1][0]
        assert state.active[0] == (active != bool(flipped))
        assert len(filed) == 1 - flipped

    @pytest.mark.parametrize(
        "reward,total,inactive",
        [(4.2, 0.0, [False]), (1e-300, 10.0, [])],
        ids=["stall-quantum", "reward-out-of-range"],
    )
    def test_outside_the_exact_test_every_expiry_under_the_ceiling_is_judged(
        self, reward, total, inactive, monkeypatch
    ):
        # keys far on both sides of x: with the exact test none of these would be
        # judged; in a stall quantum or below 2**-800 each active one is, and each
        # inactive one whose on_cost is at most revenue_rate(1, 1, ...): m3's on_cost
        # of 3.3e6 is above that in both cases, m4's 4.4e-9 only at the reward 1e-300
        miners = [MinerAgent(id=f"m{i}", hashrate=h, unit_cost=c, active=a)
                  for i, (h, c, a) in enumerate([(1.0, 1.0, True), (2.0, 1e-9, True),
                                                 (7.0, 5.0, True), (3.0, 1e6, False),
                                                 (4.0, 1e-9, False)])]
        cfg, state = self._expiring_state(miners)
        judged, filed = self._count_judged(monkeypatch), self._count_filed(monkeypatch)
        # pass 1 is quiet and exact, so it judges nobody; every dwell ends at pass 2
        seen = check_against_dense_pass(cfg, state, [1] * 5, 0, [(1.0, 10.0), (reward, total)])
        assert seen[0] == (0, 5)
        assert sorted(args[0] for args in judged) == [*inactive, True, True, True]
        assert len(filed) == 5 - seen[1][0]

    @given(
        reward=st.floats(0.0, allow_infinity=False),
        price=st.floats(5e-324, allow_infinity=False),
        target=st.floats(5e-324, allow_infinity=False),
        h=st.floats(5e-324, allow_infinity=False),
        total=st.floats(0.0, allow_infinity=False),
    )
    def test_no_inactive_miner_earns_more_than_the_ceiling(self, reward, price, target, h, total):
        # `_decision_pass` files unjudged an expiring inactive miner whose on_cost is
        # above rate = revenue_rate(1, 1, ...): a share h / (h + total) is at most 1
        rate = revenue_rate(1.0, 1.0, reward, price, target)
        assert not revenue_rate(h, h + total, reward, price, target) > rate

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
        key = entries(state)[1][0]
        reward, total = self._conditions_with_bound_at(
            cfg, math.nextafter(key, -math.inf) if above else key
        )
        judged = self._count_judged(monkeypatch)
        assert check_against_dense_pass(cfg, state, [0, 0, 0], 0, [(reward, total)]) == [(2, 0)]
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
        assert check_against_dense_pass(cfg, state, [0, 0, 0], 0, [(reward, total)]) == [(flipped, 0)]
        assert len(calls) == judged

    def test_quiet_network_skips_its_passes(self, monkeypatch):
        calls = self._count_judged(monkeypatch)

        def judged(constant_reward):
            calls.clear()
            run(make_config(horizon=300, constant_reward=constant_reward))
            return len(calls)

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



def outcomes(blocks):
    """The records `blocks` yields, then the type of the `PomSimError` that ends it, or None."""
    try:
        yield from blocks
    except PomSimError as exc:
        yield type(exc)
    else:
        yield None


# each population's hashrates: 0.5..20 MHash/s, a log-spread over 1e-4..3e4,
# or from the least subnormal to 1e200, subnormal ones often
_HASHRATES = (
    st.floats(0.5, 20.0),
    st.floats(-4.0, 4.5).map(lambda e: 10.0**e),
    st.floats(5e-324, 2.0**-1022, exclude_max=True) | st.floats(5e-324, 1e200),
)


@st.composite
def explicit_populations(draw):
    """configs/dynamics.json with a random explicit population, aimed at flips: unit
    costs up to three times the revenue of 1 MHash/s at the anchor (202.5: the peak
    reward 9 at 40 MHash/s and price 30), short dwells, price steps down to x1e-6."""
    hashrates = draw(st.sampled_from(_HASHRATES))
    miners = draw(st.lists(st.tuples(
        hashrates,
        st.floats(0.0, 2.0) | st.floats(0.0, 600.0),
        st.booleans(),
        st.none() | st.tuples(st.integers(1, 60), st.integers(0, 60)),
    ), min_size=1, max_size=9), label="(hashrate, unit_cost, active, duty)")
    horizon, window = draw(st.integers(1, 200)), draw(st.integers(1, 60))
    step_price = st.builds(
        lambda e, at: PricePath(initial=30.0, factor=10.0**e, at_block=at),
        st.floats(-6.0, math.log10(3.0)), st.integers(0, horizon),
    )
    h0 = sum(h for h, _, active, _ in miners if active)
    return dataclasses.replace(
        DYNAMICS,
        horizon=horizon,
        seed=draw(st.integers(0, 2**32 - 1)),
        explicit_population=[MinerAgent(id=f"m{i}", hashrate=h, unit_cost=c, active=a, duty=d)
                             for i, (h, c, a, d) in enumerate(miners)],
        economics=EconomicsConfig(dwell=draw(st.sampled_from([0, 1, 2, 5, 30]))),
        pom=PomCredit(window, draw(st.integers(1, window))),
        price=draw(st.just(PricePath(constant=30.0)) | step_price),
        constant_reward=draw(st.booleans()),
        large_threshold=draw(st.just(5.0) | hashrates),
        # below about 1e-300 the default kappa * total leaves block 0's interval inf
        rate_constant=1e300 if 0.0 < h0 < 1e-290 else None,
    )


class TestDenseModel:
    """The kernel gives the bytes of `dense_model`, which keeps none of its bookkeeping."""

    @settings(max_examples=200, deadline=None, phases=NO_EXPLAIN)
    @example(make_config(  # numpy's pairwise sums gave these large miners a share above 1
        horizon=3, large_threshold=2.0, constant_reward=True, explicit_population=[
            explicit_miner(f"m{i}", h)
            for i, h in enumerate([3.0, 3e16, 1e16, 7.0, 3e16, 1e16, 3e16, 1.0, 7.0])
        ],
    ))
    @given(explicit_populations())
    def test_random_explicit_populations(self, cfg):
        state, draws = initial_state(cfg, np.random.default_rng(cfg.seed)), draws_for(cfg)
        with mock.patch.object(simulator, "_MAX_STALL_QUANTA", 1000):
            *records, error = outcomes(step(state, cfg, draws) for _ in range(cfg.horizon))
        *model, model_error = outcomes(dense_model.blocks(cfg, max_stall_quanta=1000))
        assert csv_lines(records) == csv_lines(model)
        assert error == model_error
        assert_invariants(records, schedule_max(cfg.schedule)[1])


class TestConfigDigest:
    def test_digest_changes_with_config(self):
        c1 = make_config(horizon=500)
        c2 = make_config(horizon=501)
        assert c1.digest() != c2.digest()
        assert c1.digest() == make_config(horizon=500).digest()

    def test_digest_ignores_seed(self):
        # the digest identifies the experiment; seeds within a sweep share it
        assert make_config(seed=0).digest() == make_config(seed=1).digest()
