import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pomsim.difficulty import (
    DEFAULT_ANCHORS,
    DifficultyMap,
    RetargetConfig,
    RetargetState,
    fit_difficulty_map,
    hash_to_difficulty,
    rate_constant_from_map,
    retarget,
    retarget_step,
)
from pomsim.errors import DomainError, ParameterError


class TestDifficultyMap:
    def test_fit_to_reference_anchors(self):
        m = fit_difficulty_map()
        assert m.slope == pytest.approx(0.041243093922652, rel=1e-9)
        assert m.intercept == pytest.approx(0.099502762430942, rel=1e-6)
        assert hash_to_difficulty(40.0, m) == pytest.approx(1.749, abs=1e-3)

    def test_anchor_residuals_small(self):
        m = fit_difficulty_map()
        for h, d in DEFAULT_ANCHORS:
            assert hash_to_difficulty(h, m) == pytest.approx(d, abs=0.03)

    def test_zero_hashrate(self):
        m = DifficultyMap(slope=0.05, intercept=0.2)
        assert hash_to_difficulty(0.0, m) == 0.2
        low = DifficultyMap(slope=0.05, intercept=1e-9, floor=1e-6)
        assert hash_to_difficulty(0.0, low) == 1e-6

    def test_proportional_case(self):
        m = DifficultyMap(slope=0.05, intercept=1e-12)
        assert hash_to_difficulty(20.0, m) == pytest.approx(1.0, rel=1e-9)

    def test_negative_hashrate_rejected(self):
        with pytest.raises(DomainError):
            hash_to_difficulty(-1.0, fit_difficulty_map())

    def test_invalid_slope_rejected(self):
        with pytest.raises(ParameterError):
            DifficultyMap(slope=0.0, intercept=1.0)

    def test_negative_over_operating_range_rejected(self):
        with pytest.raises(ParameterError):
            DifficultyMap(slope=0.01, intercept=-0.5)


def make_state(difficulty=2.0, ema=120.0, target=120.0, smoothing=0.2, clamp=1.25):
    return RetargetState(
        current_difficulty=difficulty,
        ema_interval=ema,
        target_interval=target,
        smoothing=smoothing,
        clamp=clamp,
    )


@pytest.mark.parametrize("field,value", [
    ("target_interval", 0.0), ("target_interval", -1.0), ("smoothing", 0.0),
    ("smoothing", 1.5), ("clamp", 1.0), ("clamp", 0.5), ("clamp", math.nan),
])
def test_config_and_state_reject_the_same_parameters(field, value):
    # the controller parameters have one range check, shared by both classes
    with pytest.raises(ParameterError) as from_config:
        RetargetConfig(**{field: value})
    with pytest.raises(ParameterError) as from_state:
        RetargetState(current_difficulty=1.0, ema_interval=120.0, **{field: value})
    assert str(from_config.value) == str(from_state.value)
    assert field in str(from_state.value)


class TestRetarget:
    def test_fixed_point(self):
        s = make_state()
        s2 = retarget(s, 120.0)
        assert s2.current_difficulty == s.current_difficulty
        assert s2.ema_interval == s.ema_interval

    def test_exact_doubling(self):
        s = make_state(difficulty=2.0, smoothing=1.0, clamp=4.0)
        s2 = retarget(s, 60.0)
        assert s2.current_difficulty == pytest.approx(4.0)

    def test_clamp_binding(self):
        s = make_state(difficulty=2.0, smoothing=1.0, clamp=4.0)
        s2 = retarget(s, 1.0)
        assert s2.current_difficulty == pytest.approx(8.0)

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(DomainError):
            retarget(make_state(), 0.0)

    @given(
        st.floats(1.0, 1000.0),
        st.floats(1.0, 1000.0),
        st.floats(0.01, 10.0),
    )
    def test_monotone_response(self, obs_a, obs_b, difficulty):
        s = make_state(difficulty=difficulty)
        d_a = retarget(s, obs_a).current_difficulty
        d_b = retarget(s, obs_b).current_difficulty
        if obs_a < obs_b:
            assert d_a >= d_b

    @given(st.floats(1e-3, 1e5), st.floats(0.1, 100.0), st.floats(0.05, 1.0))
    def test_clamp_safety(self, obs, difficulty, smoothing):
        s = make_state(difficulty=difficulty, smoothing=smoothing)
        d2 = retarget(s, obs).current_difficulty
        ratio = d2 / difficulty
        assert 1.0 / s.clamp - 1e-12 <= ratio <= s.clamp + 1e-12


def _agree(state, obs):
    """`retarget` and `retarget_step` give the same bits; the other fields are carried over."""
    new = retarget(state, obs)
    d, ema = retarget_step(state, state.floor, state.current_difficulty, state.ema_interval, obs)
    assert type(new) is RetargetState
    assert (new.current_difficulty.hex(), new.ema_interval.hex()) == (d.hex(), ema.hex())
    assert dataclasses.replace(new, current_difficulty=1.0, ema_interval=1.0) == (
        dataclasses.replace(state, current_difficulty=1.0, ema_interval=1.0)
    )
    return new


class TestRetargetStep:
    positive = st.floats(1e-12, 1e12)

    @given(
        st.floats(0.0, 1.0, exclude_min=True),
        st.floats(1.0, 100.0, exclude_min=True),
        positive,
        positive,
        positive,
        positive,
        positive,
    )
    def test_the_wrapper_is_the_step(self, smoothing, clamp, target, floor, d, ema, obs):
        state = RetargetState(
            target_interval=target, smoothing=smoothing, clamp=clamp,
            current_difficulty=d, ema_interval=ema, floor=floor,
        )
        _agree(state, obs)

    def test_a_step_onto_the_floor(self):
        s = dataclasses.replace(make_state(difficulty=0.5, smoothing=1.0), floor=0.5)
        assert _agree(s, 1000.0).current_difficulty == 0.5  # ratio 1 / clamp, then floored

    @pytest.mark.parametrize("obs,ratio", [(1.0, 1.25), (1e6, 1.0 / 1.25)], ids=["up", "down"])
    def test_both_clamp_bounds(self, obs, ratio):
        s = make_state(difficulty=2.0, smoothing=1.0)
        assert _agree(s, obs).current_difficulty == 2.0 * ratio

    @pytest.mark.parametrize("obs", [0.0, -1.0, math.nan])
    def test_both_reject_an_interval_that_is_not_positive(self, obs):
        s = make_state()
        with pytest.raises(DomainError):
            retarget(s, obs)
        with pytest.raises(DomainError):
            retarget_step(s, s.floor, s.current_difficulty, s.ema_interval, obs)


def synthetic_intervals(seed, start_difficulty, hashrate=40.0, n_blocks=200):
    """Constant-hashrate run of the retarget loop with exponential solves."""
    m = fit_difficulty_map()
    kappa = rate_constant_from_map(m, 40.0, 120.0)
    rng = np.random.default_rng(seed)
    state = make_state(difficulty=start_difficulty)
    out = []
    for _ in range(n_blocks):
        iv = rng.exponential(state.current_difficulty / (kappa * hashrate))
        out.append(iv)
        state = retarget(state, iv)
    return np.array(out)


class TestConvergence:
    def test_reaches_target_band(self):
        # trailing 50-block mean interval enters the 5% band by block 200
        m = fit_difficulty_map()
        kappa = rate_constant_from_map(m, 40.0, 120.0)
        d_eq = kappa * 40.0 * 120.0
        passes = total = 0
        for seed in range(30):
            for start in (d_eq * 100.0, d_eq / 100.0):
                iv = synthetic_intervals(seed, start)
                trailing = np.convolve(iv, np.ones(50) / 50.0, mode="valid")
                total += 1
                passes += bool((np.abs(trailing / 120.0 - 1.0) <= 0.05).any())
        assert passes / total >= 0.9
