import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from pomsim.difficulty import (
    DEFAULT_ANCHORS,
    MIN_DIFFICULTY,
    DifficultyMap,
    RetargetConfig,
    fit_difficulty_map,
    hash_to_difficulty,
    rate_constant_from_map,
    retarget,
)
from pomsim.errors import DomainError, ParameterError


class TestDifficultyMap:
    def test_fit_to_reference_anchors(self):
        # the closed form's bits, the same on any host: the pinned traces run on this map
        m = fit_difficulty_map()
        assert m.slope.hex() == "0x1.51dd0972ad3b6p-5"
        assert m.intercept.hex() == "0x1.979035680a660p-4"
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

    @pytest.mark.parametrize("slope,intercept", [(0.01, -0.5), (1.0, -1.0)],
                             ids=["negative-at-1", "zero-at-1"])
    def test_negative_over_operating_range_rejected(self, slope, intercept):
        with pytest.raises(ParameterError, match="^map must be positive at H=1"):
            DifficultyMap(slope=slope, intercept=intercept)

    @pytest.mark.parametrize("field,value", [
        ("slope", math.inf), ("intercept", math.nan), ("intercept", math.inf),
        ("floor", math.inf),
    ])
    def test_a_non_finite_field_is_rejected(self, field, value):
        # each would pass the sign checks, and give hash_to_difficulty a nan or an inf
        with pytest.raises(ParameterError, match=f"^{field} must be finite, got {value}$"):
            DifficultyMap(**{"slope": 0.05, "intercept": 0.1, field: value})


# any finite float, subnormals and the largest included, or one of a few values that
# anchors may share: draws then hold shared hashrates, spreads that underflow, and sums
# that overflow
_COORD = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([40.0, 51.0, 5e-324, 1e-320, 1e308, -1e308, 1.5e308]),
)


class TestFit:
    @given(st.lists(st.tuples(_COORD, _COORD), min_size=2, max_size=6))
    @example([(40.0, 1.75), (40.0, 2.2)])
    @example([(1e-320, 1.0), (2e-320, 2.0)])
    @example([(1e308, 1.0), (1.5e308, 2.0)])
    @example([(1.0, 1e308), (2.0, -1e308)])
    def test_a_fit_is_a_map_or_a_parameter_error(self, anchors):
        try:
            m = fit_difficulty_map(anchors)
        except ParameterError:
            return
        assert all(map(math.isfinite, (m.slope, m.intercept)))

    @given(st.lists(st.tuples(st.floats(1.0, 1e3), st.floats(1e-3, 1e3)), min_size=2,
                    max_size=6))
    def test_the_fit_is_the_exact_least_squares_line(self, anchors):
        # Well conditioned: hashrates in [1, 1e3] that spread over at least a tenth of the
        # largest, so kappa = max h / spread <= 10. By Cauchy-Schwarz, |slope| * max h <=
        # sqrt(2n) * kappa * max |d| < 35 * max |d| for n <= 6, so no rounding of the fit
        # (~20 of them, each at most 2**-53 relative, the mean's amplified by at most kappa
        # through the centring) moves the line by more than about 35 * 2**-53 * max |d|.
        # Their sum stays below the tolerance, 1000 * 2**-53 * max |d|; the worst seen in
        # 45,000 random draws is 4 * 2**-53 * max |d|.
        hs = [h for h, _ in anchors]
        assume(max(hs) - min(hs) >= max(hs) / 10)
        try:
            m = fit_difficulty_map(anchors)
        except ParameterError:  # a slope, or a line over [1, 200], that is not positive
            assume(False)
        exact = [(Fraction(h), Fraction(d)) for h, d in anchors]
        h_mean = sum(h for h, _ in exact) / len(exact)
        d_mean = sum(d for _, d in exact) / len(exact)
        slope = sum((h - h_mean) * (d - d_mean) for h, d in exact) / sum(
            (h - h_mean) ** 2 for h, _ in exact
        )
        tolerance = Fraction(1000, 2**53) * Fraction(max(d for _, d in anchors))
        for h, _ in anchors:
            line = d_mean + slope * (Fraction(h) - h_mean)
            assert abs(Fraction(m.slope * h + m.intercept) - line) <= tolerance


@pytest.mark.parametrize("field,value", [
    ("target_interval", 0.0), ("target_interval", -1.0), ("smoothing", 0.0),
    ("smoothing", 1.5), ("clamp", 1.0), ("clamp", 0.5), ("clamp", math.nan),
])
def test_config_rejects_each_parameter_out_of_range(field, value):
    with pytest.raises(ParameterError, match=f"^{field} must "):
        RetargetConfig(**{field: value})


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("field", ["anchor_hashrate", "target_interval"])
def test_rate_constant_rejects_a_non_positive_anchor_or_target(field, value):
    args = {"anchor_hashrate": 40.0, "target_interval": 120.0, field: value}
    with pytest.raises(ParameterError, match=f"{field}={value}(,|$)"):
        rate_constant_from_map(fit_difficulty_map(), **args)


def _step_by_calls(rc, floor, d, ema, observed):
    """The controller step with its clamps written as `min` and `max` calls."""
    ema = rc.smoothing * observed + (1.0 - rc.smoothing) * ema
    ratio = min(max(rc.target_interval / ema, 1.0 / rc.clamp), rc.clamp)
    return max(d * ratio, floor), ema


# the positive finite floats down to the subnormals, or any float at all: NaN, ±0, ±inf
_ANY = st.one_of(st.floats(5e-324, 1e308), st.floats())

# one step with smoothing 1: the EMA is the observed interval
_SNAP = RetargetConfig(smoothing=1.0)


class TestRetarget:
    def test_fixed_point(self):
        assert retarget(RetargetConfig(), MIN_DIFFICULTY, 2.0, 120.0, 120.0) == (2.0, 120.0)

    def test_exact_doubling(self):
        rc = RetargetConfig(smoothing=1.0, clamp=4.0)
        d, _ = retarget(rc, MIN_DIFFICULTY, 2.0, 120.0, 60.0)
        assert d == pytest.approx(4.0)

    def test_clamp_binding(self):
        rc = RetargetConfig(smoothing=1.0, clamp=4.0)
        d, _ = retarget(rc, MIN_DIFFICULTY, 2.0, 120.0, 1.0)
        assert d == pytest.approx(8.0)

    @given(
        st.floats(1.0, 1000.0),
        st.floats(1.0, 1000.0),
        st.floats(0.01, 10.0),
    )
    def test_monotone_response(self, obs_a, obs_b, difficulty):
        rc = RetargetConfig()
        d_a, _ = retarget(rc, MIN_DIFFICULTY, difficulty, 120.0, obs_a)
        d_b, _ = retarget(rc, MIN_DIFFICULTY, difficulty, 120.0, obs_b)
        if obs_a < obs_b:
            assert d_a >= d_b

    @given(st.floats(1e-3, 1e5), st.floats(0.1, 100.0), st.floats(0.05, 1.0))
    def test_clamp_safety(self, obs, difficulty, smoothing):
        rc = RetargetConfig(smoothing=smoothing)
        d2, _ = retarget(rc, MIN_DIFFICULTY, difficulty, 120.0, obs)
        ratio = d2 / difficulty
        assert 1.0 / rc.clamp - 1e-12 <= ratio <= rc.clamp + 1e-12

    @given(_ANY, _ANY, _ANY, _ANY, _ANY, _ANY, _ANY)
    # target / ema exactly at clamp and at 1 / clamp; d * ratio exactly at the floor
    @example(1.0, 1.25, 120.0, 1e-6, 2.0, 50.0, 96.0)
    @example(1.0, 1.25, 120.0, 1e-6, 2.0, 50.0, 150.0)
    @example(1.0, 1.25, 120.0, 0.5, 0.5, 120.0, 120.0)
    @example(1.0, 1.25, 120.0, 5e-324, 5e-324, 1.0, 120.0)  # a subnormal on the floor
    @example(1.0, 1.25, 120.0, 0.0, -0.0, 1.0, 120.0)  # max(-0.0, 0.0) is -0.0
    @example(0.2, 1e308, 1e308, 1e-6, 1e308, 1e-300, 5e-324)  # d * ratio overflows
    def test_the_clamps_are_min_and_max_by_their_comparisons(
        self, smoothing, clamp, target, floor, d, ema, obs
    ):
        # the step clamps by the one comparison that max(a, b) (b > a) and min(a, b)
        # (b < a) make, so it gives the calls' bits at any input, valid or not
        assume(obs > 0.0)
        rc = SimpleNamespace(target_interval=target, smoothing=smoothing, clamp=clamp)

        def outcome(step):  # the bits, or the error of a zero ema or clamp
            try:
                return tuple(map(float.hex, step(rc, floor, d, ema, obs)))
            except ZeroDivisionError as exc:
                return type(exc)

        assert outcome(retarget) == outcome(_step_by_calls)

    def test_a_step_onto_the_floor(self):
        d, _ = retarget(_SNAP, 0.5, 0.5, 120.0, 1000.0)
        assert d == 0.5  # ratio 1 / clamp, then floored

    @pytest.mark.parametrize("obs,ratio", [(1.0, 1.25), (1e6, 1.0 / 1.25)], ids=["up", "down"])
    def test_both_clamp_bounds(self, obs, ratio):
        d, _ = retarget(_SNAP, MIN_DIFFICULTY, 2.0, 120.0, obs)
        assert d == 2.0 * ratio

    @pytest.mark.parametrize("obs", [0.0, -1.0, math.nan])
    def test_an_interval_that_is_not_positive_is_rejected(self, obs):
        with pytest.raises(DomainError, match="^observed interval must be positive"):
            retarget(RetargetConfig(), MIN_DIFFICULTY, 2.0, 120.0, obs)
