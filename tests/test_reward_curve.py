import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pomsim.config import schedule_from_json, schedule_to_dict, schedule_to_json
from pomsim.errors import (
    BracketingError,
    DomainError,
    OrderingError,
    ParameterError,
)
from pomsim.reward_curve import (
    BaseCurveParams,
    CutoffParams,
    RewardScheduleParams,
    _golden_max,
    _unit_peak,
    base_reward,
    calibrate_cutoff,
    calibrate_schedule,
    cutoff_factor,
    find_peak,
    reward,
)

# frozen oracles (50-digit arbitrary precision / 1e-6 grid scan, see comments)
BASE_1_12 = 0.48222832552104364  # sqrt(e^-1 - e^-2)
PEAK_D_12 = 1.4455749111515481  # argmax of (e^-d - e^-2d) d, grid scan + root polish
PEAK_R_12 = 0.5102406210301227
SPREAD_REFERENCE = 0.07737033426328118  # (2.37 - 2.20) / ln 9

valid_base = st.tuples(
    st.floats(0.05, 5.0), st.floats(1.05, 10.0), st.floats(0.1, 10.0)
).map(lambda t: BaseCurveParams(a=t[0], b=t[0] * t[1], scale=t[2]))

valid_cutoff = st.builds(
    CutoffParams, d_co=st.floats(0.1, 10.0), spread=st.floats(1e-3, 2.0)
)


class TestBaseReward:
    def test_zero_at_origin(self):
        assert base_reward(0.0, BaseCurveParams(1.0, 2.0)) == 0.0

    def test_known_value(self):
        assert base_reward(1.0, BaseCurveParams(1.0, 2.0)) == pytest.approx(
            BASE_1_12, rel=1e-12
        )

    def test_scale_linearity(self):
        assert base_reward(1.0, BaseCurveParams(1.0, 2.0, scale=3.0)) == pytest.approx(
            3.0 * BASE_1_12, rel=1e-12
        )

    def test_negative_difficulty_rejected(self):
        with pytest.raises(DomainError):
            base_reward(-0.1, BaseCurveParams(1.0, 2.0))

    @pytest.mark.parametrize(
        "a,b,scale",
        [(2.0, 1.0, 1.0), (1.0, 1.0, 1.0), (-1.0, 2.0, 1.0), (1.0, 2.0, 0.0), (0.0, 2.0, 1.0)],
    )
    def test_invalid_params_rejected(self, a, b, scale):
        with pytest.raises(ParameterError):
            BaseCurveParams(a=a, b=b, scale=scale)

    @given(valid_base, st.floats(0.0, 50.0))
    def test_nonnegative_and_finite(self, p, d):
        r = base_reward(d, p)
        assert r >= 0.0
        assert math.isfinite(r)

    @given(valid_base)
    def test_small_d_asymptotic(self, p):
        # R/d -> scale * sqrt(b - a) as d -> 0+
        d = 1e-8
        assert base_reward(d, p) / d == pytest.approx(
            p.scale * math.sqrt(p.b - p.a), rel=1e-4
        )

    @given(valid_base)
    @settings(max_examples=50)
    def test_unimodal(self, p):
        d = np.linspace(1e-6, 20.0 / p.a, 10_000)
        r = np.sqrt(np.clip((np.exp(-p.a * d) - np.exp(-p.b * d)) * d, 0.0, None))
        slope_sign = np.sign(np.diff(r))
        changes = np.count_nonzero(np.diff(slope_sign[slope_sign != 0]))
        assert changes == 1

    @given(valid_base, st.floats(0.05, 15.0))
    def test_derivative_matches_finite_difference(self, p, d):
        b_val = math.exp(-p.a * d) - math.exp(-p.b * d)
        b_prime = -p.a * math.exp(-p.a * d) + p.b * math.exp(-p.b * d)
        analytic = p.scale * (b_prime * d + b_val) / (2.0 * math.sqrt(b_val * d))
        h = 1e-6 * max(1.0, d)
        numeric = (base_reward(d + h, p) - base_reward(d - h, p)) / (2.0 * h)
        assert numeric == pytest.approx(analytic, rel=1e-5)


class TestCutoffFactor:
    def test_midpoint(self):
        c = CutoffParams(d_co=2.2, spread=0.1)
        assert cutoff_factor(2.2, c) == pytest.approx(0.5, abs=1e-15)

    def test_tenth_point(self):
        c = CutoffParams(d_co=2.2, spread=0.1)
        assert cutoff_factor(2.2 + 0.1 * math.log(9.0), c) == pytest.approx(0.1, abs=1e-12)

    def test_calibrated_reference_value(self):
        c = CutoffParams(d_co=2.20, spread=0.077371)
        assert cutoff_factor(2.37, c) == pytest.approx(0.100, abs=1e-3)

    def test_invalid_spread(self):
        with pytest.raises(ParameterError):
            CutoffParams(d_co=2.2, spread=0.0)

    def test_overflow_safe(self):
        c = CutoffParams(d_co=1.0, spread=1e-3)
        assert cutoff_factor(1e6, c) == 0.0
        assert cutoff_factor(-1e6, c) == 1.0

    @given(valid_cutoff, st.floats(-50.0, 50.0))
    def test_symmetry(self, c, x):
        assert cutoff_factor(c.d_co + x, c) + cutoff_factor(c.d_co - x, c) == pytest.approx(
            1.0, abs=1e-12
        )

    @given(valid_cutoff, st.floats(-25.0, 25.0), st.floats(1e-3, 5.0))
    def test_strictly_decreasing(self, c, x, delta):
        # stay within ~25 logistic widths of the midpoint so neither value
        # saturates to exactly 0 or 1 in double precision
        d = c.d_co + x * c.spread
        assert cutoff_factor(d + delta * c.spread, c) < cutoff_factor(d, c)


class TestComposedReward:
    def test_no_cutoff_equals_base(self):
        s = RewardScheduleParams(base=BaseCurveParams(1.0, 2.0))
        for d in np.linspace(0.0, 5.0, 40):
            assert reward(d, s) == base_reward(d, s.base)

    def test_saturated_region_matches_base(self):
        s = calibrate_schedule(1.75, 2.20, 2.37, 1.0)
        d = s.cutoff.d_co - 10.0 * s.cutoff.spread
        assert reward(d, s) == pytest.approx(base_reward(d, s.base), rel=1e-4)

    def test_cutoff_must_sit_past_base_peak(self):
        with pytest.raises(ParameterError):
            RewardScheduleParams(
                base=BaseCurveParams(1.0, 2.0),
                cutoff=CutoffParams(d_co=0.5, spread=0.1),
            )

    def test_monotone_decline_past_cutoff(self):
        s = calibrate_schedule(1.75, 2.20, 2.37, 1.0)
        d = np.linspace(s.cutoff.d_co, s.cutoff.d_co + 3.0, 500)
        vals = [reward(x, s) for x in d]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


class TestFindPeak:
    def test_against_grid_scan(self):
        s = RewardScheduleParams(base=BaseCurveParams(1.0, 2.0))
        d_star, r_max = find_peak(s, 0.0, 10.0)
        assert d_star == pytest.approx(PEAK_D_12, abs=1e-6)
        assert r_max == pytest.approx(PEAK_R_12, rel=1e-9)

    @pytest.mark.parametrize("k", [0.5, 2.0, 7.0])
    def test_rescale_moves_peak(self, k):
        s = RewardScheduleParams(base=BaseCurveParams(1.0 * k, 2.0 * k))
        d_star, _ = find_peak(s, 0.0, 10.0 / k)
        assert d_star == pytest.approx(PEAK_D_12 / k, abs=1e-6)

    def test_default_bracket_is_the_peak_bracket(self):
        s = RewardScheduleParams(base=BaseCurveParams(1.0, 2.0))
        d_star, r_max = find_peak(s)
        assert d_star == pytest.approx(PEAK_D_12, abs=1e-6)
        assert r_max == pytest.approx(PEAK_R_12, rel=1e-9)

    def test_bad_bracket(self):
        s = RewardScheduleParams(base=BaseCurveParams(1.0, 2.0))
        with pytest.raises(DomainError):
            find_peak(s, 2.0, 1.0)

    def test_non_unimodal_detected(self):
        # two humps with a deep interior valley
        with pytest.raises(BracketingError):
            _golden_max(lambda x: math.cos(x), 0.5, 2.0 * math.pi - 0.5, 1e-9)


class TestCalibrateCutoff:
    def test_closed_form(self):
        c = calibrate_cutoff(2.20, 2.37)
        assert c.d_co == 2.20
        assert c.spread == pytest.approx(SPREAD_REFERENCE, rel=1e-12)

    def test_ln9_cancels(self):
        c = calibrate_cutoff(1.0, 1.0 + math.log(9.0))
        assert c.spread == pytest.approx(1.0, rel=1e-12)

    def test_tiny_gap(self):
        c = calibrate_cutoff(2.0, 2.0 + 1e-9)
        assert c.spread == pytest.approx(1e-9 / math.log(9.0), rel=1e-6)
        assert c.spread > 0.0

    def test_round_trip(self):
        c = calibrate_cutoff(2.20, 2.37)
        assert cutoff_factor(2.20, c) == pytest.approx(0.5, abs=1e-12)
        assert cutoff_factor(2.37, c) == pytest.approx(0.1, abs=1e-12)

    def test_ordering_enforced(self):
        with pytest.raises(OrderingError):
            calibrate_cutoff(2.37, 2.20)


class TestCalibrateSchedule:
    def test_reference_landmarks(self):
        s = calibrate_schedule(1.75, 2.20, 2.37, 1.0)
        d_star, r_max = find_peak(s, 0.5, 2.2)
        assert d_star == pytest.approx(1.75, abs=1e-4)
        assert r_max == pytest.approx(1.0, abs=1e-9)

    def test_dimensional_scaling(self):
        s1 = calibrate_schedule(1.75, 2.20, 2.37, 1.0)
        # At k = 1e-4 / 1.75, a lands near 1e4, where one ulp of a is wider
        # than a 1e-12 tolerance. The other new k need search tolerances
        # relative to the bracket, and a_lo's margin under the cutoff midpoint
        # wider than the peak search's resolution. From 1e-13 down, the peak
        # bracket ends below 1e-12, so its lower end must be relative too.
        for k in (2.0, 1e-4 / 1.75, 5.7e-7, 1e-5, 1e3, 1e7,
                  1e-13, 1e-20, 1e-50, 1e-100, 1e-200, 1e-290, 1e-300):
            s2 = calibrate_schedule(1.75 * k, 2.20 * k, 2.37 * k, 1.0)
            assert s2.base.a == pytest.approx(s1.base.a / k, rel=1e-6)
            assert s2.base.b == pytest.approx(s1.base.b / k, rel=1e-6)
            assert s2.cutoff.d_co == pytest.approx(s1.cutoff.d_co * k, rel=1e-12)
            assert s2.cutoff.spread == pytest.approx(s1.cutoff.spread * k, rel=1e-12)
            for d in (1.0, 1.75, 2.3):
                assert reward(d * k, s2) == pytest.approx(reward(d, s1), rel=1e-6)

    @pytest.mark.parametrize("b_ratio", [1.5, 2.0, 2.5, 3.0, 3.3, 4.0, 5.0, 6.0, 7.0, 10.0])
    def test_every_scale_calibrates(self, b_ratio):
        # landmarks scaled by k = 10^(e/4); e steps by 2, or by 1 at the default ratio
        for e in range(-28, 29, 1 if b_ratio == 4.0 else 2):
            k = 10.0 ** (e / 4)
            s = calibrate_schedule(1.75 * k, 2.20 * k, 2.37 * k, 1.0, b_ratio=b_ratio)
            d_star, r_max = find_peak(s)
            assert d_star == pytest.approx(1.75 * k, rel=1e-4)
            assert r_max == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("ratio", [1.5, 4.0, 10.0])
    def test_unit_peak_scales_to_the_base_peak(self, ratio):
        for e in range(-7, 8):
            a = 10.0 ** e
            base = RewardScheduleParams(BaseCurveParams(a=a, b=ratio * a))
            assert _unit_peak(ratio * a / a) / a == pytest.approx(find_peak(base)[0], rel=1e-7)

    def test_r_max_linearity(self):
        s1 = calibrate_schedule(1.75, 2.20, 2.37, 1.0)
        s5 = calibrate_schedule(1.75, 2.20, 2.37, 5.0)
        assert s5.base.a == s1.base.a
        assert s5.base.b == s1.base.b
        assert s5.cutoff == s1.cutoff
        assert s5.base.scale == pytest.approx(5.0 * s1.base.scale, rel=1e-12)

    def test_ordering_enforced(self):
        with pytest.raises(OrderingError):
            calibrate_schedule(2.20, 1.75, 2.37, 1.0)

    def test_bad_target_rejected(self):
        with pytest.raises(ParameterError):
            calibrate_schedule(1.75, 2.20, 2.37, 0.0)


class TestSerialization:
    def test_round_trip_with_cutoff(self):
        s = calibrate_schedule(1.75, 2.20, 2.37, 9.0)
        back = schedule_from_json(schedule_to_json(s))
        assert back == s

    def test_round_trip_without_cutoff(self):
        s = RewardScheduleParams(base=BaseCurveParams(0.7, 2.1, scale=4.5))
        back = schedule_from_json(schedule_to_json(s))
        assert back == s

    def test_keys(self):
        s = calibrate_schedule(1.75, 2.20, 2.37, 1.0)
        d = schedule_to_dict(s)
        assert set(d) == {"a", "b", "scale", "d_co", "spread"}
        # repr-based JSON round-trips floats exactly
        assert json.loads(schedule_to_json(s)) == d


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency: every search is `_golden_max`
    code = "import sys, pomsim; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
