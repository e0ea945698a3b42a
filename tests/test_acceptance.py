"""Acceptance gate: one test per release criterion.

Each test prints a single ``ACCEPTANCE <name>: PASS|FAIL`` line on the real
stdout (bypassing capture) and then asserts, so a plain ``pytest -v`` run
shows the verdict for every criterion.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from pomsim.agents import MinerAgent, PomCredit
from pomsim.config import load_config
from pomsim.difficulty import (
    DEFAULT_ANCHORS,
    MIN_DIFFICULTY,
    RetargetConfig,
    fit_difficulty_map,
    hash_to_difficulty,
    rate_constant_from_map,
    retarget,
)
from pomsim.reward_curve import (
    BaseCurveParams,
    CutoffParams,
    base_reward,
    calibrate_cutoff,
    calibrate_schedule,
    cutoff_factor,
    find_peak,
    reward,
)
from pomsim.simulator import (
    SimConfig,
    run,
    schedule_max,
    write_series_csv,
)

_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    # keep a handle so _report can print the verdict outside pytest's capture
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(name, ok):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"acceptance criterion {name} failed"


def test_landmark_calibration():
    t0 = time.perf_counter()
    s = calibrate_schedule(1.75, 2.20, 2.37, 1.0)
    d_star, r_max = find_peak(s, 0.5, 2.2)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(d_star - 1.75) <= 0.02
        and abs(reward(2.20, s) / r_max - 0.50) <= 0.02
        and abs(reward(2.37, s) / r_max - 0.10) <= 0.02
        and elapsed < 1.0
    )
    _report("landmark_calibration", ok)


def test_cutoff_exactness():
    t0 = time.perf_counter()
    c = CutoffParams(d_co=2.20, spread=0.08)
    ok = abs(cutoff_factor(c.d_co, c) - 0.5) <= 1e-12
    ok &= abs(cutoff_factor(c.d_co + c.spread * math.log(9.0), c) - 0.1) <= 1e-12
    fit = calibrate_cutoff(2.20, 2.37)
    ok &= abs(cutoff_factor(2.20, fit) - 0.5) <= 1e-12
    ok &= abs(cutoff_factor(2.37, fit) - 0.1) <= 1e-12
    ok &= time.perf_counter() - t0 < 1.0
    _report("cutoff_exactness", ok)


def test_curve_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    n = 1000
    ok = True
    for _ in range(n):
        a = rng.uniform(0.05, 5.0)
        b = a * rng.uniform(1.05, 10.0)
        scale = rng.uniform(0.1, 10.0)
        p = BaseCurveParams(a=a, b=b, scale=scale)

        # zero at origin, nonnegative everywhere sampled
        ok &= base_reward(0.0, p) == 0.0
        grid = np.linspace(1e-6, 20.0 / a, 400)
        vals = np.array([base_reward(d, p) for d in grid])
        ok &= bool((vals >= 0.0).all())

        # unimodal: exactly one sign change in the slope
        slope_sign = np.sign(np.diff(vals))
        slope_sign = slope_sign[slope_sign != 0]
        ok &= int(np.count_nonzero(np.diff(slope_sign))) == 1

        # logistic symmetry about the midpoint
        c = CutoffParams(d_co=rng.uniform(0.5, 5.0), spread=rng.uniform(1e-3, 1.0))
        x = rng.uniform(-20.0, 20.0) * c.spread
        ok &= abs(cutoff_factor(c.d_co + x, c) + cutoff_factor(c.d_co - x, c) - 1.0) <= 1e-12

        # analytic gradient vs central finite difference
        d = rng.uniform(0.5, 10.0) / a
        bv = math.exp(-a * d) - math.exp(-b * d)
        bp = -a * math.exp(-a * d) + b * math.exp(-b * d)
        analytic = scale * (bp * d + bv) / (2.0 * math.sqrt(bv * d))
        h = 1e-6 * max(1.0, d)
        numeric = (base_reward(d + h, p) - base_reward(d - h, p)) / (2.0 * h)
        ok &= abs(numeric - analytic) <= 1e-5 * max(abs(analytic), 1e-30)
    ok &= time.perf_counter() - t0 < 10.0
    _report("curve_property_suite", bool(ok))


def test_difficulty_map():
    t0 = time.perf_counter()
    m = fit_difficulty_map()
    err = max(abs(hash_to_difficulty(h, m) - d) for h, d in DEFAULT_ANCHORS)
    ok = err <= 0.03 and time.perf_counter() - t0 < 1.0
    _report("difficulty_map", ok)


def test_retarget_convergence():
    # constant-hashrate loop from a 100x mis-set start; the run counts as
    # converged when the trailing 50-block mean interval enters the 5% band
    # within the first 200 blocks
    t0 = time.perf_counter()
    m = fit_difficulty_map()
    kappa = rate_constant_from_map(m, 40.0, 120.0)
    hashrate = 40.0
    d_eq = kappa * hashrate * 120.0
    rc = RetargetConfig(target_interval=120.0, smoothing=0.2, clamp=1.25)
    passes = total = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        for start in (d_eq * 100.0, d_eq / 100.0):
            d, ema = start, 120.0
            iv = []
            for _ in range(200):
                obs = rng.exponential(d / (kappa * hashrate))
                iv.append(obs)
                d, ema = retarget(rc, MIN_DIFFICULTY, d, ema, obs)
            trailing = np.convolve(iv, np.ones(50) / 50.0, mode="valid")
            total += 1
            passes += bool((np.abs(trailing / 120.0 - 1.0) <= 0.05).any())
    ok = passes / total >= 0.9 and time.perf_counter() - t0 < 10.0
    _report("retarget_convergence", ok)


def test_dynamics_direction():
    t0 = time.perf_counter()
    schedule = calibrate_schedule(1.75, 2.20, 2.37, 9.0)
    n_seeds = 50
    hash_lower, init_shares, final_hash, final_share, share_down = [], [], [], [], []
    for seed in range(n_seeds):
        cfg = SimConfig(schedule=schedule, horizon=5000, seed=seed)
        cut = run(cfg).summary
        const = run(dataclasses.replace(cfg, constant_reward=True)).summary
        hash_lower.append(cut.mean_hashrate < const.mean_hashrate)
        init_shares.append(cut.initial_large_share)
        share_down.append(cut.mean_share < cut.initial_large_share)
        final_hash.append(cut.mean_hashrate)
        final_share.append(cut.mean_share)
    med_h = float(np.median(final_hash))
    med_s = float(np.median(final_share))
    ok = np.mean(hash_lower) >= 0.95
    ok &= np.mean(share_down) >= 0.80
    ok &= abs(med_h - 83.0) <= 0.35 * 83.0
    ok &= abs(med_s - 0.384) <= 0.35 * 0.384
    ok &= time.perf_counter() - t0 < 300.0
    _report("dynamics_direction", bool(ok))


def test_self_adjustment():
    # price doubles at block 2500: reward must dip below 95% of its maximum
    # within 100 blocks, then the 2000-block average must clear that minimum
    t0 = time.perf_counter()
    base = load_config("configs/price_step.json")
    step_at = base.price.at_block
    _, r_max = schedule_max(base.schedule)
    passes = 0
    n_seeds = 30
    for seed in range(n_seeds):
        series = run(dataclasses.replace(base, seed=seed))
        raws = np.array([r.raw_reward for r in series.records])
        dip_window = raws[step_at:step_at + 100]
        low = dip_window.min()
        dipped = low < 0.95 * r_max
        recovered = raws[step_at:step_at + 2000].mean() > low
        passes += bool(dipped and recovered)
    ok = passes / n_seeds >= 0.80 and time.perf_counter() - t0 < 60.0
    _report("self_adjustment", ok)


def test_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = load_config("configs/example.json")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_series_csv(run(cfg), a)
    write_series_csv(run(cfg), b)
    ok = a.read_bytes() == b.read_bytes() and time.perf_counter() - t0 < 30.0
    _report("determinism", ok)


def test_pom_credit():
    schedule = calibrate_schedule(1.75, 2.20, 2.37, 9.0)

    def duty_credits(duty, credit):
        # the multiplier of every win by `duty` past the warm-up, beside an always-on miner
        series = run(SimConfig(
            schedule=schedule, horizon=2000, seed=0, pom=credit, constant_reward=True,
            explicit_population=[
                MinerAgent(id="full", hashrate=10.0, unit_cost=0.0),
                MinerAgent(id="duty", hashrate=10.0, unit_cost=0.0, duty=duty),
            ],
        ))
        return [r.pom_multiplier for r in series.records
                if r.winner == "duty" and r.height >= credit.window]

    # active exactly required-of-window blocks earns the full multiplier
    credits = duty_credits((40, 10), PomCredit(window=50, required=40))
    ok = bool(credits) and all(c == 1.0 for c in credits)

    # a 50% duty cycle against a full-window requirement earns exactly half
    credits = duty_credits((25, 25), PomCredit(window=50, required=50))
    ok &= bool(credits) and all(abs(c - 0.5) <= 1e-12 for c in credits)

    # full uptime beats a matched intermittent miner on credited reward
    for seed in range(10):
        cfg = SimConfig(
            schedule=schedule,
            horizon=2000,
            seed=seed,
            explicit_population=[
                MinerAgent(id="full", hashrate=10.0, unit_cost=0.0),
                MinerAgent(id="duty", hashrate=10.0, unit_cost=0.0, duty=(25, 25)),
            ],
            constant_reward=True,
        )
        series = run(cfg)
        earned = {"full": 0.0, "duty": 0.0}
        for r in series.records:
            earned[r.winner] += r.credited_reward
        ok &= earned["full"] > earned["duty"]
    _report("pom_credit", bool(ok))
