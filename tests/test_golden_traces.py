"""Golden traces: the SHA-256 of `blocks.csv` is pinned per (config, seed), and the
kernel gives the dense model's lines on every case.

Any change to the simulator that moves a single bit of output, or a single
draw of the seeded generators, fails here.  To re-pin on purpose, run

    PYTHONPATH=src python tests/test_golden_traces.py

and paste the printed table over `GOLDEN`, saying in the change why the traces
moved.  The script exits 1 if the kernel and `dense_model` disagree on any case,
so a table it prints with exit status 0 is the model's too.

Each case has three tests: the kernel's digest is pinned here, the dense model's
lines equal the kernel's in `test_simulator.TestDenseModel`, and the two agree,
unpinned, at two further seeds of the case.
"""

import dataclasses
import functools
import hashlib
import io
import sys
from pathlib import Path
from unittest import mock

import pytest

from pomsim import simulator
from pomsim.agents import MinerAgent, PopulationSpec
from pomsim.config import load_config
from pomsim.simulator import BlockRecord, run, schedule_max, write_rows

import dense_model

ROOT = Path(__file__).resolve().parent.parent
# example.json is dynamics.json with every default written out: the same traces
CONFIGS = [p for p in sorted((ROOT / "configs").glob("*.json")) if p.stem != "example"]
SEEDS = (0, 1, 2)
HORIZON = 1000
STALL_QUANTA = 1000  # the cap on both sides: a healthy run stalls for a few quanta at most


def duty_miners():
    # mixed duty cycles and costs: decisions, dwell and the duty mask all bite.
    # full0 costs nothing and never leaves: the stall loop does not advance
    # the height, so a network of only off-phase duty miners would never
    # restart.
    return [
        MinerAgent(id="full0", hashrate=12.0, unit_cost=0.0),
        MinerAgent(id="full1", hashrate=6.0, unit_cost=1.5),
        MinerAgent(id="duty0", hashrate=10.0, unit_cost=0.5, duty=(5, 5)),
        MinerAgent(id="duty1", hashrate=4.0, unit_cost=1.0, duty=(3, 7)),
        MinerAgent(id="duty2", hashrate=20.0, unit_cost=2.0, duty=(40, 10)),
    ]


def cases():
    """(name, config) for every pinned trace."""
    out = []
    for path in CONFIGS:
        base = load_config(path)
        for seed in SEEDS:
            for constant in (False, True):
                name = f"{path.stem}-s{seed}-{'constant' if constant else 'cutoff'}"
                cfg = dataclasses.replace(
                    base, horizon=HORIZON, seed=seed, constant_reward=constant
                )
                out.append((name, cfg))
    dynamics = load_config(ROOT / "configs" / "dynamics.json")
    for seed in SEEDS:
        # 2,000 miners overshoot the cutoff: mass exits, stall quanta, mass re-entry
        cliff = dataclasses.replace(
            dynamics,
            horizon=300,
            seed=seed,
            population=PopulationSpec(n_small=1936, n_large=64),
        )
        out.append((f"cliff-s{seed}", cliff))
    for seed in SEEDS:
        duty = dataclasses.replace(
            dynamics, horizon=HORIZON, seed=seed, explicit_population=duty_miners()
        )
        out.append((f"duty-s{seed}", duty))
    return out


def csv_lines(records) -> list[str]:
    """The lines of `blocks.csv` holding these records, as `write_series_csv` writes them
    (a list, so that a failed comparison names the first line that differs)."""
    out = io.StringIO(newline="")
    write_rows(out, BlockRecord._fields, records)
    return out.getvalue().splitlines(keepends=True)


def assert_invariants(records, r_max):
    """The simulator's invariants on every record of one run."""
    clock = 0.0
    for i, r in enumerate(records):
        assert r.height == i and r.timestamp > clock
        clock = r.timestamp
        assert 0.0 <= r.credited_reward <= r.raw_reward <= r_max + 1e-9
        assert r.credited_reward == r.raw_reward * r.pom_multiplier
        assert 0.0 <= r.pom_multiplier <= 1.0 and 0.0 <= r.large_miner_share <= 1.0
        assert r.active_miner_count >= 1


def traces(config):
    """The kernel's records and `blocks.csv` lines, then the dense model's, with
    `_MAX_STALL_QUANTA` at `STALL_QUANTA` on both sides."""
    with mock.patch.object(simulator, "_MAX_STALL_QUANTA", STALL_QUANTA):
        records = run(config).records
    model = list(dense_model.blocks(config, max_stall_quanta=STALL_QUANTA))
    return records, csv_lines(records), model, csv_lines(model)


@functools.lru_cache(maxsize=None)
def pinned_traces(name):
    """`traces` of the pinned case `name`, run once for the tests that share it."""
    return traces(PINNED[name])


def digest(lines) -> str:
    """The SHA-256 of the `blocks.csv` that holds these lines."""
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


GOLDEN = {
    "dynamics-s0-cutoff": "77e2606a8817378da59e1596641987f5e94fc9420722070972ad1b359f473d12",
    "dynamics-s0-constant": "c010a449ac2276cc7e9ee20104e5d38ef88e3dbcbb7e9a752d75b4549c8fbac9",
    "dynamics-s1-cutoff": "c8a2ddb3a5db74c4bda86a2b1caf5fd463ceaf06c5d4a010429ef76aae55afd4",
    "dynamics-s1-constant": "a0e3c518953abd8a60424448e3b820bf55743912402338acb22058f21dca65dd",
    "dynamics-s2-cutoff": "c8770298460aa7f05a4dd82577331881d6b31b1002ebbe7574e9071c283c7191",
    "dynamics-s2-constant": "0f29419f9650ce0efe0b3e77171dc031248ef0d50675a7de4267970a20edf3a7",
    "price_step-s0-cutoff": "43ce012a93ee181d6fd9789bb9dbe67c40e268b274e5604c25333204fdc92aa6",
    "price_step-s0-constant": "3684d6d9ef3f8a726854ef04ebd1ad11dfc9e2e6c02aed3268b4a29e0fbdc6ad",
    "price_step-s1-cutoff": "3115ae327721165debe14db851364f590888eb9a2c962dd0519650c437a61a32",
    "price_step-s1-constant": "db82c0ceadd1a4abcdc354935059abdae18598485a5ecfe18e35099631f945d4",
    "price_step-s2-cutoff": "4bb8a2d5935b2bf3a473f816c8a506c633f8a555294727fe6483d8d5de2cfbb5",
    "price_step-s2-constant": "415ddde265f72a0c1ed17783a0f499e139170337eb6a101c113b1042246a879c",
    "cliff-s0": "ab74883f73a4edd2bcb2009b4e123f4db30f9db7fd9df776677eaf9e48b9926c",
    "cliff-s1": "dfa3f4af2b81be3988f8a720de656c5a0b1453ba800a6322822ec47b64edb033",
    "cliff-s2": "c7034f1defc3d32f699c2e1e94a559468ccb039a09da15b62e44c30411de010e",
    "duty-s0": "689a61bd3ecaad5af8fd822d9c779fe76994dea9a1fac139bb8db34114c8c0ee",
    "duty-s1": "5b636f27a2c8d2054acebd16265c7fe35f4820fbd6a6de836c57283f7765f934",
    "duty-s2": "add5aeaee25269c660f645d0780bbbd04cb121b10af19920990f9d8054b0ef94",
}


CASES = cases()
PINNED = dict(CASES)  # the golden traces' configs, by name
# each case again at seeds len(SEEDS) and 2 * len(SEEDS) above its own: seeds 3-8,
# so each adds two trajectories that no other case runs
UNPINNED = [
    (f"{name}+{k * len(SEEDS)}", dataclasses.replace(config, seed=config.seed + k * len(SEEDS)))
    for k in (1, 2)
    for name, config in CASES
]


@pytest.mark.parametrize("name", PINNED)
def test_blocks_csv_digest_is_pinned(name):
    records, kernel, _, _ = pinned_traces(name)
    assert digest(kernel) == GOLDEN[name]
    assert_invariants(records, schedule_max(PINNED[name].schedule)[1])


@pytest.mark.parametrize("name,config", UNPINNED, ids=[name for name, _ in UNPINNED])
def test_the_kernel_gives_the_models_lines_off_the_pinned_seeds(name, config):
    records, kernel, _, model = traces(config)
    assert kernel == model
    assert_invariants(records, schedule_max(config.schedule)[1])


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(name for name, _ in CASES)


def test_the_example_config_is_dynamics_with_every_default_written_out():
    # so the example's traces are the dynamics cases', and none is pinned twice
    example = load_config(ROOT / "configs" / "example.json")
    dynamics = load_config(ROOT / "configs" / "dynamics.json")
    assert example == dataclasses.replace(dynamics, horizon=1000, seed=1)


if __name__ == "__main__":
    golden, disagree = {}, []
    for name, config in CASES:
        _, kernel, _, model = traces(config)
        golden[name] = digest(kernel)
        if kernel != model:
            disagree.append(name)
    print("GOLDEN = {", *(f'    "{k}": "{v}",' for k, v in golden.items()), "}", sep="\n")
    print(f"kernel and dense model agree on {len(CASES) - len(disagree)} of {len(CASES)} cases",
          *disagree, file=sys.stderr)
    sys.exit(1 if disagree else 0)
