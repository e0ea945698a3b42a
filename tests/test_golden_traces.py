"""Golden traces: the SHA-256 of `blocks.csv` is pinned per (config, seed).

Any change to the simulator that moves a single bit of output, or a single
draw of the seeded generators, fails here.  To re-pin on purpose, run

    PYTHONPATH=src python tests/test_golden_traces.py

and paste each printed table over `GOLDEN` and `LEGACY`, saying in the change
why the traces moved.  The script exits 1 while `LEGACY` is unreproduced.

`LEGACY` holds today's kernel driven by `SingleGenerator`: one generator,
seeded with the seed, makes every draw, lazily, in the order the kernel
asks for them, as every draw was made before the kernel's draws were split
into one stream per purpose.  The kernel is the same under both sources,
so `GOLDEN` and `LEGACY` differ only by the draw source.  A re-pin that
moves the kernel's arithmetic re-derives both tables; the kernel from before
the split, given the same arithmetic, gave the current `LEGACY` table too.
"""

import dataclasses
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from pomsim.agents import MinerAgent, PopulationSpec
from pomsim.config import load_config
from pomsim.simulator import BlockRecord, initial_state, run, step, write_rows, write_series_csv

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
SEEDS = (0, 1, 2)
HORIZON = 1000


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


def trace_digest(config, directory: Path) -> str:
    path = directory / "blocks.csv"
    write_series_csv(run(config), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class SingleGenerator:
    """A draw source for `step` that takes each draw, when the kernel asks for it, from
    `rng`, the generator `initial_state` drew the population and the staggered start
    from: one generator for every draw, in the kernel's order."""

    def __init__(self, rng, dwell):
        self._rng, self._dwell = rng, dwell

    def interval(self):
        return self._rng.standard_exponential()

    def uniform(self):
        return self._rng.random()

    def jitter(self, n):
        return self._rng.integers(0, self._dwell, n).tolist() if self._dwell else [0] * n


def csv_lines(records) -> list[str]:
    """The lines of `blocks.csv` holding these records, as `write_series_csv` writes them
    (a list, so that a failed comparison names the first line that differs)."""
    out = io.StringIO(newline="")
    write_rows(out, BlockRecord._fields, records)
    return out.getvalue().splitlines(keepends=True)


def legacy_digest(config) -> str:
    rng = np.random.default_rng(config.seed)
    state = initial_state(config, rng)
    source = SingleGenerator(rng, config.economics.dwell)
    records = [step(state, config, source) for _ in range(config.horizon)]
    return hashlib.sha256("".join(csv_lines(records)).encode("utf-8")).hexdigest()


LEGACY = {
    "dynamics-s0-cutoff": "3edd0c2dc1bb4b576437ea0c0556fbff8f73fa608932630fd4bed1a085c394fd",
    "dynamics-s0-constant": "8f9483e290b3ff981e60cbabbc291ed5c20b2f10ad517c4f861ba50b378dab63",
    "dynamics-s1-cutoff": "087e421fdeb465f7645fd013052eccd3509dde5bc84397dfb578054c90a6f8ba",
    "dynamics-s1-constant": "3916b0c916bfc2b3e553000af285cce428cf9cf861c5e13a085632fde208ae3c",
    "dynamics-s2-cutoff": "7cafd96fc87d57d3a6f161ba43781cf84bd1063f20525f26b643af381563df47",
    "dynamics-s2-constant": "5f05236db93e329a9fc6d2f2c77b1379516314575a20211448b73f6b9e8a45cc",
    "example-s0-cutoff": "3edd0c2dc1bb4b576437ea0c0556fbff8f73fa608932630fd4bed1a085c394fd",
    "example-s0-constant": "8f9483e290b3ff981e60cbabbc291ed5c20b2f10ad517c4f861ba50b378dab63",
    "example-s1-cutoff": "087e421fdeb465f7645fd013052eccd3509dde5bc84397dfb578054c90a6f8ba",
    "example-s1-constant": "3916b0c916bfc2b3e553000af285cce428cf9cf861c5e13a085632fde208ae3c",
    "example-s2-cutoff": "7cafd96fc87d57d3a6f161ba43781cf84bd1063f20525f26b643af381563df47",
    "example-s2-constant": "5f05236db93e329a9fc6d2f2c77b1379516314575a20211448b73f6b9e8a45cc",
    "price_step-s0-cutoff": "f4f6d0cf082ae3b2a3bd880fd1d15581ea5f4cc4546e1dacd4f1e5c22ebfde3d",
    "price_step-s0-constant": "34ec0d89b8fc2a1cfff7378b0c7304ae34d8dd7babfad0f6de4d074c722516de",
    "price_step-s1-cutoff": "e59a98facb8ed6ae0515d2351b1626d11a31555012d1cb74e5373df412778acc",
    "price_step-s1-constant": "c60c3328099ffc58c63f89e3d711a61853c4846cb921b108ebc37da45d9740c0",
    "price_step-s2-cutoff": "c131237c2b00c233c1df6429dae1706a643e9e0f9051e82560aab7bd877d6f66",
    "price_step-s2-constant": "7a5e62086c3fd14a61d248124c4a0bc119a8006b9bd6d6307a052368c74c5001",
    "cliff-s0": "4f47b277c496066843055db176913b3f7d4fb522187a154ea68045014a7a0252",
    "cliff-s1": "e271641ace5e198bae75a51bda86108f1b7b18c1adca78f37b14440d20b2e3d2",
    "cliff-s2": "c3881c66fcf6fc22e3c7c5a2120ea7a3e65e4f32b72bf12602848bbaee91db53",
    "duty-s0": "dd7d4e18770b4c7c27e88f8bc6b71515c98cfba06bd3880ed35e6eca4802acb9",
    "duty-s1": "becf1f59d47e1b76a1296b0bc672e0e6065b5ae1e1dcfaae75d57031819fc34e",
    "duty-s2": "9903397c17c1b0d0fadc2a519fa81c23923c50d10a6f3ef6c94ce874e85cc308",
}


GOLDEN = {
    "dynamics-s0-cutoff": "77e2606a8817378da59e1596641987f5e94fc9420722070972ad1b359f473d12",
    "dynamics-s0-constant": "c010a449ac2276cc7e9ee20104e5d38ef88e3dbcbb7e9a752d75b4549c8fbac9",
    "dynamics-s1-cutoff": "c8a2ddb3a5db74c4bda86a2b1caf5fd463ceaf06c5d4a010429ef76aae55afd4",
    "dynamics-s1-constant": "a0e3c518953abd8a60424448e3b820bf55743912402338acb22058f21dca65dd",
    "dynamics-s2-cutoff": "c8770298460aa7f05a4dd82577331881d6b31b1002ebbe7574e9071c283c7191",
    "dynamics-s2-constant": "0f29419f9650ce0efe0b3e77171dc031248ef0d50675a7de4267970a20edf3a7",
    "example-s0-cutoff": "77e2606a8817378da59e1596641987f5e94fc9420722070972ad1b359f473d12",
    "example-s0-constant": "c010a449ac2276cc7e9ee20104e5d38ef88e3dbcbb7e9a752d75b4549c8fbac9",
    "example-s1-cutoff": "c8a2ddb3a5db74c4bda86a2b1caf5fd463ceaf06c5d4a010429ef76aae55afd4",
    "example-s1-constant": "a0e3c518953abd8a60424448e3b820bf55743912402338acb22058f21dca65dd",
    "example-s2-cutoff": "c8770298460aa7f05a4dd82577331881d6b31b1002ebbe7574e9071c283c7191",
    "example-s2-constant": "0f29419f9650ce0efe0b3e77171dc031248ef0d50675a7de4267970a20edf3a7",
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


@pytest.mark.parametrize("name,config", CASES, ids=[name for name, _ in CASES])
def test_blocks_csv_digest_is_pinned(name, config, tmp_path):
    assert trace_digest(config, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name,config", CASES, ids=[name for name, _ in CASES])
def test_the_single_generator_gives_the_legacy_digest(name, config):
    assert legacy_digest(config) == LEGACY[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(LEGACY) == sorted(name for name, _ in CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: trace_digest(config, Path(tmp)) for name, config in CASES}
    legacy = {name: legacy_digest(config) for name, config in CASES}
    for title, table in (("GOLDEN", golden), ("LEGACY", legacy)):
        print(f"{title} = {{", *(f'    "{k}": "{v}",' for k, v in table.items()), "}", sep="\n")
    moved = [name for name in legacy if legacy[name] != LEGACY[name]]
    print(f"LEGACY: {len(CASES) - len(moved)} of {len(CASES)} reproduced", *moved, file=sys.stderr)
    sys.exit(1 if moved else 0)
