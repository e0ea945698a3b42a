"""Golden traces: the SHA-256 of `blocks.csv` is pinned per (config, seed).

Any change to the simulator that moves a single bit of output, or a single
draw of the seeded generators, fails here.  To re-pin on purpose, run

    PYTHONPATH=src python tests/test_golden_traces.py

and paste the printed table over `GOLDEN`, saying in the change why the
traces moved.  The script also checks `LEGACY`.

`LEGACY` holds the digests from before the kernel's draws were split into
one stream per purpose, when one generator seeded with the seed made every
draw.  Driven by `SingleGenerator`, which draws from that generator lazily
in the old order, today's kernel still gives each of them: so that split
moved the streams and nothing else.
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


def _duty_population():
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
            dynamics, horizon=HORIZON, seed=seed, explicit_population=_duty_population()
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


def legacy_digest(config) -> str:
    rng = np.random.default_rng(config.seed)
    state = initial_state(config, rng)
    source = SingleGenerator(rng, config.economics.dwell)
    records = [step(state, config, source)[1] for _ in range(config.horizon)]
    out = io.StringIO(newline="")
    write_rows(out, BlockRecord._fields, records)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


LEGACY = {
    "dynamics-s0-cutoff": "9e97a3fe00891d491d22061f49a65a5a916889e9aaec5e147213132e2f3c54dc",
    "dynamics-s0-constant": "6e5c841e1e0971b83b607e6619a3f56dbe554eee74e747d9384ab48f49286e53",
    "dynamics-s1-cutoff": "8efcd541a21517f8e5ebbecf69f16a8517a70c33b6fd5039b226ed09357b3c5d",
    "dynamics-s1-constant": "3916b0c916bfc2b3e553000af285cce428cf9cf861c5e13a085632fde208ae3c",
    "dynamics-s2-cutoff": "187e4d34d6c2f829cf3d4896892f03c5136ffa925dd01e6f013717f956a9d7a0",
    "dynamics-s2-constant": "5d59b06fab5780204703915956e3b87cd7e9f6d84525f4ccf3958d5b49182283",
    "example-s0-cutoff": "9e97a3fe00891d491d22061f49a65a5a916889e9aaec5e147213132e2f3c54dc",
    "example-s0-constant": "6e5c841e1e0971b83b607e6619a3f56dbe554eee74e747d9384ab48f49286e53",
    "example-s1-cutoff": "8efcd541a21517f8e5ebbecf69f16a8517a70c33b6fd5039b226ed09357b3c5d",
    "example-s1-constant": "3916b0c916bfc2b3e553000af285cce428cf9cf861c5e13a085632fde208ae3c",
    "example-s2-cutoff": "187e4d34d6c2f829cf3d4896892f03c5136ffa925dd01e6f013717f956a9d7a0",
    "example-s2-constant": "5d59b06fab5780204703915956e3b87cd7e9f6d84525f4ccf3958d5b49182283",
    "price_step-s0-cutoff": "47b7b10749812c1a449fb45e3e53ea59ffe06ed7cea5b082c909de3642340b31",
    "price_step-s0-constant": "e4dc53416fd40c3a75643b735a085d7825d05d985ab5f45e6ad620effe742ecf",
    "price_step-s1-cutoff": "f48ced94fc1135655f1d62901bc20d797c0315dca1bccc3fb68aefad40f1228b",
    "price_step-s1-constant": "47a4992a6842c9583368855685b9158e87e994be6d3c52adfecfad6a9526b46d",
    "price_step-s2-cutoff": "f547a4cbd5f7ded6169fb4404aed6581a206d5757b1efb772448b5a7a26e6f53",
    "price_step-s2-constant": "614e7ea412331802534a38307115baa9c0773f75b0d2035a8af79bdf05b94487",
    "cliff-s0": "e59d925ae6579f9d7e257437a4266ec5f8b20c733146cb1d124f88827b5ed4b3",
    "cliff-s1": "63102d668589af55f1609ba88696d71d2ce32f264184322f616338948d5ea8e2",
    "cliff-s2": "dd9129c88c68dc330a68bde9f64522b3649664bc972983c59d8baacb160a2fc3",
    "duty-s0": "dd7d4e18770b4c7c27e88f8bc6b71515c98cfba06bd3880ed35e6eca4802acb9",
    "duty-s1": "becf1f59d47e1b76a1296b0bc672e0e6065b5ae1e1dcfaae75d57031819fc34e",
    "duty-s2": "9903397c17c1b0d0fadc2a519fa81c23923c50d10a6f3ef6c94ce874e85cc308",
}


GOLDEN = {
    "dynamics-s0-cutoff": "61df174c3bea101682886c4131cbdc85d7906ffc42678c27de34e54d09d2d33b",
    "dynamics-s0-constant": "19dce144af60fd740977ed6a8947f1c052d9e9ad7c4f622d592457360d4b9b14",
    "dynamics-s1-cutoff": "cb2fba5c55c74456b411b1d2904573a7d85451f7eee1d3c169aa00beb809171f",
    "dynamics-s1-constant": "a0e3c518953abd8a60424448e3b820bf55743912402338acb22058f21dca65dd",
    "dynamics-s2-cutoff": "06902b377b9bb0aa88d6eae8a8574669aeec9bdb027bace2b4824ad856dd8a55",
    "dynamics-s2-constant": "57e6797e4e05227cf0f07707c2226d1f68b0610a96098aed9bc8618a966493c8",
    "example-s0-cutoff": "61df174c3bea101682886c4131cbdc85d7906ffc42678c27de34e54d09d2d33b",
    "example-s0-constant": "19dce144af60fd740977ed6a8947f1c052d9e9ad7c4f622d592457360d4b9b14",
    "example-s1-cutoff": "cb2fba5c55c74456b411b1d2904573a7d85451f7eee1d3c169aa00beb809171f",
    "example-s1-constant": "a0e3c518953abd8a60424448e3b820bf55743912402338acb22058f21dca65dd",
    "example-s2-cutoff": "06902b377b9bb0aa88d6eae8a8574669aeec9bdb027bace2b4824ad856dd8a55",
    "example-s2-constant": "57e6797e4e05227cf0f07707c2226d1f68b0610a96098aed9bc8618a966493c8",
    "price_step-s0-cutoff": "e3dfcdaa4f249f097bb3ec06f3521be2a2add9afdf923ff1ce60a6c45cef260a",
    "price_step-s0-constant": "42ad043e1ab9496a6697fadaa1ca370fe160829928112c3f23be218bf8274f7d",
    "price_step-s1-cutoff": "bd659151e0f585ad16c35fcf74db736aacfcba750cabc78c8c0f7a0dac16c718",
    "price_step-s1-constant": "b43074d74a238f89a1c30c8c4609a301e482106f47298d4e6c852b6f4571051b",
    "price_step-s2-cutoff": "24de8f486d4a929f14072697ecdc26b6d696c29c814f246f9a92513f185e3a37",
    "price_step-s2-constant": "fa8ebac930c84d5d19f85b0851ec19ba0d92e87fbe8a3b0e7758c92e4788ee8b",
    "cliff-s0": "51439777626dd6645a63f939b0020c1a8a854d34a358f505b80cbc96ad35540e",
    "cliff-s1": "840b904ef7c74c2efec050f5a5a2da19525d6aefd24a9927dd9e2f8743a26c62",
    "cliff-s2": "792b8fdcf0a5aad9a7ce7e7b612494db5f90ed190c625f4e936a02eceada2dac",
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
        print("GOLDEN = {")
        for name, config in CASES:
            print(f'    "{name}": "{trace_digest(config, Path(tmp))}",')
        print("}")
    moved = [name for name, config in CASES if legacy_digest(config) != LEGACY[name]]
    print(f"LEGACY: {len(CASES) - len(moved)} of {len(CASES)} reproduced", *moved, file=sys.stderr)
    sys.exit(1 if moved else 0)
