"""Golden traces: the SHA-256 of `blocks.csv` is pinned per (config, seed).

Any change to the simulator that moves a single bit of output, or a single
draw of the seeded generator, fails here.  To re-pin on purpose, run

    PYTHONPATH=src python tests/test_golden_traces.py

and paste the printed table over `GOLDEN`, saying in the change why the
traces moved.
"""

import dataclasses
import hashlib
import tempfile
from pathlib import Path

import pytest

from pomsim.agents import MinerAgent, PopulationSpec
from pomsim.config import load_config
from pomsim.simulator import run, write_series_csv

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


GOLDEN = {
    "dynamics-s0-cutoff": "547af357717ae97f39670cc13590783e1940a8588395dba19e43871be05eed1e",
    "dynamics-s0-constant": "6e5c841e1e0971b83b607e6619a3f56dbe554eee74e747d9384ab48f49286e53",
    "dynamics-s1-cutoff": "8a0f8e49089514f7b3c36ea4b5f4e5fc1822ffef0aec7cf1327e71efeaaf676e",
    "dynamics-s1-constant": "3916b0c916bfc2b3e553000af285cce428cf9cf861c5e13a085632fde208ae3c",
    "dynamics-s2-cutoff": "f34c11fcd15739c91d00029f690b4607bb049f864def9fbc1847b7de3bd41ba7",
    "dynamics-s2-constant": "5d59b06fab5780204703915956e3b87cd7e9f6d84525f4ccf3958d5b49182283",
    "example-s0-cutoff": "547af357717ae97f39670cc13590783e1940a8588395dba19e43871be05eed1e",
    "example-s0-constant": "6e5c841e1e0971b83b607e6619a3f56dbe554eee74e747d9384ab48f49286e53",
    "example-s1-cutoff": "8a0f8e49089514f7b3c36ea4b5f4e5fc1822ffef0aec7cf1327e71efeaaf676e",
    "example-s1-constant": "3916b0c916bfc2b3e553000af285cce428cf9cf861c5e13a085632fde208ae3c",
    "example-s2-cutoff": "f34c11fcd15739c91d00029f690b4607bb049f864def9fbc1847b7de3bd41ba7",
    "example-s2-constant": "5d59b06fab5780204703915956e3b87cd7e9f6d84525f4ccf3958d5b49182283",
    "price_step-s0-cutoff": "02a3fa1d85e6d0cc5083f942d8b401a59ab8e0fe89e78dfd11853bdf24dc9e49",
    "price_step-s0-constant": "e4dc53416fd40c3a75643b735a085d7825d05d985ab5f45e6ad620effe742ecf",
    "price_step-s1-cutoff": "ea703bd0673410186a29f15473d4d940e807465e91b250a56b259ebed2bc95e8",
    "price_step-s1-constant": "47a4992a6842c9583368855685b9158e87e994be6d3c52adfecfad6a9526b46d",
    "price_step-s2-cutoff": "88d3b7417cdee81f4b9ee28ca269e82fb4b7ea367532e4ab4e0cc6e387ea1482",
    "price_step-s2-constant": "614e7ea412331802534a38307115baa9c0773f75b0d2035a8af79bdf05b94487",
    "cliff-s0": "e943e08a4218b956470f3255540e1c22ef56dacb104a8118b6e3ca4900b8d481",
    "cliff-s1": "632d66814d11032a14ab8c9b7cb31c2426138897b80817a0e2f43570eb538fa2",
    "cliff-s2": "fcb98c8b7a097d72e6c621767d7cd4a6d75464b73b22db54fdf9f7cd295a4a49",
    "duty-s0": "be2eae233c1e792deedd67e5cfd8182bbf18f3e3a3f3db0a8d6c42dee30ac921",
    "duty-s1": "f88c8bcf4f3dc6ed5ceb7a667f0c8f39657409cd2c46f8ddbd6551e919104970",
    "duty-s2": "4714e625796ce35335acff547afc7fd6890e6bd8d89eba1cc8567d611135bc6d",
}


CASES = cases()


@pytest.mark.parametrize("name,config", CASES, ids=[name for name, _ in CASES])
def test_blocks_csv_digest_is_pinned(name, config, tmp_path):
    assert trace_digest(config, tmp_path) == GOLDEN[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(name for name, _ in CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for name, config in CASES:
            print(f'    "{name}": "{trace_digest(config, Path(tmp))}",')
        print("}")
