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
    "dynamics-s0-cutoff": "8af3a3737e5c55ff59e4e592572abe6d4a58842f619aa13e5d2332065cb2ce01",
    "dynamics-s0-constant": "6e5c841e1e0971b83b607e6619a3f56dbe554eee74e747d9384ab48f49286e53",
    "dynamics-s1-cutoff": "38cd26457a892904d4e9e751dbd4bf4780b5ff590d981a74ccee025c5a5c3ca0",
    "dynamics-s1-constant": "3916b0c916bfc2b3e553000af285cce428cf9cf861c5e13a085632fde208ae3c",
    "dynamics-s2-cutoff": "8bbc5c4a2e526d5b7bc96cb873b917c24bd8854f0d3fd2b0d4c228bb3a7e53a4",
    "dynamics-s2-constant": "5d59b06fab5780204703915956e3b87cd7e9f6d84525f4ccf3958d5b49182283",
    "example-s0-cutoff": "8af3a3737e5c55ff59e4e592572abe6d4a58842f619aa13e5d2332065cb2ce01",
    "example-s0-constant": "6e5c841e1e0971b83b607e6619a3f56dbe554eee74e747d9384ab48f49286e53",
    "example-s1-cutoff": "38cd26457a892904d4e9e751dbd4bf4780b5ff590d981a74ccee025c5a5c3ca0",
    "example-s1-constant": "3916b0c916bfc2b3e553000af285cce428cf9cf861c5e13a085632fde208ae3c",
    "example-s2-cutoff": "8bbc5c4a2e526d5b7bc96cb873b917c24bd8854f0d3fd2b0d4c228bb3a7e53a4",
    "example-s2-constant": "5d59b06fab5780204703915956e3b87cd7e9f6d84525f4ccf3958d5b49182283",
    "price_step-s0-cutoff": "350c242b0e631404e3f7101951299bd14ad2d47db7320aea62b43979845d8289",
    "price_step-s0-constant": "e4dc53416fd40c3a75643b735a085d7825d05d985ab5f45e6ad620effe742ecf",
    "price_step-s1-cutoff": "2fff7e971e43003e27936a7b63c8fcf2452abf07e9fbd855cf30846ba929a5e8",
    "price_step-s1-constant": "47a4992a6842c9583368855685b9158e87e994be6d3c52adfecfad6a9526b46d",
    "price_step-s2-cutoff": "e30ad8b0d25435fea808ae4349aacbc950bb7730fb3d40fc7ec2cf8a808ab314",
    "price_step-s2-constant": "614e7ea412331802534a38307115baa9c0773f75b0d2035a8af79bdf05b94487",
    "cliff-s0": "0cae83d3b787eac3d6edbfd9aa5aeb62acfd40591dfd0d7970a4f2870ae79352",
    "cliff-s1": "ee1b8f77d09966faa7446d0f5fc261a75a618eaabc5249f26f3aebe1a5770763",
    "cliff-s2": "f9fcd43b621d2c99660a87218230366faad0e954276f91be1391907aa0c8d089",
    "duty-s0": "d453c60d35b851087aa1066c4f0d408d1f14460995cfed8f87b9b6f5768c531a",
    "duty-s1": "1972a93d6c36986d0a67cde4f6df533598288b0677b2f5e7bb52e7dafde4c87c",
    "duty-s2": "b22292a675272a44468fce0deb34129caa885a9dea3adea8b5c26b3a2853da35",
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
