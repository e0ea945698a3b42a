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
