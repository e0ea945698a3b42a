"""Config digests: `SimConfig.digest()` is pinned per config.

The digest is the SHA-256 of the serialized config, so it pins the
serializer (`SimConfig.to_dict`) and the parser's defaults together.  The
golden traces pin `blocks.csv` only; this pins the `config_digest` that
`summary.json` and `aggregate.json` carry.  To re-pin on purpose, run

    PYTHONPATH=src python tests/test_config_digests.py

and paste the printed table over `GOLDEN`, saying in the change why the
digests moved.
"""

import json
from pathlib import Path

import pytest

from pomsim.config import config_from_dict

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str) -> dict:
    return json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))


def cases():
    """(name, config dict) for every pinned digest."""
    out = [(path.stem, _load(path.name)) for path in sorted((ROOT / "configs").glob("*.json"))]

    series = _load("dynamics.json")
    series["price"] = {"series": [1.0, 2.0, 3.0]}
    out.append(("price-series", series))

    explicit = _load("dynamics.json")
    explicit["population"] = {
        "explicit": [
            {"hashrate": 10.0, "unit_cost": 0.5},
            {"id": "big", "hashrate": 20.0, "unit_cost": 1.0},
            {"id": "part", "hashrate": 4.0, "unit_cost": 0.2, "duty": [25, 25]},
        ]
    }
    out.append(("explicit-population", explicit))

    params = _load("dynamics.json")
    params["schedule"] = {"a": 0.58, "b": 2.32, "scale": 9.0, "d_co": 2.2, "spread": 0.077}
    params["rate_constant"] = 0.0004
    out.append(("explicit-schedule", params))
    return out


GOLDEN = {
    "dynamics": "7ac64b21efa54baabe676cf9d0642bafbd33bc80e2daf9126107940ebe232e43",
    "example": "193ccc4e7de2194cdaddf823f4c313051c0334fc19caae8dd2233112285edaeb",
    "price_step": "036338281e852895af62207ee95067e31d7284ad9d1851c175c00fb347a4737a",
    "price-series": "bf282355c0ed7f31fd9df9d8aec5d37300d8004fbbedff97784b940638930903",
    # re-pinned when an explicit miner's genesis `active` flag became a JSON field: the
    # serialized form writes `"active": true` for each of the three miners
    "explicit-population": "3b54ed40e7fbfa9f9471560644b0bc99154732cc15843d9aa6f7abb75a914cc7",
    "explicit-schedule": "6a8c6a11260d7248966f0df6b2756d4f7b566146129e00a213a8e31cb647185d",
}


CASES = cases()


@pytest.mark.parametrize("name,data", CASES, ids=[name for name, _ in CASES])
def test_config_digest_is_pinned(name, data):
    assert config_from_dict(data).digest() == GOLDEN[name]


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(name for name, _ in CASES)


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, data in CASES:
        print(f'    "{name}": "{config_from_dict(data).digest()}",')
    print("}")
