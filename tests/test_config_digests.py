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


# Re-pinned, all 6, when `fit_difficulty_map` became the closed-form fit: each config
# stores the fitted default map, whose slope and intercept moved by a few ulps
# (`test_golden_traces.GOLDEN` says how, and README how the re-pin was proved).
GOLDEN = {
    "dynamics": "4a0a6f31928e57f9dffb4ff3d4242e9fe987556be92d95763657e944ca659de3",
    "example": "0a00e825f4ca47d5257938740315c653589a2feb26cac71c1bdd81e1eeb91d4b",
    "price_step": "0c2e11c0ae5bc30501b41b6bcdbb86c4c2a206b3e6e86413a021d61dbd5becfb",
    "price-series": "53304149799834fcc02cc6b4852a8f11447e3aed49611040e0e5977ec7c932fe",
    # re-pinned when an explicit miner's genesis `active` flag became a JSON field: the
    # serialized form writes `"active": true` for each of the three miners
    "explicit-population": "5ec0d4309b6512a876c566d8e8e95ba561351a4edb31a0b4add9dc5fdae4e7d5",
    "explicit-schedule": "9a6b9dab83e762320a74a9a7b818555f0a2860de8c63ad99c6b2201b4edae21c",
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
