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
    "dynamics": "2db294f0642830199f91e9990cee3a5109813133a058bb5be6e5bf8309ef1cf1",
    "example": "8e79f6926b3b5a02f4908626e0652c26db8729d797e9ddcc58f0a428a305b21c",
    "price_step": "8ed3bdbe3340ac7d72de4bcd9c03015455f73a7f6eb45dbb44980807c77da2ee",
    "price-series": "ba8c921d68ce0a2e9d533cb5aa70136f34908d3ed007243095d14d808e8b3b12",
    "explicit-population": "2662fcbf19b7be2444d41a28d20d1a4b02eb3bcd15bdec670bdf2d11dd924ca4",
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
