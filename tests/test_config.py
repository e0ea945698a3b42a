import copy
import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pomsim.config import config_from_dict, load_config, schedule_from_dict
from pomsim.errors import ConfigError
from pomsim.simulator import SimConfig, run


def minimal(**extra):
    d = {
        "schedule": {"landmarks": {"peak_d": 1.75, "half_d": 2.20, "tenth_d": 2.37, "r_max": 9.0}},
        "horizon": 100,
        "seed": 1,
    }
    d.update(extra)
    return d


class TestTopLevel:
    def test_minimal_config(self):
        cfg = config_from_dict(minimal())
        assert cfg.horizon == 100
        assert cfg.seed == 1
        assert cfg.price.constant == 30.0

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ConfigError, match=r"\$: unknown key\(s\) \['horizzon'\]"):
            config_from_dict(minimal(horizzon=10))

    def test_missing_required_key_named(self):
        d = minimal()
        del d["seed"]
        with pytest.raises(ConfigError, match="missing required key"):
            config_from_dict(d)

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="expected an object"):
            config_from_dict([1, 2, 3])

    def test_horizon_must_be_integer(self):
        with pytest.raises(ConfigError, match=r"\$\.horizon"):
            config_from_dict(minimal(horizon=3.5))


class TestSchedule:
    def test_explicit_params(self):
        cfg = config_from_dict(
            minimal(schedule={"a": 0.58, "b": 2.32, "scale": 9.0, "d_co": 2.2, "spread": 0.077})
        )
        assert cfg.schedule.base.a == 0.58
        assert cfg.schedule.cutoff.d_co == 2.2

    def test_unknown_landmark_key(self):
        d = minimal()
        d["schedule"]["landmarks"]["peak"] = 1.0
        with pytest.raises(ConfigError, match=r"\$\.schedule\.landmarks"):
            config_from_dict(d)


class TestSections:
    def test_explicit_population(self):
        cfg = config_from_dict(
            minimal(
                population={
                    "explicit": [
                        {"hashrate": 10.0, "unit_cost": 0.0},
                        {"id": "big", "hashrate": 20.0, "unit_cost": 1.0},
                    ]
                }
            )
        )
        assert [m.id for m in cfg.explicit_population] == ["m000", "big"]
        assert cfg.explicit_population[1].hashrate == 20.0

    def test_duty_pair_parsed(self):
        cfg = config_from_dict(
            minimal(
                population={"explicit": [{"hashrate": 1.0, "unit_cost": 0.0, "duty": [25, 25]}]}
            )
        )
        assert cfg.explicit_population[0].duty == (25, 25)

    def test_bad_duty_shape(self):
        with pytest.raises(ConfigError, match=r"duty"):
            config_from_dict(
                minimal(population={"explicit": [{"hashrate": 1.0, "unit_cost": 0.0, "duty": [5]}]})
            )

    def test_population_spec_fields(self):
        cfg = config_from_dict(minimal(population={"n_small": 3, "n_large": 1}))
        assert cfg.population.n_small == 3
        assert cfg.explicit_population is None

    def test_price_step(self):
        cfg = config_from_dict(minimal(price={"initial": 1.0, "factor": 2.0, "at_block": 10}))
        assert cfg.price.at(9) == 1.0
        assert cfg.price.at(10) == 2.0

    def test_price_series(self):
        cfg = config_from_dict(minimal(price={"series": [1.0, 2.0, 3.0]}))
        assert cfg.price.at(1) == 2.0
        assert cfg.price.at(99) == 3.0

    def test_unknown_nested_key_names_path(self):
        with pytest.raises(ConfigError, match=r"\$\.retarget: unknown key"):
            config_from_dict(minimal(retarget={"smooth": 0.2}))

    def test_difficulty_map_from_anchors(self):
        cfg = config_from_dict(
            minimal(difficulty_map={"anchors": [[40, 1.75], [51, 2.20], [55, 2.37]]})
        )
        assert cfg.difficulty_map.slope == pytest.approx(0.041243093922652, rel=1e-9)

    def test_invalid_value_wrapped_with_path(self):
        with pytest.raises(ConfigError, match=r"\$\.economics"):
            config_from_dict(minimal(economics={"margin_on": 0.5}))


class TestLoadConfig:
    def test_round_trip_from_file(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(minimal()))
        cfg = load_config(p)
        assert cfg.horizon == 100

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(p)

    def test_shipped_examples_parse(self):
        for name in ("configs/example.json", "configs/dynamics.json", "configs/price_step.json"):
            assert load_config(name).horizon > 0


ROOT = Path(__file__).resolve().parent.parent


def _example(**changes):
    """configs/example.json with top-level sections replaced."""
    d = json.loads((ROOT / "configs" / "example.json").read_text(encoding="utf-8"))
    d.update(changes)
    return d


def _miner(**fields):
    return {"population": {"explicit": [{"hashrate": 1.0, "unit_cost": 0.1, **fields}]}}


EXAMPLE_POPULATION = _example()["population"]
LANDMARKS = _example()["schedule"]["landmarks"]

HARDENING = [
    # (case id, config, field path the error must name)
    ("d_co-without-spread", _example(schedule={"a": 0.58, "b": 2.32, "d_co": 2.2}), "$.schedule"),
    ("non-numeric-hash-pair",
     _example(population={**EXAMPLE_POPULATION, "small_hash": ["x", 2]}),
     "$.population.small_hash[0]"),
    ("non-numeric-duty", _example(**_miner(duty=["a", 2])), "$.population.explicit[0].duty[0]"),
    ("negative-duty-off", _example(**_miner(duty=[5, -5])), "$.population.explicit[0]"),
    ("zero-duty-on", _example(**_miner(duty=[0, 5])), "$.population.explicit[0]"),
    ("negative-duty-on", _example(**_miner(duty=[-1, 3])), "$.population.explicit[0]"),
    ("string-bool", _example(constant_reward="no"), "$.constant_reward"),
    ("negative-at-block",
     _example(price={"initial": 1.0, "factor": 2.0, "at_block": -5}), "$.price"),
    ("infinite-price", _example(price={"constant": math.inf}), "$.price.constant"),
    ("infinite-target-interval",
     _example(retarget={"target_interval": math.inf}), "$.retarget.target_interval"),
    ("infinite-anchor-hashrate", _example(anchor_hashrate=math.inf), "$.anchor_hashrate"),
    ("string-series", _example(price={"series": ["1", "2"]}), "$.price.series[0]"),
    ("integer-miner-id", _example(**_miner(id=7)), "$.population.explicit[0].id"),
    ("string-active", _example(**_miner(active="no")), "$.population.explicit[0].active"),
    ("step-field-next-to-constant",
     _example(price={"constant": 30.0, "factor": 2.0}), "$.price"),
    ("step-field-next-to-series",
     _example(price={"series": [1.0, 2.0], "at_block": 3}), "$.price"),
    ("empty-series", _example(price={"series": []}), "$.price"),
    ("negative-seed", _example(seed=-1), "$.seed"),
    ("miner-class", _example(**_miner(**{"class": "large"})), "$.population.explicit[0]"),
    ("miner-history", _example(**_miner(history=[False] * 50)), "$.population.explicit[0]"),
    ("id-equal-to-a-default-id",  # the first miner's default id is m000
     _example(population={"explicit": [{"hashrate": 1, "unit_cost": 0},
                                       {"id": "m000", "hashrate": 2, "unit_cost": 0}]}),
     "$.population.explicit[1].id"),
    ("duplicate-ids",
     _example(population={"explicit": [{"id": "a", "hashrate": 1.0, "unit_cost": 0.0},
                                       {"id": "b", "hashrate": 1.0, "unit_cost": 0.0},
                                       {"id": "a", "hashrate": 2.0, "unit_cost": 0.0}]}),
     "$.population.explicit[2].id"),
    ("landmark-reward-underflow",  # the composed peak search finds only zero reward
     _example(schedule={"landmarks": {**LANDMARKS, "tenth_d": 1e6}}), "$.schedule"),
    ("empty-explicit", _example(population={"explicit": []}), "$.population.explicit"),
    ("explicit-not-a-list", _example(population={"explicit": {}}), "$.population.explicit"),
    ("overflowing-price-step",  # initial * factor is inf
     _example(price={"initial": 1e308, "factor": 10.0, "at_block": 100}), "$.price"),
    # the kernel holds a duty period and draws the dwell jitter in int64
    ("int64-overflowing-duty-period", _example(**_miner(duty=[1, 2**63 - 1])),
     "$.population.explicit[0]"),
    ("int64-overflowing-duty-on", _example(**_miner(duty=[2**63, 0])), "$.population.explicit[0]"),
    ("dwell-past-int64", _example(economics={"dwell": 2**63 + 1}), "$.economics"),
    # the kernel's costs margin * (unit_cost * hashrate) must be finite
    ("overflowing-cost", _example(population={"explicit": [
        {"hashrate": 1e9, "unit_cost": 1.7e308}, {"hashrate": 3.0, "unit_cost": 1.0}]}),
     "$.population.explicit[0]"),
    ("overflowing-on-cost",  # unit_cost * hashrate is finite, margin_on times it is not
     _example(**_miner(hashrate=1.0, unit_cost=1.7e308)), "$.population.explicit[0]"),
    ("overflowing-cost-of-a-later-miner",
     _example(population={"explicit": [{"hashrate": 1.0, "unit_cost": 1.0},
                                       {"hashrate": 2.0, "unit_cost": 1e308}]}),
     "$.population.explicit[1]"),
    ("overflowing-margin", _example(economics={"margin_on": 1e308}, **_miner(unit_cost=10.0)),
     "$.population.explicit[0]"),
    ("overflowing-off-margin",  # -1e308 * 10 is -inf
     _example(economics={"margin_off": -1e308}, **_miner(unit_cost=10.0)),
     "$.population.explicit[0]"),
    ("overflowing-small-cost-bound",
     _example(population={**EXAMPLE_POPULATION, "small_cost": [0.3, 1e308]}), "$.population"),
    ("overflowing-large-hash-bound",
     _example(population={**EXAMPLE_POPULATION, "large_hash": [5.0, 1e300],
                          "large_cost": [0.6, 1e10]}), "$.population"),
    ("partial-price-step", _example(price={"initial": 30.0, "factor": 0.5}), "$.price"),
    ("negative-horizon", _example(horizon=-1), "$.horizon"),
    ("zero-anchor-hashrate", _example(anchor_hashrate=0), "$.anchor_hashrate"),
    ("zero-rate-constant", _example(rate_constant=0), "$.rate_constant"),
    ("zero-floor", _example(difficulty_map={"slope": 0.04, "intercept": 0.1, "floor": 0}),
     "$.difficulty_map"),
    ("zero-floor-of-a-fit",
     _example(difficulty_map={"anchors": [[40, 1.75], [51, 2.2]], "floor": 0}), "$.difficulty_map"),
    ("one-anchor", _example(difficulty_map={"anchors": [[40, 1.75]]}), "$.difficulty_map"),
    # anchors that cannot be fitted: one shared hashrate, squares that underflow to 0,
    # and sums that overflow
    ("anchors-at-one-hashrate",
     _example(difficulty_map={"anchors": [[40, 1.75], [40, 2.2]]}), "$.difficulty_map"),
    ("subnormal-anchor-hashrates",
     _example(difficulty_map={"anchors": [[1e-320, 1], [2e-320, 2]]}), "$.difficulty_map"),
    ("overflowing-anchor-hashrates",
     _example(difficulty_map={"anchors": [[1e308, 1], [1.5e308, 2]]}), "$.difficulty_map"),
    ("negative-class-count", _example(population={**EXAMPLE_POPULATION, "n_small": -1}),
     "$.population"),
    ("inverted-small-hash", _example(population={**EXAMPLE_POPULATION, "small_hash": [2.0, 1.0]}),
     "$.population"),
    ("zero-small-hash-bound", _example(population={**EXAMPLE_POPULATION, "small_hash": [0, 2]}),
     "$.population"),
    ("zero-large-hash-bound", _example(population={**EXAMPLE_POPULATION, "large_hash": [0, 24]}),
     "$.population"),
]


@pytest.mark.parametrize("data,path", [c[1:] for c in HARDENING], ids=[c[0] for c in HARDENING])
def test_bad_input_is_a_config_error_naming_the_field_path(data, path):
    with pytest.raises(ConfigError) as info:
        config_from_dict(data)
    assert str(info.value).startswith(f"{path}: ")


def test_an_empty_explicit_population_is_rejected_when_the_config_is_built():
    cfg = config_from_dict(_example())
    with pytest.raises(ConfigError, match=r"^\$\.population\.explicit: must contain at least one"):
        dataclasses.replace(cfg, explicit_population=[])


# one config per variant form: landmarks, anchors and a population spec; a
# price step; an explicit population; flat schedule, slope map and price series
BASES = [
    _example(),
    json.loads((ROOT / "configs" / "price_step.json").read_text(encoding="utf-8")),
    _example(**_miner(id="a", duty=[5, 5], active=False), rate_constant=0.0004),
    _example(schedule={"a": 0.58, "b": 2.32, "scale": 9.0, "d_co": 2.2, "spread": 0.077},
             difficulty_map={"slope": 0.04, "intercept": 0.1}, price={"series": [1.0, 2.0]}),
]


@pytest.mark.parametrize("data", BASES)
def test_to_dict_reads_back_to_the_same_config(data):
    cfg = config_from_dict(data)
    again = config_from_dict(cfg.to_dict())
    assert again == cfg
    assert again.to_dict() == cfg.to_dict()


def test_the_genesis_active_flag_is_part_of_the_config():
    # two populations that differ only in one miner's genesis flag run differently, so
    # the flag is written, read back and digested like every other field
    on = _example(population={"explicit": [{"hashrate": 10.0, "unit_cost": 0.5},
                                           {"hashrate": 10.0, "unit_cost": 0.5}]}, horizon=1)
    off = copy.deepcopy(on)
    off["population"]["explicit"][1]["active"] = False
    a, b = config_from_dict(on), config_from_dict(off)
    assert [m.active for m in a.explicit_population] == [True, True]  # the default
    assert [m.active for m in b.explicit_population] == [True, False]
    assert [run(c).records[0].total_hash for c in (a, b)] == [20.0, 10.0]
    assert a.digest() != b.digest()
    assert b.to_dict()["population"]["explicit"][1]["active"] is False
    assert config_from_dict(b.to_dict()) == b


# Fuzzed contract: any mutation of a valid config parses, or fails with a
# ConfigError that names a field path.  No other exception may escape.

_LEAVES = st.sampled_from(
    ["x", True, False, None, [], [1.0, "x"], {}, math.inf, -math.inf, math.nan, 0, -1, 2.5]
).map(copy.deepcopy)  # a later mutation must not edit the shared leaf


def _known_keys(obj):
    if isinstance(obj, dict):
        return set(obj).union(*map(_known_keys, obj.values()))
    if isinstance(obj, list):
        return set().union(*map(_known_keys, obj))
    return set()


_KEYS = st.sampled_from(sorted(set().union(*map(_known_keys, BASES)) | {"zzz"}))


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, (dict, list)):
        for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _paths(v, prefix + (k,))


@st.composite
def mutated_configs(draw):
    data = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        # not the root: test_non_object_rejected covers a config that is not an object
        path = draw(st.sampled_from(list(_paths(data))[1:]))
        parent = data
        for k in path[:-1]:
            parent = parent[k]
        op = draw(st.sampled_from(["drop", "add", "swap"]))
        if op == "drop":
            del parent[path[-1]]
        elif op == "add" and isinstance(parent[path[-1]], dict):
            parent[path[-1]][draw(_KEYS)] = draw(_LEAVES)
        else:
            parent[path[-1]] = draw(_LEAVES)
    return data


@settings(max_examples=300, deadline=None)
@given(mutated_configs())
def test_mutated_config_parses_or_names_a_field_path(data):
    try:
        cfg = config_from_dict(data)
    except ConfigError as exc:
        assert str(exc).startswith("$"), str(exc)
    else:
        assert isinstance(cfg, SimConfig)
        assert config_from_dict(cfg.to_dict()).digest() == cfg.digest()


@pytest.mark.parametrize("data,message", [
    ({"a": "0.5", "b": True}, "$.a: expected a finite number, got '0.5'"),
    ({"a": 0.5, "b": True}, "$.b: expected a finite number, got True"),
    ({"a": 0.5, "b": 1.0, "d_co": 3}, "$: missing required key(s) ['spread']"),
    ({"a": 0.5, "b": 1.0, "bb": 2.0}, "$: unknown key(s) ['bb']"),
])
def test_flat_schedule_reader_is_strict(data, message):
    with pytest.raises(ConfigError) as info:
        schedule_from_dict(data)
    assert str(info.value) == message
