"""Experiment configuration: the config dataclasses and their one JSON schema.

The JSON keys of a section are the fields of its dataclass, and so are its
required keys (fields without a default), its defaults and its value types:
`read` builds a section from JSON and `dump` turns one back into JSON, both
from `dataclasses.fields`.  Unknown keys are rejected everywhere (silent
misconfiguration is the main operator hazard), values are strict (no
coercion; numbers must be finite) and every error names the field path.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

from .agents import EconomicsConfig, MinerAgent, PomCredit, PopulationSpec
from .difficulty import DifficultyMap, RetargetConfig, fit_difficulty_map, rate_constant_from_map
from .errors import ConfigError, ParameterError, PomSimError
from .reward_curve import (
    BaseCurveParams,
    CutoffParams,
    RewardScheduleParams,
    calibrate_schedule,
)


@dataclass(frozen=True)
class PricePath:
    """Exogenous coin price: constant, one-time step, or explicit series."""

    constant: Optional[float] = None
    initial: Optional[float] = None
    factor: Optional[float] = None
    at_block: Optional[int] = None
    series: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        step = [v is not None for v in (self.initial, self.factor, self.at_block)]
        if sum([self.constant is not None, any(step), self.series is not None]) != 1:
            raise ParameterError("price path must be exactly one of constant/step/series")
        if not all(step) and any(step):
            raise ParameterError("step price path needs initial, factor and at_block")
        if self.at_block is not None and self.at_block < 0:
            raise ParameterError(f"at_block must be nonnegative, got {self.at_block}")
        if self.constant is not None:
            values = [self.constant]
        elif self.series is not None:
            values = list(self.series)
        else:
            values = [self.initial, self.initial * self.factor]
        if not values or not all(0.0 < v < math.inf for v in values):
            raise ParameterError("price path must be nonempty, positive and finite everywhere")

    def at(self, height: int) -> float:
        if self.constant is not None:
            return self.constant
        if self.series is not None:
            return self.series[min(height, len(self.series) - 1)]
        return self.initial * self.factor if height >= self.at_block else self.initial


@dataclass
class SimConfig:
    schedule: RewardScheduleParams
    horizon: int
    seed: int
    difficulty_map: DifficultyMap = field(default_factory=fit_difficulty_map)
    retarget: RetargetConfig = field(default_factory=RetargetConfig)
    population: PopulationSpec = field(default_factory=PopulationSpec)
    # a variant form of `population` in JSON, read by hand
    explicit_population: Optional[list[MinerAgent]] = field(default=None, metadata={"json": False})
    pom: PomCredit = field(default_factory=PomCredit)
    price: PricePath = field(default_factory=lambda: PricePath(constant=30.0))
    economics: EconomicsConfig = field(default_factory=EconomicsConfig)
    constant_reward: bool = False
    rate_constant: Optional[float] = None
    anchor_hashrate: float = 40.0
    large_threshold: float = 5.0

    def __post_init__(self):
        if self.horizon < 0:
            raise ConfigError("$.horizon: must be nonnegative")
        if self.seed < 0:
            raise ConfigError("$.seed: must be nonnegative")
        if not (self.anchor_hashrate > 0.0):
            raise ConfigError("$.anchor_hashrate: must be positive")
        if not (self.large_threshold > 0.0):
            raise ConfigError("$.large_threshold: must be positive")
        if self.rate_constant is not None and not (self.rate_constant > 0.0):
            raise ConfigError("$.rate_constant: must be positive when given")
        if self.explicit_population is not None and not self.explicit_population:
            raise ConfigError("$.population.explicit: must contain at least one miner")
        first: dict[str, int] = {}  # the `winner` column must tell the miners apart
        for j, m in enumerate(self.explicit_population or ()):
            i = first.setdefault(m.id, j)
            if i != j:
                raise ConfigError(
                    f"$.population.explicit[{j}].id: duplicate id {m.id!r} (also explicit[{i}])"
                )
            self._check_costs(m.unit_cost, m.hashrate, f"$.population.explicit[{j}]")
        if self.explicit_population is None:  # a drawn miner's cost is at most its class's bound
            p = self.population
            for n, cost, hashrate in ((p.n_small, p.small_cost, p.small_hash),
                                      (p.n_large, p.large_cost, p.large_hash)):
                if n:
                    self._check_costs(cost[1], hashrate[1], "$.population")

    def _check_costs(self, unit_cost: float, hashrate: float, path: str) -> None:
        """The kernel's on and off costs, `EconomicsConfig.costs`, must be finite."""
        econ = self.economics
        for margin, cost in zip((econ.margin_on, econ.margin_off), econ.costs(unit_cost, hashrate)):
            if not math.isfinite(cost):
                raise ConfigError(
                    f"{path}: a miner's cost overflows: margin {margin!r} * (unit_cost "
                    f"{unit_cost!r} * hashrate {hashrate!r})"
                )

    def resolved_rate_constant(self) -> float:
        if self.rate_constant is not None:
            return self.rate_constant
        return rate_constant_from_map(
            self.difficulty_map, self.anchor_hashrate, self.retarget.target_interval
        )

    def to_dict(self) -> dict:
        """The JSON form that `config_from_dict` reads back to an equal config."""
        d = dump(self)
        d["schedule"] = schedule_to_dict(self.schedule)
        d["price"] = {k: v for k, v in d["price"].items() if v is not None}
        if self.explicit_population is not None:
            d["population"] = {"explicit": [dump(m) for m in self.explicit_population]}
        return d

    def digest(self) -> str:
        """SHA-256 hex of the canonical JSON form, seed left out.

        The digest identifies the experiment; the seed identifies the run.
        """
        d = self.to_dict()
        d.pop("seed")
        canon = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


_EXPECTED = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


@cache
def _schema(cls) -> tuple:
    """(field name, type, has a default) for each field JSON carries: all but those
    declared with `metadata={"json": False}`."""
    types = get_type_hints(cls)
    return tuple(
        (f.name, types[f.name], f.default is not MISSING or f.default_factory is not MISSING)
        for f in fields(cls)
        if f.metadata.get("json", True)
    )


@contextmanager
def _section(path: str):
    """Re-raise validation errors from nested constructors with the field path."""
    try:
        yield
    except ConfigError:
        raise
    except PomSimError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, path: str, allowed, required):
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing required key(s) {sorted(missing)}")


def _value(tp, v, path: str):
    """One JSON value as type `tp`: no coercion, and numbers must be finite."""
    if get_origin(tp) is Union:  # Optional[X]: null or an X
        if v is None:
            return None
        tp = get_args(tp)[0]
    if is_dataclass(tp):
        return _VARIANTS.get(tp, read)(tp, v, path)
    if get_origin(tp) is tuple:
        args = get_args(tp)
        n = None if args[-1] is Ellipsis else len(args)
        if not isinstance(v, list) or (n is not None and len(v) != n):
            what = f"a list of {n} values" if n else "a list"
            raise ConfigError(f"{path}: expected {what}, got {v!r}")
        return tuple(
            _value(args[0 if n is None else i], x, f"{path}[{i}]") for i, x in enumerate(v)
        )
    if tp is float and type(v) in (int, float) and abs(v) <= sys.float_info.max:
        return float(v)
    if type(v) is tp and tp is not float:
        return v
    raise ConfigError(f"{path}: expected {_EXPECTED[tp]}, got {v!r}")


def read(cls, obj, path: str, **given):
    """Build section `cls` from the JSON object `obj` found at `path`.

    `given` supplies field values that JSON does not carry, or defaults for
    fields that have none on the dataclass; a JSON key overrides them.
    """
    obj = _mapping(obj, path)
    schema = {name: tp for name, tp, _ in _schema(cls)}
    required = [name for name, _, opt in _schema(cls) if not opt and name not in given]
    _check_keys(obj, path, schema, required)
    kwargs = dict(given)
    for name, v in obj.items():
        kwargs[name] = _value(schema[name], v, f"{path}.{name}")
    with _section(path):
        return cls(**kwargs)


def dump(obj) -> dict:
    """The JSON form of a section, one key per field: the inverse of `read`."""
    return {name: _plain(getattr(obj, name)) for name, _, _ in _schema(type(obj))}


def _plain(v):
    if is_dataclass(v):
        return dump(v)
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    return v


# the variant forms: each is read by hand, then handed to `read` or a fit
_LANDMARKS = ("peak_d", "half_d", "tenth_d", "r_max")


def _schedule(cls, obj, path: str) -> RewardScheduleParams:
    """Landmarks to calibrate from, or the flat a/b/scale[/d_co/spread] fields."""
    obj = _mapping(obj, path)
    if "landmarks" in obj:
        _check_keys(obj, path, {"landmarks"}, {"landmarks"})
        lpath = f"{path}.landmarks"
        lm = _mapping(obj["landmarks"], lpath)
        _check_keys(lm, lpath, [*_LANDMARKS, "b_ratio"], _LANDMARKS)
        args = {k: _value(float, v, f"{lpath}.{k}") for k, v in lm.items()}
        args["r_max_target"] = args.pop("r_max")
        with _section(path):
            return calibrate_schedule(**args)
    return schedule_from_dict(obj, path)


def schedule_from_dict(obj, path: str = "$") -> RewardScheduleParams:
    """The flat a/b/scale[/d_co/spread] form that `schedule_to_dict` writes."""
    obj = _mapping(obj, path)
    cut = {f.name for f in fields(CutoffParams)}
    base = read(BaseCurveParams, {k: v for k, v in obj.items() if k not in cut}, path)
    cutoff = {k: v for k, v in obj.items() if k in cut}
    with _section(path):
        return RewardScheduleParams(
            base=base, cutoff=read(CutoffParams, cutoff, path) if cutoff else None
        )


def schedule_to_dict(s: RewardScheduleParams) -> dict:
    """The flat form that `schedule_from_dict` reads: a/b/scale, and d_co/spread with a cutoff."""
    return {**dump(s.base), **(dump(s.cutoff) if s.cutoff else {})}


def _difficulty_map(cls, obj, path: str) -> DifficultyMap:
    """Anchor pairs to fit the map to, or its slope/intercept/floor fields."""
    obj = _mapping(obj, path)
    if "anchors" not in obj:
        return read(cls, obj, path)
    _check_keys(obj, path, {"anchors", "floor"}, {"anchors"})
    anchors = _value(tuple[tuple[float, float], ...], obj["anchors"], f"{path}.anchors")
    floor = {"floor": _value(float, obj["floor"], f"{path}.floor")} if "floor" in obj else {}
    with _section(path):
        return fit_difficulty_map(anchors, **floor)


_VARIANTS = {RewardScheduleParams: _schedule, DifficultyMap: _difficulty_map}


def _explicit_population(obj: dict, path: str) -> list[MinerAgent]:
    _check_keys(obj, path, {"explicit"}, {"explicit"})
    entries = obj["explicit"]
    if not isinstance(entries, list):
        raise ConfigError(f"{path}.explicit: expected a list of miners")
    return [
        read(MinerAgent, e, f"{path}.explicit[{i}]", id=f"m{i:03d}") for i, e in enumerate(entries)
    ]


def config_from_dict(data) -> SimConfig:
    data = _mapping(data, "$")
    explicit = None
    population = data.get("population")
    if isinstance(population, dict) and "explicit" in population:
        explicit = _explicit_population(population, "$.population")
        data = {k: v for k, v in data.items() if k != "population"}
    return read(SimConfig, data, "$", explicit_population=explicit)


def load_config(path) -> SimConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return config_from_dict(data)
