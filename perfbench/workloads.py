"""The benchmark's workloads, and the checks that each run's output is correct.

A workload is driven through pomsim's public API (``dynamics``, ``cliff``)
or its CLI entry point (``sweep``).  It is split into units: a ``dynamics``
unit is one cutoff run plus one ``constant_reward`` run on the same seed, a
``cliff`` unit is one run, and a ``sweep`` unit is ``pomsim run`` on the
price-step config, ``pomsim run`` on its constant-reward twin, then
``pomsim compare`` of the two.  A unit adds its timed segments to a
``Timer`` and returns the runs that failed their checks; the checks run
outside the timed region.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

from pomsim import cli, metrics, simulator
from pomsim.agents import PopulationSpec
from pomsim import config as pconfig

# bound before any tracer swaps the module attributes, so the checks below
# never show up as simulator spans
_initial_state = simulator.initial_state

SUMMARY_FIELDS = (
    "mean_hashrate",
    "std_hashrate",
    "mean_interval",
    "std_interval",
    "mean_share",
    "std_share",
)
UNCHECKED = (
    "winner was an available miner: availability is internal state that the "
    "records do not show (ROADMAP item 4)"
)

# The probe's duration at the reference host speed that timings are scaled to.
REFERENCE_PROBE_S = 0.010
_PROBE_SMALL = np.arange(62.0)
_PROBE_MASK = np.ones(62, dtype=bool)
_PROBE_LARGE = np.arange(2000.0)


def host_scale() -> float:
    """``REFERENCE_PROBE_S`` over the probe's time now: scales a time measured just before."""
    return REFERENCE_PROBE_S / probe_seconds()


def probe_seconds() -> float:
    start = time.perf_counter()
    _probe_loop()
    return time.perf_counter() - start


def _probe_loop() -> float:
    """Fixed work that does not touch pomsim, in the mix of a simulator step.

    Small-array and length-2000 numpy calls plus pure interpreter work: host
    contention slows each of these by a different factor, and the workloads
    mix them in different shares.
    """
    x = 0.0
    for i in range(450):
        for _ in range(4):
            x += float(np.cumsum(_PROBE_SMALL)[-1])
        x += float(np.cumsum(_PROBE_SMALL * _PROBE_MASK)[-1])
        x += float(_PROBE_LARGE[_PROBE_MASK.sum()])
        if i % 2:
            x += float(np.cumsum(_PROBE_LARGE)[-1])
            x += float(np.searchsorted(_PROBE_LARGE, 5.0))
        for j in range(40):
            x += j * j % 7
    return x


class Timer:
    """The timed segments of one pass, raw and scaled to the reference host speed.

    On a shared host the same code runs up to 1.8 times slower for seconds at
    a time, as neighbours come and go.  Each segment is bracketed by two runs
    of a fixed probe that does not use pomsim, and is also reported scaled by
    ``REFERENCE_PROBE_S`` over the mean of the two probe times: the time it
    would have taken where the probe takes ``REFERENCE_PROBE_S``.  A change
    to pomsim moves the segment but not the probe.  Probes run outside the
    timed region.
    """

    def __init__(self):
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.samples = []  # raw seconds per run
        self.ref_samples = []  # scaled seconds per run
        self.probes = []
        self.last = self.probe()

    def probe(self) -> float:
        self.last = probe_seconds()
        self.probes.append(self.last)
        return self.last

    def add(self, seconds: float, before: float, after: float, sample: bool = True) -> None:
        scaled = seconds * 2.0 * REFERENCE_PROBE_S / (before + after)
        self.raw_s += seconds
        self.ref_s += scaled
        if sample:
            self.samples.append(seconds)
            self.ref_samples.append(scaled)


@dataclasses.dataclass
class UnitResult:
    blocks: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)


class Observed:
    """What the benchmark records about a workload's outputs for the digest prefix.

    ``digest`` is the SHA-256 of the concatenated ``blocks.csv`` bytes, in
    run order; the counts are exact simulated statistics.
    """

    def __init__(self):
        self.hasher = hashlib.sha256()
        self.csv_bytes = 0
        self.runs = 0
        self.active_changes = 0
        self.pom_penalized_wins = 0
        self.pom_withheld = 0.0

    def add(self, csv_bytes: bytes, records) -> None:
        self.hasher.update(csv_bytes)
        self.csv_bytes += len(csv_bytes)
        self.runs += 1
        counts = [r.active_miner_count for r in records]
        self.active_changes += sum(abs(b - a) for a, b in zip(counts, counts[1:]))
        self.pom_penalized_wins += sum(1 for r in records if r.pom_multiplier < 1.0)
        self.pom_withheld += math.fsum(r.raw_reward - r.credited_reward for r in records)


def check_series(series, config) -> list[str]:
    """Invariants of one finished run; an empty list means it passed."""
    problems = []
    records = series.records
    ids = set(_initial_state(config, np.random.default_rng(config.seed)).ids)
    prev = -math.inf
    for r in records:
        if not r.timestamp > prev:
            problems.append(f"height {r.height}: timestamp {r.timestamp!r} not above {prev!r}")
        if r.credited_reward > r.raw_reward:
            problems.append(f"height {r.height}: credited reward above raw reward")
        if not 0.0 <= r.pom_multiplier <= 1.0:
            problems.append(f"height {r.height}: pom_multiplier {r.pom_multiplier!r}")
        if not 0.0 <= r.large_miner_share <= 1.0:
            problems.append(f"height {r.height}: large_miner_share {r.large_miner_share!r}")
        if r.winner not in ids:
            problems.append(f"height {r.height}: winner {r.winner!r} is not in the population")
        prev = r.timestamp
        if len(problems) >= 5:
            break
    if records:
        ref = metrics.equilibrium_summary(records, series.summary.burn_in)
        for name in SUMMARY_FIELDS:
            got, want = getattr(series.summary, name), getattr(ref, name)
            if not math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12):
                problems.append(f"summary {name} {got!r} != equilibrium_summary {want!r}")
    return [f"seed {config.seed}: {p}" for p in problems]


def _check_read_back(path, records) -> list[str]:
    if simulator.read_series_csv(path) != records:
        return [f"{path.name}: read_series_csv does not give back the in-memory records"]
    return []


class InMemory:
    """Runs ``pomsim.simulator.run`` on configs held in memory; no file I/O is timed."""

    def __init__(self, base, work: Path):
        self.base = base
        self.work = work

    def configs(self, seed: int):
        raise NotImplementedError

    def sample_config(self, seed: int):
        return self.configs(seed)[0]

    def install(self) -> None:
        pass

    def unit(self, seed: int, timer: Timer, observed: Observed | None, span) -> UnitResult:
        out = UnitResult()
        for config in self.configs(seed):
            out.attempted += 1
            before = timer.last
            start = time.perf_counter()
            try:
                series = simulator.run(config)
            except Exception as exc:  # a raising run is a failed run, not a crash
                out.failed += 1
                out.problems.append(f"seed {config.seed}: raised {exc!r}")
                continue
            elapsed = time.perf_counter() - start
            timer.add(elapsed, before, timer.probe())
            out.blocks += len(series.records)
            with span("bench.check"):
                problems = check_series(series, config)
                if observed is not None:
                    path = self.work / "blocks.csv"
                    simulator.write_series_csv(series, path)
                    observed.add(path.read_bytes(), series.records)
                    problems += _check_read_back(path, series.records)
            if problems:
                out.failed += 1
                out.problems += problems
        return out

    def close(self) -> None:
        pass


class Dynamics(InMemory):
    """Default 62-miner population, calibrated schedule, cutoff vs constant reward."""

    def __init__(self, root: Path, work: Path, smoke: bool):
        config = pconfig.load_config(root / "configs" / "dynamics.json")
        super().__init__(dataclasses.replace(config, horizon=200 if smoke else 5000), work)

    def configs(self, seed: int):
        return [
            dataclasses.replace(self.base, seed=seed, constant_reward=constant)
            for constant in (False, True)
        ]


class Cliff(InMemory):
    """2,000 miners against a map fitted to a 40-55 MH/s network: exits, stalls, re-entry."""

    def __init__(self, root: Path, work: Path, smoke: bool):
        config = pconfig.load_config(root / "configs" / "dynamics.json")
        super().__init__(
            dataclasses.replace(
                config,
                horizon=150 if smoke else 3000,
                population=PopulationSpec(n_small=1936, n_large=64),
            ),
            work,
        )

    def configs(self, seed: int):
        return [dataclasses.replace(self.base, seed=seed)]


class Sweep:
    """``pomsim run`` twice and ``pomsim compare``, in process, with files on disk.

    Two hooks watch the CLI from outside.  The one on ``pomsim.cli.run``
    probes the host speed, marks where each seed's run starts and keeps its
    config.  The one on ``pomsim.cli.write_series_csv`` checks the series
    against the file just written.  The time spent in probes and checks is
    taken out of the timed region and out of the per-seed samples.
    """

    SEEDS = 5  # seeds per `pomsim run`

    def __init__(self, root: Path, work: Path, smoke: bool):
        self.work = work
        data = json.loads((root / "configs" / "price_step.json").read_text(encoding="utf-8"))
        if smoke:
            data.update(horizon=300, price=dict(data["price"], at_block=150))
        self.config_paths = []
        for name, constant in (("cutoff", False), ("constant", True)):
            path = work / f"price_step_{name}.json"
            path.write_text(json.dumps(dict(data, constant_reward=constant)), encoding="utf-8")
            pconfig.load_config(path)  # fail at set-up, not mid-run, on a bad config
            self.config_paths.append(path)
        self._saved = []
        self._config = None
        self._starts = []  # perf_counter at the start of each seed's run()
        self._probes = []  # probe seconds just before each seed's run()
        self._excluded = []  # probe and check seconds inside each seed's interval
        self._pre_excluded = 0.0  # the same, before the first seed
        self._checked = 0
        self._timer = None
        self._observed = None
        self._span = None
        self._result = None

    def sample_config(self, seed: int):
        return dataclasses.replace(pconfig.load_config(self.config_paths[0]), seed=seed)

    def install(self) -> None:
        """Put the hooks over whatever ``pomsim.cli`` binds now (traced or not)."""
        run, write = cli.run, cli.write_series_csv

        def run_hook(config):
            start = time.perf_counter()
            with self._span("bench.probe"):
                self._probes.append(self._timer.probe())
            self._exclude(time.perf_counter() - start)
            self._starts.append(time.perf_counter())
            self._excluded.append(0.0)
            self._config = config
            return run(config)

        def write_hook(series, path):
            write(series, path)
            start = time.perf_counter()
            with self._span("bench.check"):
                self._check(series, Path(path))
            self._exclude(time.perf_counter() - start)

        self._saved = [("run", run), ("write_series_csv", write)]
        cli.run, cli.write_series_csv = run_hook, write_hook

    def close(self) -> None:
        for attr, fn in self._saved:
            setattr(cli, attr, fn)
        self._saved = []

    def _exclude(self, seconds: float) -> None:
        if self._excluded:
            self._excluded[-1] += seconds
        else:
            self._pre_excluded += seconds

    def _check(self, series, path: Path) -> None:
        out = self._result
        problems = check_series(series, self._config) + _check_read_back(path, series.records)
        if self._observed is not None:
            self._observed.add(path.read_bytes(), series.records)
        self._checked += 1
        out.blocks += len(series.records)
        if problems:
            out.failed += 1
            out.problems += problems

    def _cli(self, argv, out: UnitResult) -> None:
        timer = self._timer
        self._starts, self._probes, self._excluded, self._pre_excluded = [], [], [], 0.0
        before = timer.last
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # reported as failed runs by the caller
            code = repr(exc)
        end = time.perf_counter()
        probes = self._probes + [timer.probe()]
        bounds = self._starts + [end]
        # set-up before the first seed (or the whole of `compare`), then one sample per seed
        timer.add(bounds[0] - start - self._pre_excluded, before, probes[0], sample=False)
        for i, excluded in enumerate(self._excluded):
            timer.add(bounds[i + 1] - bounds[i] - excluded, probes[i], probes[i + 1])
        if code != 0:
            out.problems.append(f"pomsim {argv[0]}: exit {code}")

    def unit(self, seed: int, timer: Timer, observed: Observed | None, span) -> UnitResult:
        out = self._result = UnitResult()
        self._timer, self._observed, self._span = timer, observed, span
        shutil.rmtree(self.work / "sweep", ignore_errors=True)
        dirs = [self.work / "sweep" / name for name in ("cutoff", "constant")]
        for config_path, out_dir in zip(self.config_paths, dirs):
            self._checked = 0
            out.attempted += self.SEEDS
            self._cli(
                ["run", "--config", str(config_path), "--seeds", str(self.SEEDS),
                 "--base-seed", str(seed), "--out", str(out_dir)],
                out,
            )
            if self._checked < self.SEEDS:
                out.failed += self.SEEDS - self._checked
                out.problems.append(f"only {self._checked} of {self.SEEDS} seeds were written")
        deltas = self.work / "sweep" / "deltas.csv"
        self._cli(["compare", str(dirs[0]), str(dirs[1]), "--out", str(deltas)], out)
        rows = deltas.read_text().splitlines() if deltas.exists() else []
        if len(rows) != self.SEEDS + 2:  # header, one row per seed, median row
            out.failed = out.attempted
            out.problems.append(f"compare wrote {len(rows)} lines, want {self.SEEDS + 2}")
        return out


WORKLOADS = {"dynamics": Dynamics, "sweep": Sweep, "cliff": Cliff}
