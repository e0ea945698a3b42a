"""Span tracing from outside pomsim, and the per-layer metrics derived from it.

The tracer swaps timing wrappers into the module attributes that pomsim's
callers resolve at call time (``pomsim.simulator.step`` and so on), so no
file under ``src/`` changes.  Each span records its name, start, end, parent
span, run id and an optional size (rows read or written).  Spans stay in
memory until the benchmark ends.

A target whose attribute no longer exists (say ``retarget`` once it is
inlined) is skipped; every metric built from it is then ``None`` ("absent"),
never 0 and never a failure.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import math
import statistics
import time
from collections import defaultdict

# (owner, attribute, span name).  An owner "module:Class" patches a class
# attribute.  Several call sites share one span name when they reach the same
# function: cli imports run/write_series_csv/... by name, so both the cli
# binding and the defining module's binding are wrapped.
TARGETS = (
    ("pomsim.simulator", "run", "simulator.run"),
    ("pomsim.simulator", "step", "simulator.step"),
    ("pomsim.simulator", "initial_state", "simulator.initial_state"),
    ("pomsim.simulator", "schedule_max", "simulator.schedule_max"),
    ("pomsim.simulator", "write_series_csv", "simulator.write_series_csv"),
    ("pomsim.simulator", "read_series_csv", "simulator.read_series_csv"),
    ("pomsim.simulator", "reward", "reward_curve.reward"),
    ("pomsim.simulator", "find_peak", "reward_curve.find_peak"),
    ("pomsim.simulator", "retarget", "difficulty.retarget"),
    ("pomsim.simulator", "generate_population", "agents.generate_population"),
    ("pomsim.simulator:SimConfig", "digest", "config.digest"),
    ("pomsim.config", "load_config", "config.load_config"),
    ("pomsim.config", "calibrate_schedule", "reward_curve.calibrate_schedule"),
    ("pomsim.metrics", "equilibrium_summary", "metrics.equilibrium_summary"),
    ("pomsim.cli", "run", "simulator.run"),
    ("pomsim.cli", "write_series_csv", "simulator.write_series_csv"),
    ("pomsim.cli", "read_series_csv", "simulator.read_series_csv"),
    ("pomsim.cli", "load_config", "config.load_config"),
    ("pomsim.cli", "compare", "metrics.compare"),
    ("pomsim.cli", "cmd_run", "cli.cmd_run"),
    ("pomsim.cli", "cmd_compare", "cli.cmd_compare"),
)

# rows handled by one call, for the per-1000-row CSV metrics
_SIZES = {
    "simulator.write_series_csv": lambda args, result: len(args[0].records),
    "simulator.read_series_csv": lambda args, result: len(result),
}

SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "run", "size")


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans; ``install`` swaps the wrappers in, ``uninstall`` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start ns, end ns, parent index, run id, size)
        self._stack: list[int] = []
        self.run_id = -1
        self.absent: list[str] = []
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        size = _SIZES.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        # span() inlined rather than reused: this runs once per simulated block
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.run_id, 0)
            if size is not None:
                spans[idx] = (name_id, start, end, parent, self.run_id, size(args, result))
            return result

        return traced

    def install(self) -> None:
        self.absent = []
        for owner_path, attr, name in TARGETS:
            owner = _owner(owner_path)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(f"{owner_path}.{attr}")
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own work, so its parent's self time excludes it."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = (
                self._name_id(name), start, time.perf_counter_ns(), parent, self.run_id, 0
            )

    def write(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(SPAN_FIELDS)
            for name_id, start, end, parent, run, size in self.spans:
                w.writerow([self.names[name_id], start, end, parent, run, size])


def nearest_rank(values, q: float):
    """The q-quantile by the nearest-rank rule: at least a share q of values lie at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, blocks: int) -> dict:
    """Per-layer figures from the spans of a traced pass that simulated `blocks` blocks.

    Call latencies and self times (span minus the spans it caused) are
    medians per call.  A figure whose span never occurred is None.
    """
    names = tracer.names
    spans = tracer.spans
    durs = defaultdict(list)
    sizes = defaultdict(int)
    child = [0] * len(spans)
    run_inner = defaultdict(int)  # run span -> time in its initial_state/step children
    for name_id, start, end, parent, _, size in spans:
        name = names[name_id]
        d = end - start
        durs[name].append(d)
        sizes[name] += size
        if parent >= 0:
            child[parent] += d
            if names[spans[parent][0]] == "simulator.run" and name in (
                "simulator.initial_state",
                "simulator.step",
            ):
                run_inner[parent] += d

    def self_times(name, inner=child):
        nid = tracer._name_ids.get(name)
        return [s[2] - s[1] - inner[i] for i, s in enumerate(spans) if s[0] == nid]

    def med(values, scale):
        return statistics.median(values) / scale if values else None

    def per_krow(name):
        if not sizes[name]:
            return None
        return sum(durs[name]) / 1e6 / (sizes[name] / 1000.0)

    n_retarget = len(durs["difficulty.retarget"])
    n_reward = len(durs["reward_curve.reward"])
    return {
        "simulator.step_us_p50": med(durs["simulator.step"], 1e3),
        "simulator.step_us_p99": nearest_rank(durs["simulator.step"], 0.99) / 1e3
        if durs["simulator.step"]
        else None,
        "simulator.step_self_us": med(self_times("simulator.step"), 1e3),
        "simulator.initial_state_ms": med(durs["simulator.initial_state"], 1e6),
        "simulator.run_self_ms": med(self_times("simulator.run", run_inner), 1e6),
        "simulator.write_csv_ms_per_krow": per_krow("simulator.write_series_csv"),
        "simulator.read_csv_ms_per_krow": per_krow("simulator.read_series_csv"),
        "reward_curve.reward_us": med(durs["reward_curve.reward"], 1e3),
        "reward_curve.reward_calls_per_block": n_reward / blocks if n_reward else None,
        "reward_curve.find_peak_ms": med(durs["reward_curve.find_peak"], 1e6),
        "reward_curve.calibrate_ms": med(durs["reward_curve.calibrate_schedule"], 1e6),
        "difficulty.retarget_us": med(durs["difficulty.retarget"], 1e3),
        "difficulty.stall_quanta": n_retarget - blocks if n_retarget else None,
        "agents.generate_population_ms": med(durs["agents.generate_population"], 1e6),
        "config.load_ms": med(durs["config.load_config"], 1e6),
        "config.digest_us": med(durs["config.digest"], 1e3),
        "metrics.equilibrium_summary_ms": med(durs["metrics.equilibrium_summary"], 1e6),
        "metrics.compare_ms": med(durs["metrics.compare"], 1e6),
        "cli.run_self_ms": med(self_times("cli.cmd_run"), 1e6),
        "cli.compare_self_ms": med(self_times("cli.cmd_compare"), 1e6),
    }
