"""The benchmark reaches into pomsim by name.

Its span tracer hooks (owner, attribute) pairs: a hook whose attribute is
gone is skipped at run time and its per-layer metrics read "absent".  Its
output check reads `RunSummary` fields by name: a field that is gone fails
every run and lowers `pass_share`.  A refactor that drops either would go
unseen; these tests make it fail instead.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from pomsim import simulator
from pomsim.config import PopulationSpec, load_config
from pomsim.simulator import BlockRecord, Draws, RunSummary, initial_state, run, step

_ROOT = Path(__file__).resolve().parent.parent
_PERFBENCH = _ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", _PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize(
    "owner,attr", [t[:2] for t in tracing.TARGETS], ids=[f"{t[0]}.{t[1]}" for t in tracing.TARGETS]
)
def test_every_trace_target_resolves(owner, attr):
    assert callable(getattr(tracing._owner(owner), attr, None))


def test_run_summary_has_every_field_the_output_check_reads():
    names = {f.name for f in dataclasses.fields(RunSummary)}
    assert {*workloads.SUMMARY_FIELDS, "burn_in"} <= names


@pytest.mark.parametrize("variant", [
    {},
    {"constant_reward": True},
    {"population": PopulationSpec(n_small=1936, n_large=64)},  # overshoots the cutoff: it stalls
], ids=["cutoff", "constant", "2000-miners"])
def test_run_is_initial_state_then_draws_then_step(variant):
    # the output check takes the ids from `initial_state(config, default_rng(seed))`, and
    # the tests drive `step` by hand: both must be what `run` does
    cfg = dataclasses.replace(
        load_config(_ROOT / "configs" / "dynamics.json"), horizon=300, **variant
    )
    state = initial_state(cfg, np.random.default_rng(cfg.seed))
    draws = Draws(cfg.seed, cfg.economics.dwell)
    records = []
    for _ in range(cfg.horizon):
        rec = step(state, cfg, draws)
        assert type(rec) is BlockRecord
        assert state.height == rec.height + 1  # the state passed in is the one that advanced
        records.append(rec)
    assert run(cfg).records == records
    if "population" in variant:
        assert state.passes > state.height  # a pass per block and per stall quantum: it stalled


def test_the_kernel_calls_retarget_once_per_block_and_stall_quantum(monkeypatch):
    # the traced `difficulty.stall_quanta` is the calls to `simulator.retarget`
    # less the blocks; 2,000 miners overshoot the cutoff, so this run stalls
    cfg = dataclasses.replace(
        load_config(_ROOT / "configs" / "dynamics.json"),
        horizon=300,
        population=PopulationSpec(n_small=1936, n_large=64),
    )
    calls = []

    def counted(*args):
        calls.append(args)
        return retarget(*args)

    retarget = simulator.retarget
    monkeypatch.setattr(simulator, "retarget", counted)
    state = initial_state(cfg, np.random.default_rng(cfg.seed))
    draws = Draws(cfg.seed, cfg.economics.dwell)
    for _ in range(cfg.horizon):
        step(state, cfg, draws)
    assert len(calls) == state.passes  # a decision pass per block and per stall quantum
    assert len(calls) > cfg.horizon
