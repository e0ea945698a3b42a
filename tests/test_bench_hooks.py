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

import pytest

from pomsim.simulator import RunSummary

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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
