"""The benchmark's span tracer hooks pomsim by (owner, attribute) name.

A hook whose attribute is gone is skipped at run time and its per-layer
metrics read "absent", so a refactor that drops a binding would go unseen.
This test makes it fail instead.
"""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "owner,attr", [t[:2] for t in tracing.TARGETS], ids=[f"{t[0]}.{t[1]}" for t in tracing.TARGETS]
)
def test_every_trace_target_resolves(owner, attr):
    assert callable(getattr(tracing._owner(owner), attr, None))
