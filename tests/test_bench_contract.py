"""The traced benchmark reports one metric family per function it wraps and
silently skips a wrapper whose function is gone, so a removed or renamed
function would drop declared per-layer metrics from its result.  These tests
hold every span target of ``perfbench/spans.py`` to a callable in diffgap.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize("module,cls,attr", [t[:3] for t in TARGETS],
                         ids=[t[3] if t[1] is None else f"{t[3]}[{t[1]}]" for t in TARGETS])
def test_span_target_is_callable(module, cls, attr):
    owner = importlib.import_module(f"diffgap.{module}")
    if cls is not None:
        owner = vars(owner).get(cls)
        assert owner is not None, f"diffgap.{module}.{cls} is missing"
    # the tracer looks the attribute up in the owner's own namespace
    assert callable(vars(owner).get(attr)), f"diffgap.{module}: {attr} is not callable"
