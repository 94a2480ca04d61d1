"""The traced benchmark reports one metric family per function it wraps and
silently skips a wrapper whose function is gone, so a removed or renamed
function would drop declared per-layer metrics from its result.  These tests
hold every span target of ``perfbench/spans.py`` to a callable in diffgap.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


# The tracer replaces module attributes, so traced calls run in a child
# interpreter: each script below is this prelude, the calls, and a line that
# prints the call count of every span.
_PRELUDE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
tracer = spans.Tracer()
spans.install(tracer)
from diffgap import bounds as bd, expr as ex, gallery as gal, model as md
"""
_REPORT = """
print(json.dumps({name: row[0] for name, row in tracer.stats.items()}))
"""


def _traced_calls(calls: str, *args: str) -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-c", _PRELUDE + calls + _REPORT, str(SPANS), *args],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


# The optimizer metrics count calls that go through the ``bounds`` module's
# own attributes: a helper that moves out of ``bounds``, or imports
# ``minimize`` itself, would leave these spans at zero.
_TRACED_BOUNDS = """
bd.chen_wang_lower(gal.gallery_model("quartic"), md.WeightSpec.z_form(ex.parse("eps*x")),
                   bd.OptConfig(box={"eps": (0.1, 3.0)}))
bd.veysseire_lower(gal.gallery_model("power", alpha=1.5))
"""


def test_optimizer_spans_record_calls():
    calls = _traced_calls(_TRACED_BOUNDS)
    for name in ("bounds.minimize", "bounds.minimize_scalar", "bounds.rho_of_weight"):
        assert calls.get(name, 0) > 0, f"{name} recorded no calls: {calls}"


# A parameter search derives its family symbolically once and only binds the
# parameters at each point, so the symbolic work must not grow with the
# number of points the search visits.
_TRACED_SEARCH = """
bd.chen_wang_lower(gal.gallery_model("quartic"), md.WeightSpec.z_form(ex.parse("eps*x")),
                   bd.OptConfig(box={"eps": (0.1, 3.0)}, grid_points=int(sys.argv[2])))
"""

_TRACED_RAYLEIGH = """
bd.rayleigh_upper(gal.gallery_model("quartic"), ex.parse("x*(x^2)^((eps-1)/2)"),
                  bd.OptConfig(box={"eps": (0.55, 2.0)}, grid_points=int(sys.argv[2])))
"""


def _assert_symbolic_work_fixed(search: str, visits: str):
    coarse, fine = (_traced_calls(search, str(n)) for n in (21, 41))
    assert coarse[visits] != fine[visits], (coarse, fine)
    for name in ("expr.differentiate", "expr.simplify"):
        assert coarse[name] == fine[name], f"{name}: {coarse[name]} at 21 points, {fine[name]} at 41"


def test_weight_search_derives_its_family_once():
    _assert_symbolic_work_fixed(_TRACED_SEARCH, "bounds.rho_of_weight")


def test_rayleigh_search_derives_its_trial_family_once():
    _assert_symbolic_work_fixed(_TRACED_RAYLEIGH, "quad.integrate")
