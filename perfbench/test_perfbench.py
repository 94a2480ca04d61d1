"""Tests of the benchmark's own logic: span self-times, the wrappers and the
correctness gate.  Run with ``python3 -m pytest perfbench``."""

import json
import types

import numpy as np

import gate
import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_from_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    clock = FakeClock()
    tr = spans.Tracer(clock)
    events = [(0, "root"), (1, "a"), (2, "b"), (3, None), (4, None),
              (5, "c"), (9, None), (10, None)]
    children = []
    for t, name in events:
        clock.now = t
        if name:
            tr.enter(name)
        else:
            children.append(tr.exit())
    assert tr.stats == {"root": [1, 10.0, 3.0], "a": [1, 3.0, 2.0],
                        "b": [1, 1.0, 1.0], "c": [1, 4.0, 4.0]}
    assert children == [0, 1, 0, 2]  # b, a, c, root


def _module(source: str) -> types.ModuleType:
    mod = types.ModuleType("fake")
    exec(source, vars(mod))
    return mod


def test_wrapper_returns_result_and_counts_recursion_once():
    mod = _module("def fact(n):\n    return 1 if n <= 1 else n * fact(n - 1)\n")
    tr = spans.Tracer()
    assert spans.wrap(tr, mod, "fact", "fake.fact")
    assert mod.fact(6) == 720
    assert tr.stats["fake.fact"][0] == 1
    assert not tr.stack


def test_wrapper_closes_span_when_the_function_raises():
    mod = _module("def boom():\n    raise ValueError('x')\n")
    tr = spans.Tracer()
    spans.wrap(tr, mod, "boom", "fake.boom")
    try:
        mod.boom()
    except ValueError:
        pass
    assert tr.stats["fake.boom"][0] == 1 and not tr.stack


def test_absent_function_gives_absent_metrics():
    mod = _module("def kth_smallest_eigenvalue():\n    return 1.0\n")
    tr = spans.Tracer()
    assert not spans.wrap(tr, mod, "sturm_count", "oracle.sturm_count")
    assert spans.wrap(tr, mod, "kth_smallest_eigenvalue", "oracle.kth_smallest_eigenvalue")
    mod.kth_smallest_eigenvalue()
    metrics = spans.layer_metrics(tr.stats, tr.counts)
    assert "oracle.sturm_count.calls" not in metrics
    assert metrics["oracle.kth_smallest_eigenvalue.calls"] == 1


def test_integrand_counting_keeps_values():
    mod = _module(
        "class R:\n    subdivisions = 3\n    converged = False\n"
        "seen = []\n"
        "def integrate(f, a, b):\n"
        "    seen.append(f(__import__('numpy').linspace(a, b, 15)))\n"
        "    seen.append(f(__import__('numpy').linspace(a, b, 30)))\n"
        "    return R()\n")
    tr = spans.Tracer()
    spans.wrap(tr, mod, "integrate", "quad.integrate",
               spans._integrate_before, spans._integrate_after)
    mod.integrate(np.exp, 0.0, 1.0)
    np.testing.assert_array_equal(mod.seen[0], np.exp(np.linspace(0.0, 1.0, 15)))
    m = spans.layer_metrics(tr.stats, tr.counts)
    assert (m["quad.integrand_calls"], m["quad.integrand_points"]) == (2, 45)
    assert (m["quad.subdivisions"], m["quad.unconverged"]) == (3, 1)


def test_ratio_with_zero_base_reads_zero():
    m = spans.layer_metrics({"expr.evaluate": [0, 0.0, 0.0]}, {"expr.evaluate.points": 0})
    assert m["expr.points_per_call"] == 0.0


# ---- correctness gate ----------------------------------------------------------


def _reproduce_csv(fails):
    rows = ["label,reference,computed,delta,tolerance,status",
            "ou reference eigenvalue,1,1,0,0.0001,pass"]
    rows += [f"{label},1,2,1,0.001,FAIL" for label in sorted(fails)]
    return ("\n".join(rows) + "\n").encode()


def test_reproduce_with_pinned_fails_passes():
    report = _reproduce_csv(gate.PINNED_REPRODUCE_FAILS)
    assert gate.classify("reproduce", 1, report, None) == []
    assert gate.classify("reproduce", 1, report, report) == []


def test_reproduce_fail_set_must_match_exactly():
    extra = _reproduce_csv(gate.PINNED_REPRODUCE_FAILS | {"ou reference eigenvalue x"})
    assert gate.classify("reproduce", 1, extra, None) == [
        "unexpected FAIL row: ou reference eigenvalue x"]
    fewer = _reproduce_csv(gate.PINNED_REPRODUCE_FAILS - {"quartic slope-family value"})
    assert gate.classify("reproduce", 1, fewer, None) == [
        "pinned FAIL row no longer fails: quartic slope-family value"]


def test_exit_code_and_byte_identity():
    assert gate.classify("inspect", 0, b"a\n", b"a\n") == []
    assert gate.classify("inspect", 2, b"a\n", None) == ["exit code 2, expected 0"]
    assert gate.classify("inspect", 0, b"a\n", b"b\n") == [
        "report differs from an earlier pass"]
    assert gate.classify("oracle", None, b"", None) == ["did not return (crash or timeout)"]


def test_bounds_violation_and_known_defect():
    violation = ("lambda1: upper bound 3 (rayleigh) undercuts the reference "
                 "eigenvalue 3.00503")
    report = json.dumps({"violations": [violation]}).encode()
    reasons = gate.classify("bounds", 1, report, None)
    assert reasons == ["exit code 1, expected 0", f"violation: {violation}"]
    assert gate.is_known_defect("bounds", "cauchy(2.5,sqrt)", reasons)
    assert not gate.is_known_defect("bounds", "quartic", reasons)
    # any further reason makes the failure unexplained
    assert not gate.is_known_defect(
        "bounds", "cauchy(2.5,sqrt)", reasons + ["report differs from an earlier pass"])
    lower = json.dumps({"violations": ["lambda1: lower bound 2 (chen_wang) exceeds "
                                       "the reference eigenvalue 1"]}).encode()
    assert not gate.is_known_defect(
        "bounds", "cauchy(2.5,sqrt)", gate.classify("bounds", 1, lower, None))


def test_check_status():
    def report(*statuses):
        return json.dumps({"checks": [{"check": "intertwining", "status": s,
                                       "zscore": 0.5} for s in statuses]}).encode()

    assert gate.classify("check", 0, report("pass", "warn"), None) == []
    assert gate.classify("check", 0, report("inconclusive"), None) == [
        "intertwining check inconclusive (z = 0.5)"]
    assert gate.classify("check", 1, report("fail"), None) == [
        "exit code 1, expected 0", "intertwining check fail (z = 0.5)"]


def test_unreadable_report_fails():
    reasons = gate.classify("bounds", 0, b"not json", None)
    assert len(reasons) == 1 and reasons[0].startswith("unreadable bounds report")
