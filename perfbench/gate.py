"""Correctness gate: decides whether one diffgap invocation failed.

An invocation fails when any of these holds:

* its exit code is not the expected one (``reproduce`` exits 1 because the
  table keeps its pinned FAIL rows; every other command exits 0);
* its report differs by even one byte from the report of the same argv in
  an earlier pass of the run (the seed is part of the argv);
* ``reproduce``'s set of FAIL rows is not exactly ``PINNED_REPRODUCE_FAILS``;
* ``bounds`` reports a violation;
* an MC check is ``inconclusive`` or ``fail``.

``KNOWN_DEFECTS`` lists failures that exist at the commit that added this
benchmark.  They still count as failed invocations; they only keep the
run's ``correct`` flag true, so that an unexplained failure stands out.
"""

from __future__ import annotations

import csv
import io
import json
import re

# Stated constants of the paper that the definitions do not reproduce; the
# acceptance tests pin them as failing (see the package README).
PINNED_REPRODUCE_FAILS = frozenset({
    "quartic slope-family location",
    "quartic slope-family value",
    "double-well(0.25) slope-family value",
    "double-well(0.5) slope-family value",
    "double-well(1) slope-family value",
})

# (command, model, patterns that every failure reason must match)
KNOWN_DEFECTS = [
    # The FD oracle underestimates its truncation error for polynomial
    # tails: the true gap of cauchy(2.5) is 2*beta - 2 = 3, and the oracle
    # reports 3.00503 with too small an error, so Rayleigh's exact 3 is
    # flagged as undercutting it.
    ("bounds", "cauchy(2.5,sqrt)", (
        r"exit code 1, expected 0",
        r"violation: lambda1: upper bound \S+ \(rayleigh\) undercuts the "
        r"reference eigenvalue \S+",
    )),
]


def report_reasons(command: str, report: bytes) -> list[str]:
    """Failure reasons found in the report itself."""
    text = report.decode("utf-8", errors="replace")
    try:
        if command == "reproduce":
            fails = {row["label"] for row in csv.DictReader(io.StringIO(text))
                     if row["status"] == "FAIL"}
            reasons = [f"unexpected FAIL row: {label}"
                       for label in sorted(fails - PINNED_REPRODUCE_FAILS)]
            reasons += [f"pinned FAIL row no longer fails: {label}"
                        for label in sorted(PINNED_REPRODUCE_FAILS - fails)]
            return reasons
        if command == "bounds":
            return [f"violation: {v}" for v in json.loads(text)["violations"]]
        if command == "check":
            return [f"{c['check']} check {c['status']} (z = {c['zscore']:.3g})"
                    for c in json.loads(text)["checks"]
                    if c["status"] in ("inconclusive", "fail")]
    except (ValueError, KeyError, TypeError) as e:
        return [f"unreadable {command} report: {e!r}"]
    return []


def classify(command: str, code: int | None, report: bytes,
             earlier: bytes | None) -> list[str]:
    """Failure reasons for one invocation; empty when it passed.  ``code``
    is None when the invocation crashed or timed out before returning."""
    if code is None:
        return ["did not return (crash or timeout)"]
    reasons = []
    want = 1 if command == "reproduce" else 0
    if code != want:
        reasons.append(f"exit code {code}, expected {want}")
    if earlier is not None and report != earlier:
        reasons.append("report differs from an earlier pass")
    return reasons + report_reasons(command, report)


def is_known_defect(command: str, model: str, reasons: list[str]) -> bool:
    for cmd, mod, patterns in KNOWN_DEFECTS:
        if cmd == command and mod == model and reasons and all(
                any(re.fullmatch(p, r) for p in patterns) for r in reasons):
            return True
    return False
