"""End-to-end benchmark of the diffgap command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every diffgap invocation runs in a fresh Python process (``child.py``), one
at a time, so nothing cached in one process carries over to the next, as
for a user running ``diffgap`` from a shell.  A pass is the workload's list
of invocations; the run repeats passes for about S seconds (at least two,
so reports can be compared byte for byte).

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json.  With ``--trace 1`` each invocation of a pass runs twice,
untraced and then traced, and the run reports the per-layer metrics of the
traced runs (see ``spans.py``) with the tracing overhead.  The last line of standard output is the result
object; the line before it records the environment.  See README.md for the
workloads, the metrics and the correctness gate.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import spans

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
MAX_PASSES = 19  # fewer than 20 passes: no tail percentile has ten samples beyond it
MIN_SETUPS = 5  # set-up-only invocations top an untraced run up to this many set-ups
RUN_CAP_S = 140.0  # no pass starts that would end a run past this
INVOCATION_TIMEOUT_S = 150.0

# ---- workloads ---------------------------------------------------------------

_SLOPE_WEIGHT = {"kind": "z_form", "family": "eps*x", "box": {"eps": [0.1, 3.0]}}
_LSI = {"dec": {"kind": "a_form", "family": "-(x-1)^2"}}
# gallery-session models whose parameters do not depend on the seed
SEED_FREE_MODELS = ("quartic", "cauchy(2.5,sqrt)")


def _write_config(work: Path, name: str, cfg: dict) -> str:
    path = work / f"{name}.yaml"
    path.write_text(json.dumps(cfg, indent=1) + "\n")  # JSON is valid YAML
    return str(path)


def reproduce(seed: int, work: Path) -> list[tuple[str, list[str]]]:
    del seed, work  # the command has no inputs
    return [("table", ["reproduce", "--format", "csv"])]


def gallery_session(seed: int, work: Path) -> list[tuple[str, list[str]]]:
    rng = random.Random(seed)
    beta = round(rng.uniform(0.25, 1.0), 3)
    alpha = round(rng.uniform(1.5, 4.0), 3)
    models = [
        ("quartic", {"gallery": "quartic"}, _SLOPE_WEIGHT),
        (f"double-well({beta:g})", {"gallery": "double-well", "params": {"beta": beta}},
         _SLOPE_WEIGHT),
        (f"power({alpha:g})", {"gallery": "power", "params": {"alpha": alpha}},
         _SLOPE_WEIGHT),
        # z_form weights need sigma = 1; cauchy's sigma grows, so a direct weight
        ("cauchy(2.5,sqrt)", {"gallery": "cauchy"}, {"kind": "direct", "family": "1+x^2"}),
    ]
    out = []
    for i, (label, model, weight) in enumerate(models):
        cfg = _write_config(work, f"gallery{i}", {
            "model": model, "bounds": {"chen_wang": weight, "lsi": _LSI},
            "oracle": {"n": 2048}})
        out += [(label, ["bounds", "--config", cfg, "--format", "json-like"]),
                (label, ["oracle", "--config", cfg, "--format", "csv"]),
                (label, ["inspect", "--config", cfg])]
    return out


def mc_check(seed: int, work: Path) -> list[tuple[str, list[str]]]:
    cfg = _write_config(work, "mc", {
        "model": {"gallery": "quartic"},
        "mc": {"paths": 20000, "step": 0.001, "horizon": 0.5},
        "check": {
            "intertwining": [{"weight": {"kind": "z_form", "family": "1.2712*x"},
                              "f": "tanh(x)", "x0": 0.5, "t": 0.5}],
            "subintertwining": [{"weight": {"kind": "a_form", "family": "-(x-1)^2"},
                                 "phi": "log_sobolev", "f": "2 + tanh(x)",
                                 "x0": 0.4, "t": 0.5}]}})
    return [("quartic", ["check", "--config", cfg, "--seed", str(seed),
                         "--format", "json-like"])]


WORKLOADS = {"reproduce": reproduce, "gallery-session": gallery_session,
             "mc-check": mc_check}


# ---- accuracy of the reports -----------------------------------------------------


def bracket_rel_width(reports: dict) -> float | None:
    """Mean relative width of the intervals the workload's reports state;
    None when no report could be read.

    gallery-session: (upper - lower) / reference eigenvalue of ``bounds``
    for the seed-free models, so the metric does not vary with the seed.
    reproduce: the table's quartic bracket, Chen-Wang lower to Rayleigh
    upper, over its FD eigenvalue.
    mc-check: the +-1 standard-error interval of each check over |rhs|; the
    standard error is |lhs - rhs| / |z|.
    """
    widths = []
    for argv, report in reports.items():
        text = report.decode("utf-8", errors="replace")
        try:
            if argv[0] == "bounds":
                doc = json.loads(text)
                lam = doc["targets"]["lambda1"]
                if (doc["model"] in SEED_FREE_MODELS and lam["lower"] is not None
                        and lam["upper"] is not None):
                    widths.append((lam["upper"] - lam["lower"]) / doc["oracle"]["lambda1"])
            elif argv[0] == "reproduce":
                rows = {r["label"]: float(r["computed"])
                        for r in csv.DictReader(io.StringIO(text))}
                widths.append((rows["quartic trial-family value"]
                               - rows["quartic slope-family value"])
                              / rows["quartic eigenvalue inside stated bracket"])
            elif argv[0] == "check":
                for c in json.loads(text)["checks"]:
                    if c["zscore"]:
                        se = abs(c["lhs"] - c["rhs"]) / abs(c["zscore"])
                        widths.append(2.0 * se / abs(c["rhs"]))
        except (ValueError, KeyError, TypeError, ZeroDivisionError):
            continue  # the gate already counts an unreadable report as failed
    return statistics.fmean(widths) if widths else None


# ---- running invocations ----------------------------------------------------------


def invoke(argv: list[str], work: Path, trace: bool = False,
           setup_only: bool = False) -> dict:
    """Run one invocation in a fresh process; ``code`` is None if it crashed."""
    result = work / "result.json"
    result.unlink(missing_ok=True)
    flags = (["--trace"] if trace else []) + (["--setup-only"] if setup_only else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(result), *flags, "--", *argv],
            cwd=work, env=env, capture_output=True, timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        return {"code": None, "report": e.stdout or b"", "wall_s": time.perf_counter() - t0,
                "stderr": b"timed out"}
    wall = time.perf_counter() - t0
    if not result.exists():
        return {"code": None, "report": proc.stdout, "wall_s": wall, "stderr": proc.stderr}
    rec = json.loads(result.read_text())
    rec.update(code=proc.returncode, report=proc.stdout, wall_s=wall, stderr=proc.stderr)
    return rec


class Run:
    """State of one benchmark run: reports seen so far and failure tallies."""

    def __init__(self, invocations, work: Path):
        self.invocations = invocations
        self.work = work
        self.first_reports: dict[tuple, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.unexplained = 0
        self.env: dict = {}

    def run_pass(self, modes: tuple[bool, ...]) -> list[dict]:
        """One pass over the workload.  Each invocation runs once per mode
        (False: untraced, True: traced), the modes back to back, so a drift
        in the machine's speed cancels when they are compared.  Returns one
        set of measurements per mode."""
        passes = [{"wall_s": 0.0, "setups": [], "peak_rss_mb": 0.0, "cpu_s": 0.0,
                   "proc_wall_s": 0.0, "emit_bytes": 0, "stats": {}, "counts": {}}
                  for _ in modes]
        for label, argv in self.invocations:
            for p, trace in zip(passes, modes):
                rec = invoke(argv, self.work, trace=trace)
                self._check(label, argv, rec)
                if rec["code"] is None:
                    continue
                self.env = self.env or rec["env"]
                p["wall_s"] += rec["wall_s"] - rec["setup_s"]
                p["setups"].append(rec["setup_s"])
                p["peak_rss_mb"] = max(p["peak_rss_mb"], rec["maxrss_kb"] / 1024.0)
                p["cpu_s"] += rec["cpu_s"]
                p["proc_wall_s"] += rec["wall_s"]
                p["emit_bytes"] += len(rec["report"])
                if trace:
                    spans.merge(p["stats"], p["counts"], rec["stats"], rec["counts"])
        return passes

    def _check(self, label: str, argv: list[str], rec: dict) -> None:
        """Run the correctness gate on one invocation and tally the result."""
        key = tuple(argv)
        command = argv[0]
        reasons = gate.classify(command, rec["code"], rec["report"],
                                self.first_reports.get(key))
        self.first_reports.setdefault(key, rec["report"])
        self.attempted += 1
        if not reasons:
            return
        self.failed += 1
        known = gate.is_known_defect(command, label, reasons)
        self.unexplained += not known
        tag = "known defect" if known else "FAILED"
        print(f"# {tag}: {label} {' '.join(argv)}: {'; '.join(reasons)}", file=sys.stderr)
        if rec["code"] is None:
            sys.stderr.write(rec["stderr"].decode(errors="replace")[-2000:])


def _median_of(dicts: list[dict]) -> dict:
    keys = set.intersection(*(set(d) for d in dicts))
    return {k: statistics.median(d[k] for d in dicts) for k in keys}


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def measure(run: Run, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Repeat passes for about ``seconds``; returns (metrics, details), or
    (None, {}) when no invocation returned."""
    start = time.perf_counter()
    plain, traced, durations = [], [], []
    while True:
        t0 = time.perf_counter()
        measured = run.run_pass((False, True) if trace else (False,))
        plain.append(measured[0])
        traced += measured[1:]
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        expected = statistics.median(durations)
        if len(durations) >= MAX_PASSES or elapsed + expected > RUN_CAP_S:
            break
        if len(durations) >= (1 if trace else 2) and elapsed + expected > seconds:
            break

    if not run.env:  # no invocation returned
        return None, {}
    details = {"passes": len(durations)}
    if trace:
        per_pass = []
        for p in traced:
            m = spans.layer_metrics(p["stats"], p["counts"])
            m["cli.emit_bytes"] = p["emit_bytes"]
            m["process.cpu_s"] = p["cpu_s"]
            m["process.cpu_per_wall"] = p["cpu_s"] / p["proc_wall_s"]
            per_pass.append(m)
        metrics = _median_of(per_pass)
        metrics["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced)
            / statistics.median(p["wall_s"] for p in plain) - 1.0)
    else:
        setups = [s for p in plain for s in p["setups"]]
        probe_argv = run.invocations[0][1]
        for _ in range(MIN_SETUPS - len(setups)):
            rec = invoke(probe_argv, run.work, setup_only=True)
            if rec["code"] is not None:
                setups.append(rec["setup_s"])
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "success_frac": (run.attempted - run.failed) / run.attempted,
        }
        width = bracket_rel_width(run.first_reports)
        if width is not None:
            metrics["bracket_rel_width"] = width
        details["setup_samples"] = len(setups)
    details["elapsed_s"] = time.perf_counter() - start
    return metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    if not (ROOT / "src" / "diffgap" / "cli.py").is_file():
        print(f"diffgap sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        run = Run(WORKLOADS[args.workload](args.seed, work), work)
        metrics, details = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    if metrics is None:
        print("no invocation returned; nothing to report", file=sys.stderr)
        return 1

    out = {}
    for m in declared:
        if m["name"] in metrics:
            out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
            print(f"# {m['name']:<36} {metrics[m['name']]:>14.6g} {m['unit']}")
    setups = f"{details['setup_samples']} set-ups, " if "setup_samples" in details else ""
    print(f"# {args.workload}: medians over {details['passes']} passes, {setups}"
          f"{run.attempted} invocations, {run.failed} failed, {details['elapsed_s']:.1f} s")
    env = dict(run.env, nproc=os.cpu_count(), cpus_allowed=len(os.sched_getaffinity(0)),
               commit=_git_commit(), seed=args.seed, workload=args.workload,
               trace=args.trace, passes=details["passes"])
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"correct": run.unexplained == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
