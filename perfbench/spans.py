"""Spans and counters for the traced benchmark run.

The traced run replaces public functions of the diffgap modules with
wrappers installed as module (or class) attributes.  Calls between modules
(``bd.rho_of_weight``) and calls inside a module (a global lookup of
``differentiate`` from ``differentiate``) both go through the attribute, so
both are caught.  A wrapper opens a span, calls the original with the same
arguments and returns its result unchanged; the only argument it touches is
the integrand of ``quad.integrate``, which it wraps in a counting callable
that returns the integrand's own values.

A direct self-call (the span on top of the stack has the same name) passes
through without a span, so recursive functions are counted at their
outermost call only.  A target missing from the package (removed or renamed
by a later change) is skipped, and the metrics derived from it are absent.
"""

from __future__ import annotations

import functools
import importlib
import math
import time

import numpy as np


class Tracer:
    """Stack of open spans, folded into per-name totals as they close.

    A span's self time is its duration minus the time covered by its child
    spans.  In one thread children are nested inside their parent and do not
    overlap, so the covered time is the sum of the children's durations.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # open spans: [name, start, child_s, n_children]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0, 0])

    def exit(self) -> int:
        """Close the innermost span; returns how many child spans it had."""
        name, start, child_s, n_children = self.stack.pop()
        dur = self.clock() - start
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            parent[3] += 1
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child_s
        return n_children

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount


def wrap(tracer: Tracer, owner, attr: str, name: str, before=None, after=None) -> bool:
    """Replace ``owner.attr`` by a traced wrapper; False when it is absent.

    ``before(tracer, args, kwargs)`` may return replacement arguments;
    ``after(tracer, args, kwargs, result, n_children)`` records counters from
    a call that returned.
    """
    fn = vars(owner).get(attr)
    if not callable(fn):
        return False

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.stack and tracer.stack[-1][0] == name:
            return fn(*args, **kwargs)
        if before is not None:
            args, kwargs = before(tracer, args, kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            n_children = tracer.exit()
        if after is not None:
            after(tracer, args, kwargs, result, n_children)
        return result

    setattr(owner, attr, traced)
    tracer.stats.setdefault(name, [0, 0.0, 0.0])
    return True


def _arg(args, kwargs, index: int, key: str):
    return args[index] if len(args) > index else kwargs.get(key)


# ---- per-target counters ----------------------------------------------------


def _evaluate_after(tr, args, kwargs, result, _):
    tr.add("expr.evaluate.points", np.size(_arg(args, kwargs, 1, "x")))


def _integrate_before(tr, args, kwargs):
    f = _arg(args, kwargs, 0, "f")
    if not callable(f):  # Expr integrands: no call site in the package passes one
        return args, kwargs

    def counted(x):
        tr.add("quad.integrand_calls")
        tr.add("quad.integrand_points", np.size(x))
        return f(x)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, {**kwargs, "f": counted}


def _integrate_after(tr, args, kwargs, result, _):
    tr.add("quad.subdivisions", getattr(result, "subdivisions", 0))
    tr.add("quad.converged" if getattr(result, "converged", True) else "quad.unconverged")


def _normalization_after(tr, args, kwargs, result, n_children):
    if n_children == 0:  # answered from the model's cache, no quadrature
        tr.add("model.normalization.hits")


def _rho_after(tr, args, kwargs, result, _):
    if isinstance(result, float) and math.isfinite(result):
        tr.add("bounds.rho_of_weight.finite")


def _minimize_after(tr, args, kwargs, result, _):
    tr.add("bounds.minimize.nit", getattr(result, "nit", 0))
    tr.add("bounds.minimize.nfev", getattr(result, "nfev", 0))


def _discretize_after(tr, args, kwargs, result, _):
    tr.add("oracle.discretize.nodes", len(getattr(result, "diag", ())))


def _evolve_after(tr, args, kwargs, result, _):
    starts = _arg(args, kwargs, 1, "starts")
    cfg = _arg(args, kwargs, 2, "cfg")
    if hasattr(cfg, "n_steps"):
        tr.add("mcsim.path_steps", np.size(starts) * cfg.paths * cfg.n_steps())


def _feynman_kac_after(tr, args, kwargs, result, _):
    tr.add("mcsim.paths_used", getattr(result, "paths_used", 0))
    tr.add("mcsim.paths_run", getattr(_arg(args, kwargs, 3, "cfg"), "paths", 0))


# (module, owner class or None, attribute, span name, before, after, counters)
TARGETS = [
    ("cli", None, "main", "cli", None, None, ()),
    ("expr", None, "parse", "expr.parse", None, None, ()),
    ("expr", None, "evaluate", "expr.evaluate", None, _evaluate_after,
     ("expr.evaluate.points",)),
    ("expr", None, "simplify", "expr.simplify", None, None, ()),
    ("expr", None, "differentiate", "expr.differentiate", None, None, ()),
    ("expr", None, "compile_fn", "expr.compile_fn", None, None, ()),
    ("quad", None, "integrate", "quad.integrate", _integrate_before, _integrate_after,
     ("quad.integrand_calls", "quad.integrand_points", "quad.subdivisions",
      "quad.converged", "quad.unconverged")),
    ("model", None, "build_model", "model.build_model", None, None, ()),
    ("model", None, "realize_weight", "model.realize_weight", None, None, ()),
    ("model", "DiffusionModel", "normalization", "model.normalization", None,
     _normalization_after, ("model.normalization.hits",)),
    ("model", "DualModel", "normalization", "model.normalization", None,
     _normalization_after, ("model.normalization.hits",)),
    ("bounds", None, "chen_wang_lower", "bounds.chen_wang_lower", None, None, ()),
    ("bounds", None, "rayleigh_upper", "bounds.rayleigh_upper", None, None, ()),
    ("bounds", None, "muckenhoupt", "bounds.muckenhoupt", None, None, ()),
    ("bounds", None, "veysseire_lower", "bounds.veysseire_lower", None, None, ()),
    ("bounds", None, "lsi_lower", "bounds.lsi_lower", None, None, ()),
    ("bounds", None, "assemble_report", "bounds.assemble_report", None, None, ()),
    ("bounds", None, "rho_of_weight", "bounds.rho_of_weight", None, _rho_after,
     ("bounds.rho_of_weight.finite",)),
    ("bounds", None, "minimize", "bounds.minimize", None, _minimize_after,
     ("bounds.minimize.nit", "bounds.minimize.nfev")),
    ("bounds", None, "minimize_scalar", "bounds.minimize_scalar", None, None, ()),
    ("oracle", None, "sturm_count", "oracle.sturm_count", None, None, ()),
    ("oracle", None, "kth_smallest_eigenvalue", "oracle.kth_smallest_eigenvalue",
     None, None, ()),
    ("oracle", None, "discretize", "oracle.discretize", None, _discretize_after,
     ("oracle.discretize.nodes",)),
    ("oracle", None, "eigenvector", "oracle.eigenvector", None, None, ()),
    ("oracle", None, "spectral_gap_fd", "oracle.spectral_gap_fd", None, None, ()),
    ("oracle", None, "eigvec_weight", "oracle.eigvec_weight", None, None, ()),
    ("mcsim", None, "check_intertwining", "mcsim.check_intertwining", None, None, ()),
    ("mcsim", None, "check_subintertwining", "mcsim.check_subintertwining",
     None, None, ()),
    ("mcsim", None, "feynman_kac", "mcsim.feynman_kac", None, _feynman_kac_after,
     ("mcsim.paths_used", "mcsim.paths_run")),
    ("mcsim", None, "_evolve", "mcsim.evolve", None, _evolve_after,
     ("mcsim.path_steps",)),
]


def install(tracer: Tracer) -> None:
    """Wrap every target present in the diffgap package."""
    for module, cls, attr, name, before, after, counters in TARGETS:
        try:
            owner = importlib.import_module(f"diffgap.{module}")
        except ModuleNotFoundError:
            continue
        if cls is not None:
            owner = vars(owner).get(cls)
            if owner is None:
                continue
        if wrap(tracer, owner, attr, name, before, after):
            for key in counters:
                tracer.counts.setdefault(key, 0)


# ---- per-layer metrics --------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, counts: dict) -> dict:
    """Per-layer metrics from span totals and counters summed over the
    invocations of one pass.  Spans give ``<name>.calls``, ``<name>.s``
    (inclusive) and ``<name>.self_s``; counters keep their names.  A ratio
    is given only when both of its parts were recorded, and reads 0 when its
    base is 0."""
    out: dict[str, float] = {}
    for name, (calls, total, self_s) in stats.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = total
        out[f"{name}.self_s"] = self_s
    out.update(counts)
    ratios = {
        "expr.points_per_call": ("expr.evaluate.points", "expr.evaluate.calls"),
        "quad.converged_frac": ("quad.converged", "quad.integrate.calls"),
        "model.normalization.hit_frac": ("model.normalization.hits",
                                         "model.normalization.calls"),
        "bounds.rho_of_weight.finite_frac": ("bounds.rho_of_weight.finite",
                                             "bounds.rho_of_weight.calls"),
        "mcsim.path_steps_per_s": ("mcsim.path_steps", "mcsim.evolve.s"),
        "mcsim.paths_used_frac": ("mcsim.paths_used", "mcsim.paths_run"),
    }
    for key, (num, den) in ratios.items():
        if num in out and den in out:
            out[key] = _ratio(out[num], out[den])
    return out


def merge(into_stats: dict, into_counts: dict, stats: dict, counts: dict) -> None:
    """Add one invocation's span totals and counters to a pass's sums."""
    for name, row in stats.items():
        acc = into_stats.setdefault(name, [0, 0.0, 0.0])
        for i, v in enumerate(row):
            acc[i] += v
    for key, v in counts.items():
        into_counts[key] = into_counts.get(key, 0) + v
