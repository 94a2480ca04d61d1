"""Monte-Carlo checks of the semigroup identities behind the bounds.

Paths follow dX = sqrt(2) sigma(X) dB + b(X) dt by Euler-Maruyama with a
fixed step.  The weighted-gradient identity a (P_t f)' = E[(a f')(X^a_t)
exp(-int V_a)] and its convex one-sided version are tested as statistical
identities: both sides are estimated from independent ensembles and
compared through a z-score.  At each horizon the base-model sides of a
run's checks draw the seed's stream and their dual sides one stream of
their own, so the two sides of a check are independent while the checks
share common random numbers on each side.  One Euler loop (``_evolve``)
steps every ensemble.  Everything is deterministic given the seed; all
checks are 3-sigma tests, not precision benchmarks, so the integrator
stays first order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np
import numpy.random  # numpy imports it lazily; here it stays out of a command's run time

from . import expr as ex
from . import jobs as jb
from . import model as md
from . import quad as q

__all__ = [
    "MCError",
    "MCConfigError",
    "PreconditionError",
    "MCConfig",
    "PathEnsemble",
    "WeightStats",
    "FKEstimate",
    "simulate",
    "feynman_kac",
    "feynman_kac_killed",
    "IntertwiningCheck",
    "check_intertwining",
    "SubIntertwiningCheck",
    "check_subintertwining",
    "run_checks",
]

_MASK64 = (1 << 64) - 1


class MCError(Exception):
    pass


class MCConfigError(MCError):
    """Invalid simulation settings or check arguments: a configuration
    error, not a numerical one."""


class PreconditionError(MCConfigError):
    """A check was configured outside the hypotheses it needs."""


def _derive_seed(seed: int, tag: int) -> int:
    # splitmix64 step: sub-ensembles (the two sides of a check) must be
    # independent yet reproducible from the one user-facing seed
    z = (seed + 0x9E3779B97F4A7C15 * (tag + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class MCConfig:
    """Simulation knobs.

    The step is adjusted to divide the horizon exactly.  With antithetic
    on, paths are driven in +/- increment pairs, so the count must be even.
    """

    step: float = 1e-3
    horizon: float = 1.0
    paths: int = 20000
    seed: int = 0
    antithetic: bool = False
    blow_up_radius: float = 1e6

    def __post_init__(self):
        if not self.step > 0:
            raise MCConfigError(f"step must be positive, got {self.step}")
        if not math.isfinite(self.horizon):
            raise MCConfigError(f"horizon must be finite, got {self.horizon}")
        if self.horizon < self.step:
            raise MCConfigError(f"horizon {self.horizon} is smaller than the step {self.step}")
        if self.paths < 1:
            raise MCConfigError(f"paths must be >= 1, got {self.paths}")
        if not 0 <= int(self.seed) <= _MASK64:
            raise MCConfigError("seed must fit in 64 bits")
        if self.antithetic and self.paths % 2:
            raise MCConfigError("antithetic pairing requires an even path count")
        if not self.blow_up_radius > 0:
            raise MCConfigError("blow_up_radius must be positive")

    def n_steps(self) -> int:
        return max(1, int(round(self.horizon / self.step)))

    def dt(self) -> float:
        return self.horizon / self.n_steps()


def _increments(cfg: MCConfig):
    """Per-step standard-normal draws, shape (paths,); antithetic pairs share
    magnitudes with opposite signs.  Every step's draws overwrite the one
    array this yields."""
    rng = np.random.Generator(np.random.Philox(key=int(cfg.seed) & _MASK64))
    z = np.empty(cfg.paths)
    half = cfg.paths // 2
    head, tail = z[:half], z[half:]
    for _ in range(cfg.n_steps()):
        if cfg.antithetic:
            rng.standard_normal(out=head)
            np.negative(head, out=tail)
        else:
            rng.standard_normal(out=z)
        yield z


def _payoff_fn(g):
    """A payoff of the endpoints: a callable as it is, else an expression."""
    if callable(g) and not isinstance(g, ex.Expr):
        return g
    return ex.compile_fn(md._parse_or_expr(g, "payoff"))


def _kernel_of(group) -> ex.Kernel:
    """The compiled step of one ``_evolve`` group: its integrand, if any,
    then its model's drift and, unless it is a constant, sigma, lowered
    together (``expr.kernel``), since the step evaluates all three at the
    same state."""
    m, _, integrand = group
    head = [] if integrand is None else [integrand]
    drift = m.drift_expr if isinstance(m, md.DualModel) else m.drift
    tail = [drift] if m.sigma.op == "const" else [drift, m.sigma]
    return ex.kernel(head + tail)


class _Rows:
    """One group of ``_evolve`` and the arrays it holds for the whole loop:
    the state, the arrays its kernel writes the integrand, drift and sigma
    into at each state, the trapezoid's previous integrand value, the
    integrals and the survivors.
    ``pool`` maps a row shape to the arrays that the job's groups of that
    shape use in turn: the spare the next state goes into, then the
    kernels' temporaries."""

    def __init__(self, group, starts: np.ndarray, paths: int, vol: float, pool: dict):
        m, _, integrand = group
        self.kernel = _kernel_of(group)
        self.params = m.params if isinstance(m, md.DualModel) else {}
        tree = integrand is not None
        # sigma * vol where sigma is a constant, else None
        self.scale = m.sigma.value * vol if m.sigma.op == "const" else None
        # the arrays of the kernel's results, in the order _kernel_of gives
        # its trees; the group owns them, and shares the others
        roots = self.kernel.roots
        self.rate = roots[0] if tree else None
        self.drift = roots[int(tree)]
        self.sigma = roots[int(tree) + 1] if self.scale is None else None
        self.x = np.tile(starts[:, None], (1, paths))
        self.pool = pool.setdefault(self.x.shape, [])
        temps = self.kernel.size - len(roots)
        self.pool += [np.empty_like(self.x) for _ in range(1 + temps - len(self.pool))]
        shared = iter(self.pool[1:])
        self.w = [np.empty_like(self.x) if k in roots else next(shared)
                  for k in range(self.kernel.size)]
        self.alive = np.ones(self.x.shape, dtype=bool)
        self.integ = np.zeros(self.x.shape)
        self.prev = self.blown = None

    def start(self) -> None:
        """The integrand, drift and sigma at the start points."""
        x, w = self.x, self.w
        self.kernel(x, self.params, w)
        if self.rate is not None:
            self.prev, w[self.rate] = w[self.rate], np.empty_like(x)

    def step(self, z, noise: dict, dt: float, vol: float, radius: float) -> None:
        """One Euler step, then the integrand, drift and sigma at the new
        state."""
        x, nxt, w = self.x, self.pool[0], self.w
        step = w[self.drift]
        step *= dt
        np.add(x, step, out=nxt)
        # a row of the (paths,) draws or noise at a time: numpy copies an
        # operand of up to 8192 elements before broadcasting into it in place
        if self.scale is None:
            shock = w[self.sigma]
            shock *= vol
            for row in shock:
                row *= z
            nxt += shock
        else:
            for row in nxt:
                row += noise[self.scale]
        # a NaN anywhere fails both comparisons and takes the masked test
        if not (nxt.min() >= -radius and nxt.max() <= radius):
            self.flag(nxt, x, radius)
        self.x, self.pool[0] = nxt, x
        self.kernel(nxt, self.params, w)
        if self.rate is not None:
            # the step's trapezoid goes into the previous integrand value's
            # array, which then takes the new value's place in ``w``
            prev, cur = self.prev, w[self.rate]
            np.add(prev, cur, out=prev)
            prev *= 0.5 * dt
            self.integ += prev
            self.prev, w[self.rate] = cur, prev

    def flag(self, x: np.ndarray, scratch: np.ndarray, radius: float) -> None:
        """Flag the live paths of ``x`` that left the blow-up radius and turn
        every flagged path NaN; ``scratch`` is an array of the same shape
        whose values are not needed any more."""
        if self.blown is None:
            self.blown = np.empty(x.shape, dtype=bool)
        blown, alive = self.blown, self.alive
        np.abs(x, out=scratch)
        np.greater(scratch, radius, out=blown)
        blown &= alive
        if blown.any():
            alive ^= blown  # blown holds live paths only, so this clears them
            np.logical_not(alive, out=blown)
            np.copyto(x, np.nan, where=blown)


def _evolve(groups, starts, cfg: MCConfig):
    """The Euler loop: every start point driven by one stream of increments.

    ``groups`` splits ``starts`` into consecutive runs of rows: a group
    ``(model, k, integrand)`` steps the next k starts under its model's drift
    and sigma and accumulates the trapezoidal integral of its integrand along
    each path.  The integrand is None or a tree, evaluated with a dual
    model's parameters; ``starts`` stays one flat sequence, whose size
    the benchmark's traced run counts as the job's rows.  Returns one
    (endpoints, integrals, alive) triple per group, each of shape (k,
    paths).  Paths leaving the blow-up radius turn NaN and stay flagged.
    Every group keeps its own state, drift, sigma, integrals and survivors,
    and each row's arithmetic is elementwise, so a row comes out the same
    whether it is evolved alone or with any other rows, of its group or of
    others, on the same stream.
    ``_run`` gives a horizon's base-model starts one group (five rows for
    the two checks of the ``mc-check`` workload) and its dual ensembles one
    job with a one-row group each.

    The loop allocates nothing per step.  Each group's integrand, drift and
    sigma are one compiled kernel (``_kernel_of``), called once at the start
    points and once after every step, that writes into arrays allocated
    here, once per call: each group's own results, and per row shape one
    spare state and the kernels' temporaries, which the groups use in turn.
    The trapezoid accumulates into the array of the previous integrand
    value, and the draws land in one resident row (``_increments``).  When
    sigma is a constant c, the noise (c vol) z is one row per step, shared
    by every group with that constant and broadcast over its rows.  Each
    product and sum is the one X + b dt + sqrt(2 dt) sigma z would compute,
    in the same order, so the paths are bit-identical to that formula's.
    """
    dt = cfg.dt()
    vol = math.sqrt(2.0 * dt)
    starts = np.asarray(starts, dtype=float)
    ends = np.cumsum([k for _, k, _ in groups])
    pool: dict = {}
    rows = [_Rows(g, starts[e - g[1]:e], cfg.paths, vol, pool) for g, e in zip(groups, ends)]
    noise = {r.scale: np.empty(cfg.paths) for r in rows if r.scale is not None}
    with np.errstate(all="ignore"):
        for r in rows:
            r.start()
        for z in _increments(cfg):
            for s, row in noise.items():
                np.multiply(s, z, out=row)
            for r in rows:
                r.step(z, noise, dt, vol, cfg.blow_up_radius)
    return [(r.x, r.integ, r.alive) for r in rows]


def _samples(values: np.ndarray, valid: np.ndarray, cfg: MCConfig) -> np.ndarray:
    """The independent samples of an ensemble's values: the valid ones, or
    under antithetic pairing the means of the pairs whose members are both
    valid.  Raises when fewer than two are left."""
    if cfg.antithetic:
        half = cfg.paths // 2
        ok = valid[:half] & valid[half:]
        out = 0.5 * (values[:half][ok] + values[half:][ok])
        if out.size < 2:
            raise MCError("too few surviving antithetic pairs")
        return out
    out = values[valid]
    if out.size < 2:
        raise MCError("too few surviving paths")
    return out


def _mean_se(values: np.ndarray, valid: np.ndarray, cfg: MCConfig):
    """Ensemble mean and standard error of the ``_samples``; returns (mean,
    std_err, paths_used)."""
    s = _samples(values, valid, cfg)
    n = s.size
    return float(np.mean(s)), float(np.std(s, ddof=1) / math.sqrt(n)), 2 * n if cfg.antithetic else n


@dataclass(frozen=True)
class PathEnsemble:
    endpoints: np.ndarray
    integrals: np.ndarray | None
    flagged: np.ndarray
    flagged_fraction: float
    dt: float
    steps: int


def simulate(m, x0: float, cfg: MCConfig, functional=None) -> PathEnsemble:
    """Endpoint ensemble from x0; optionally the pathwise time integral of a
    functional, an expression (a string, a number or a tree) evaluated with
    a dual model's parameters.  Raises when most paths leave the blow-up
    radius."""
    fe = None if functional is None else md._parse_or_expr(functional, "path functional")
    (X, integ, alive), = _evolve([(m, 1, fe)], [x0], cfg)
    flagged = ~alive[0]
    frac = float(np.mean(flagged))
    if frac > 0.5:
        raise MCError(
            f"{frac:.0%} of paths exceeded |x| > {cfg.blow_up_radius:g}; "
            "the dynamics look explosive from this start point")
    return PathEnsemble(
        endpoints=X[0],
        integrals=integ[0] if fe is not None else None,
        flagged=flagged,
        flagged_fraction=frac,
        dt=cfg.dt(),
        steps=cfg.n_steps(),
    )


@dataclass(frozen=True)
class WeightStats:
    min: float
    max: float
    effective_sample_size: float


@dataclass(frozen=True)
class FKEstimate:
    mean: float
    std_err: float
    paths_used: int
    weight_stats: WeightStats

    def __post_init__(self):
        if not self.std_err >= 0:
            raise MCError("standard error must be nonnegative")
        if self.weight_stats.effective_sample_size > self.paths_used + 1e-9:
            raise MCError("effective sample size cannot exceed the paths used")


def _fk_group(d: md.DualModel, potential_scale: float = 1.0) -> tuple:
    """The ``_evolve`` group of one Feynman-Kac ensemble: one row under the
    dual dynamics, accumulating the killing rate times ``potential_scale``
    as a tree, which the group's kernel computes with the drift."""
    rate = d.v_expr
    if potential_scale != 1.0:
        # one tree per dual and scale: ``expr.kernel`` keeps kernels by tree identity
        rate = d._scaled_v.setdefault(potential_scale, ex.mul(rate, ex.const(potential_scale)))
    return (d, 1, rate)


def _fk_paths(paths):
    """Endpoints, accumulated potential and survivors of a Feynman-Kac group's
    row; raises when most paths blew up or a weight would overflow or be NaN."""
    (end,), (acc,), (ok,) = paths
    if np.mean(~ok) > 0.5:
        raise MCError("majority of dual paths exceeded the blow-up radius")
    if np.any(acc[ok] < -700.0):
        worst = float(np.min(acc[ok]))
        raise MCError(
            f"Feynman-Kac weight overflow: accumulated potential reached {worst:.3g}; "
            "the killing rate is too negative along the visited range")
    if np.isnan(acc[ok]).any():
        raise MCError("non-finite killing rate: the accumulated potential is NaN on "
                      f"{np.isnan(acc[ok]).sum()} of {ok.sum()} surviving dual paths")
    return end, acc, ok


def _fk_estimate(paths, gfn, cfg: MCConfig) -> FKEstimate:
    """The pathwise-weight estimate of E[g(X_t) exp(-int V)] from a
    Feynman-Kac group's row (``_fk_group``)."""
    end, acc, ok = _fk_paths(paths)
    with np.errstate(all="ignore"):
        w = np.where(ok, np.exp(-acc), np.nan)
        y = np.where(ok, np.asarray(gfn(end), dtype=float) * w, np.nan)
    mean, se, used = _mean_se(y, ok, cfg)
    wok = w[ok]
    ess = float(np.sum(wok) ** 2 / np.sum(wok**2)) if wok.size else 0.0
    return FKEstimate(
        mean=mean, std_err=se, paths_used=used,
        weight_stats=WeightStats(float(np.min(wok)), float(np.max(wok)), ess),
    )


def feynman_kac(d: md.DualModel, g, x0: float, cfg: MCConfig,
                potential_scale: float = 1.0) -> FKEstimate:
    """E[g(X^a_t) exp(-int_0^t V_a(X^a_s) ds)] by pathwise weights.

    potential_scale multiplies V_a (the convex inequality needs the doubled
    rate).  The weight integral uses the trapezoidal rule on the same grid
    as the paths."""
    gfn = _payoff_fn(g)
    paths, = _evolve([_fk_group(d, potential_scale)], [x0], cfg)
    return _fk_estimate(paths, gfn, cfg)


def feynman_kac_killed(d: md.DualModel, g, x0: float, cfg: MCConfig) -> FKEstimate:
    """Same target via an exponential clock: keep g(X_t) when the
    accumulated rate stays below an independent Exp(1) draw.

    Cross-check only, and only for nonnegative rates (a negative rate would
    need weights above one, which a survival indicator cannot express)."""
    gfn = _payoff_fn(g)
    paths, = _evolve([_fk_group(d)], [x0], cfg)
    end, acc, ok = _fk_paths(paths)
    if np.any(acc[ok] < -1e-9):
        raise MCError("the killed-process estimator requires a nonnegative killing rate")
    clock_rng = np.random.Generator(
        np.random.Philox(key=_derive_seed(int(cfg.seed), 0x6B)))
    clocks = clock_rng.exponential(1.0, cfg.paths)
    with np.errstate(all="ignore"):
        survived = np.where(ok, (acc < clocks).astype(float), np.nan)
        y = np.where(ok, np.asarray(gfn(end), dtype=float) * survived, np.nan)
    mean, se, used = _mean_se(y, ok, cfg)
    sok = survived[ok]
    live = float(np.sum(sok))
    return FKEstimate(
        mean=mean, std_err=se, paths_used=used,
        weight_stats=WeightStats(float(np.min(sok)), float(np.max(sok)),
                                 live),
    )


# ---- identity checks -----------------------------------------------------


def _require_check_paths(cfg: MCConfig) -> None:
    if cfg.paths < 1000:
        raise MCConfigError(f"checks need at least 1000 paths, got {cfg.paths}")


_DELTA = 1e-3  # default half-width of a check's central difference


def _stencil(x0: float, delta: float, centre: bool = False) -> tuple:
    """Start points of a check's base-model ensemble: x0 +/- delta, and x0
    itself when ``centre``."""
    if not math.isfinite(x0):
        raise PreconditionError(f"x0 must be finite, got {x0}")
    if not (math.isfinite(delta) and delta > 0):
        raise PreconditionError(f"delta must be finite and positive, got {delta}")
    return (x0 + delta, x0, x0 - delta) if centre else (x0 + delta, x0 - delta)


class _Plan(NamedTuple):
    """A validated check: the base-model starts it reads at horizon t, its
    dual ensemble's ``_evolve`` group and start (or None), and ``finish(X,
    alive, dual)``, its result from its starts' rows and ``dual()``, which
    returns its dual group's paths or raises that job's error."""

    t: float
    starts: tuple
    dual: tuple | None
    finish: Callable


def _job(groups, starts, cfg: MCConfig):
    """One ``_evolve`` call, or the exception it raised: ``_run`` raises it."""
    try:
        return _evolve(groups, starts, cfg)
    except Exception as err:
        return err


def _run(m, cfg: MCConfig, plans: list[_Plan]) -> list:
    """Evolve every ensemble the planned checks need, then finish each check.

    Each horizon has two jobs, one ``_evolve`` call each: the base model over
    every distinct start its checks need there, on the stream seeded
    ``cfg.seed``, and every check's dual ensemble, one group each, on the
    stream seeded ``_derive_seed(cfg.seed, 1)``.  Rows come out as they do
    alone (see ``_evolve``), so the two sides of a check are independent,
    and the checks at one horizon share common random numbers on each side.
    ``jobs.fan_out`` runs the jobs, largest first, on one process per CPU
    the process may use.  Each job draws its own stream and does only
    elementwise arithmetic, so no bit depends on the CPU count.  Each check
    reads its ensembles' results, and so raises their errors, in order."""
    index: dict[float, dict[float, int]] = {}  # horizon -> row of each base start there
    duals: dict[float, list[int]] = {}  # horizon -> the plans with a dual ensemble there
    for i, p in enumerate(plans):
        for s in p.starts:
            rows = index.setdefault(p.t, {})
            rows.setdefault(s, len(rows))
        if p.dual:
            duals.setdefault(p.t, []).append(i)
    jobs = []  # (key, groups, starts, cfg); every job has cfg.paths paths
    for t, rows in index.items():
        jobs.append((("base", t), [(m, len(rows), None)], list(rows), replace(cfg, horizon=t)))
    dual_seed = _derive_seed(int(cfg.seed), 1)
    for t, ids in duals.items():
        jobs.append((("dual", t), [plans[i].dual[0] for i in ids], [plans[i].dual[1] for i in ids],
                     replace(cfg, horizon=t, seed=dual_seed)))
    for job in jobs:  # lowered here, so forked workers inherit the kernels
        for g in job[1]:
            _kernel_of(g)
    jobs.sort(key=lambda job: -len(job[2]) * job[3].n_steps())  # largest first: rows x steps
    done = dict(zip([job[0] for job in jobs],
                    jb.fan_out([functools.partial(_job, *job[1:]) for job in jobs])))

    def paths(key):  # a job's ``_evolve`` result; raises the error it returned
        if isinstance(done[key], Exception):
            raise done[key]
        return done[key]

    out = []
    for i, p in enumerate(plans):
        X = alive = None
        if p.starts:
            (X, _, alive), = paths(("base", p.t))
            rows = [index[p.t][s] for s in p.starts]
            X, alive = X[rows], alive[rows]
        g = duals[p.t].index(i) if p.dual else None  # its group in the dual job
        out.append(p.finish(X, alive, lambda t=p.t, g=g: paths(("dual", t))[g]))
    return out


def run_checks(m, cfg: MCConfig, intertwining=(), subintertwining=()):
    """The checks of one run, their ensembles evolved together (``_run``).

    Each entry holds the keyword arguments of one ``check_intertwining`` or
    ``check_subintertwining`` call besides ``m`` and ``cfg``.  Every check
    is validated before any ensemble starts.  Returns the two lists of
    results, in order."""
    plans = [_plan_intertwining(m, cfg=cfg, **kw) for kw in intertwining]
    k = len(plans)
    plans += [_plan_subintertwining(m, cfg=cfg, **kw) for kw in subintertwining]
    out = _run(m, cfg, plans)
    return out[:k], out[k:]


def _verdict(lhs, rhs, lhs_err, rhs_err) -> tuple:
    """(denom, conclusive, note) of a check: the combined noise of its two
    sides, and whether it could resolve a discrepancy at the scale of the
    quantities, without which a z-score means nothing."""
    denom = math.hypot(lhs_err, rhs_err)
    conclusive = denom <= 0.2 * max(abs(lhs), abs(rhs), 1e-9)
    return denom, conclusive, ("" if conclusive else
                               "noise exceeds the resolution threshold; rerun with more paths")


@dataclass(frozen=True)
class IntertwiningCheck:
    lhs: float
    rhs: float
    lhs_err: float
    rhs_err: float
    zscore: float
    conclusive: bool
    note: str = ""


def check_intertwining(m: md.DiffusionModel, w: md.WeightSpec, f, x0: float,
                       t: float, cfg: MCConfig, w_params: dict | None = None,
                       delta: float = _DELTA) -> IntertwiningCheck:
    """Test a(x0) d/dx [P_t f](x0) = E[(a f')(X^a_t) exp(-int V_a)].

    The left side differentiates the plain semigroup by a central difference
    with common random numbers (the same increments drive x0 +/- delta);
    the right side is the weighted estimate under the dual dynamics from an
    independent sub-seed.  Returns the two-sided z-score."""
    return _run(m, cfg, [_plan_intertwining(m, w, f, x0, t, cfg, w_params, delta)])[0]


def _plan_intertwining(m, w, f, x0, t, cfg, w_params=None, delta=_DELTA) -> _Plan:
    _require_check_paths(cfg)
    starts = _stencil(x0, delta)
    d = md.realize_weight(m, w, w_params or {})
    fe = md._parse_or_expr(f, "test function")
    dfe = ex.simplify(ex.differentiate(fe))
    a0 = float(d.weight_fn(x0))
    if t == 0.0:
        val = a0 * float(ex.evaluate(dfe, x0))
        done = IntertwiningCheck(lhs=val, rhs=val, lhs_err=0.0, rhs_err=0.0,
                                 zscore=0.0, conclusive=True,
                                 note="zero horizon: both sides collapse to a(x0) f'(x0)")
        return _Plan(t, (), None, lambda *_: done)
    if t < 0:
        raise MCConfigError(f"horizon must be nonnegative, got {t}")
    ffn = ex.compile_fn(fe)
    afn = d.weight_fn
    dffn = ex.compile_fn(dfe)
    grad = lambda x: np.asarray(afn(x), dtype=float) * np.asarray(dffn(x), dtype=float)

    def finish(X, alive, dual):
        ok = alive[0] & alive[1]
        with np.errstate(all="ignore"):
            diffs = (np.asarray(ffn(X[0]), dtype=float)
                     - np.asarray(ffn(X[1]), dtype=float)) / (2.0 * delta)
        mean_d, se_d, _ = _mean_se(diffs, ok, cfg)
        lhs, lhs_err = a0 * mean_d, abs(a0) * se_d

        fk = _fk_estimate(dual(), grad, cfg)
        rhs, rhs_err = fk.mean, fk.std_err

        denom, conclusive, note = _verdict(lhs, rhs, lhs_err, rhs_err)
        return IntertwiningCheck(
            lhs=lhs, rhs=rhs, lhs_err=lhs_err, rhs_err=rhs_err,
            zscore=abs(lhs - rhs) / max(denom, 1e-15), conclusive=conclusive, note=note)

    return _Plan(t, starts, (_fk_group(d), x0), finish)


@dataclass(frozen=True)
class SubIntertwiningCheck:
    lhs: float
    rhs: float
    lhs_err: float
    rhs_err: float
    margin_zscore: float
    conclusive: bool
    note: str = ""


def _sign_on(vals: np.ndarray, tol: float) -> int:
    pos = bool(np.any(vals > tol))
    neg = bool(np.any(vals < -tol))
    if pos and neg:
        return 2  # genuinely mixed
    if pos:
        return 1
    if neg:
        return -1
    return 0


def check_subintertwining(m: md.DiffusionModel, w: md.WeightSpec, phi: q.PhiSpec,
                          f, x0: float, t: float, cfg: MCConfig,
                          w_params: dict | None = None, delta: float = _DELTA
                          ) -> SubIntertwiningCheck:
    """One-sided test of phi''(P_t f) (a (P_t f)')^2 <= E[phi''(f) (a f')^2
    exp(-2 int V_a)].

    Hypotheses are enforced before anything is simulated: phi admissible for
    the entropy class, f monotone with values inside phi's interval, and
    (sigma/a)' phi''' f' of a single nonnegative sign on the probe grid.  A
    violated hypothesis raises; it is a configuration error, not a failed
    check."""
    return _run(m, cfg, [_plan_subintertwining(m, w, phi, f, x0, t, cfg, w_params, delta)])[0]


def _plan_subintertwining(m, w, phi, f, x0, t, cfg, w_params=None, delta=_DELTA) -> _Plan:
    _require_check_paths(cfg)
    starts = _stencil(x0, delta, centre=True)
    val = q.validate_phi(phi)
    if not val.ok:
        raise PreconditionError("; ".join(val.reasons))
    d = md.realize_weight(m, w, w_params or {})
    fe = md._parse_or_expr(f, "test function")
    dfe = ex.simplify(ex.differentiate(fe))

    grid = d.probe_grid()
    with np.errstate(all="ignore"):
        fvals = np.asarray(ex.evaluate(fe, grid), dtype=float)
        dfvals = np.asarray(ex.evaluate(dfe, grid), dtype=float)
    sf = _sign_on(dfvals, 1e-12 * max(1.0, float(np.nanmax(np.abs(dfvals)))))
    if sf in (0, 2):
        raise PreconditionError("a strictly monotone test function is required")
    flo, fhi = float(np.nanmin(fvals)), float(np.nanmax(fvals))
    ilo, ihi = phi.interval
    if not (ilo < flo and fhi < ihi):
        raise PreconditionError(
            f"test function range [{flo:.3g}, {fhi:.3g}] leaves the "
            f"admissible interval ({ilo:.3g}, {ihi:.3g})")
    us = np.linspace(flo, fhi, 201)
    with np.errstate(all="ignore"):
        d3 = np.asarray(phi.phi_ddd_fn(us), dtype=float)
    d3 = np.broadcast_to(d3, us.shape)
    s3 = _sign_on(d3, 1e-12 * max(1.0, float(np.nanmax(np.abs(d3)))))
    if s3 == 2:
        raise PreconditionError("phi''' changes sign over the range of f")
    if s3 != 0:
        with np.errstate(all="ignore"):
            ratio = np.asarray(m.sigma_fn(grid), dtype=float) / np.asarray(
                d.weight_fn(grid), dtype=float)
        dr = np.gradient(ratio, grid)
        tol = 1e-9 * max(1.0, float(np.nanmax(np.abs(dr))))
        if np.any(sf * s3 * dr < -tol):
            raise PreconditionError(
                "(sigma/a)' phi''' f' takes a negative sign on the grid; "
                "the one-sided inequality is not guaranteed there")

    if t <= 0:
        raise MCConfigError(f"horizon must be positive, got {t}")
    a0 = float(d.weight_fn(x0))

    ffn = ex.compile_fn(fe)
    afn = d.weight_fn
    dffn = ex.compile_fn(dfe)

    def theta(x):
        with np.errstate(all="ignore"):
            fv = np.asarray(ffn(x), dtype=float)
            gv = np.asarray(afn(x), dtype=float) * np.asarray(dffn(x), dtype=float)
            return np.asarray(phi.phi_dd_fn(fv), dtype=float) * gv**2

    def finish(X, alive, dual):
        ok = alive[0] & alive[1] & alive[2]
        with np.errstate(all="ignore"):
            u = np.asarray(ffn(X[1]), dtype=float)
            v = (np.asarray(ffn(X[0]), dtype=float)
                 - np.asarray(ffn(X[2]), dtype=float)) / (2.0 * delta)
        u, v = _samples(u, ok, cfg), _samples(v, ok, cfg)
        n = u.size
        um, vm = float(np.mean(u)), float(np.mean(v))
        lhs = float(phi.phi_dd_fn(um)) * (a0 * vm) ** 2
        # delta method through (u, v) -> phi''(u) (a0 v)^2
        cov = np.cov(np.stack([u, v])) / n
        gvec = np.array([
            float(phi.phi_ddd_fn(um)) * (a0 * vm) ** 2,
            float(phi.phi_dd_fn(um)) * 2.0 * a0**2 * vm,
        ])
        lhs_err = float(math.sqrt(max(0.0, gvec @ cov @ gvec)))

        fk = _fk_estimate(dual(), theta, cfg)
        rhs, rhs_err = fk.mean, fk.std_err

        denom, conclusive, note = _verdict(lhs, rhs, lhs_err, rhs_err)
        return SubIntertwiningCheck(
            lhs=lhs, rhs=rhs, lhs_err=lhs_err, rhs_err=rhs_err,
            margin_zscore=(rhs - lhs) / max(denom, 1e-15), conclusive=conclusive, note=note)

    return _Plan(t, starts, (_fk_group(d, 2.0), x0), finish)
