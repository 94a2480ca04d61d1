"""Monte-Carlo checks of the semigroup identities behind the bounds.

Paths follow dX = sqrt(2) sigma(X) dB + b(X) dt by Euler-Maruyama with a
fixed step.  The weighted-gradient identity a (P_t f)' = E[(a f')(X^a_t)
exp(-int V_a)] and its convex one-sided version are tested as statistical
identities: both sides are estimated from independent ensembles and
compared through a z-score.  Everything is deterministic given the seed;
all checks are 3-sigma tests, not precision benchmarks, so the integrator
stays first order.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import expr as ex
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
    magnitudes with opposite signs."""
    rng = np.random.Generator(np.random.Philox(key=int(cfg.seed) & _MASK64))
    half = cfg.paths // 2
    for _ in range(cfg.n_steps()):
        if cfg.antithetic:
            z = rng.standard_normal(half)
            yield np.concatenate([z, -z])
        else:
            yield rng.standard_normal(cfg.paths)


def _as_path_fn(g, what: str):
    if callable(g) and not isinstance(g, ex.Expr):
        return g
    return ex.compile_fn(md._parse_or_expr(g, what))


def _evolve(m, starts, cfg: MCConfig, integrand=None):
    """Common engine: k start points driven by common increments.

    Returns (endpoints, integrals, alive) with shape (k, paths); integrals
    hold the trapezoidal accumulation of the integrand along each path.
    Paths leaving the blow-up radius turn NaN and stay flagged.  Each row's
    arithmetic is elementwise, so evolving starts together or apart gives
    the same bits.  Memory grows with k and with the ensembles that run at
    once: ``_run`` passes every distinct start of a horizon at once, five for
    the two checks of the ``mc-check`` workload, so each array of the loop
    holds 5 x paths floats, and with two or more CPUs the arrays of a dual
    ensemble (1 x paths each) are live beside them.

    The step allocates as little as it can: the drift and sigma arrays are
    the model's own (``expr.evaluate`` never returns its input) and take
    their products in place, and only the new state is a fresh array, since
    an integrand may return its argument, which ``prev`` then holds.  Each
    product and sum is the one X + b dt + sqrt(2 dt) sigma z would compute,
    in the same order, so the paths are bit-identical to that formula's.
    """
    drift, sig = m.drift_fn, m.sigma_fn
    dt = cfg.dt()
    vol = math.sqrt(2.0 * dt)
    radius = cfg.blow_up_radius
    X = np.tile(np.asarray(starts, dtype=float)[:, None], (1, cfg.paths))
    alive = np.ones(X.shape, dtype=bool)
    integ = np.zeros(X.shape)
    with np.errstate(all="ignore"):
        prev = np.broadcast_to(np.asarray(integrand(X), dtype=float), X.shape).copy() \
            if integrand is not None else None
        for z in _increments(cfg):
            step = np.asarray(drift(X), dtype=float)
            step *= dt
            noise = np.asarray(sig(X), dtype=float)
            noise *= vol
            noise *= z
            X = X + step
            X += noise
            # a NaN anywhere fails both comparisons and takes the masked test
            if not (X.min() >= -radius and X.max() <= radius):
                blown = alive & (np.abs(X) > radius)
                if np.any(blown):
                    alive &= ~blown
                    X = np.where(alive, X, np.nan)
            if integrand is not None:
                cur = np.broadcast_to(np.asarray(integrand(X), dtype=float), X.shape)
                area = prev + cur
                area *= 0.5 * dt
                integ += area
                prev = cur
    return X, integ, alive


def _mean_se(values: np.ndarray, valid: np.ndarray, cfg: MCConfig):
    """Ensemble mean and standard error honoring antithetic pairing.

    A pair counts only when both members are valid.  Returns
    (mean, std_err, paths_used)."""
    if cfg.antithetic:
        half = cfg.paths // 2
        ok = valid[:half] & valid[half:]
        pairs = 0.5 * (values[:half][ok] + values[half:][ok])
        n = pairs.size
        if n < 2:
            raise MCError("too few surviving antithetic pairs")
        return float(np.mean(pairs)), float(np.std(pairs, ddof=1) / math.sqrt(n)), 2 * n
    vals = values[valid]
    n = vals.size
    if n < 2:
        raise MCError("too few surviving paths")
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n)), n


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
    functional.  Raises when most paths leave the blow-up radius."""
    fn = _as_path_fn(functional, "path functional") if functional is not None else None
    X, integ, alive = _evolve(m, [x0], cfg, integrand=fn)
    flagged = ~alive[0]
    frac = float(np.mean(flagged))
    if frac > 0.5:
        raise MCError(
            f"{frac:.0%} of paths exceeded |x| > {cfg.blow_up_radius:g}; "
            "the dynamics look explosive from this start point")
    return PathEnsemble(
        endpoints=X[0],
        integrals=integ[0] if fn is not None else None,
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


def _fk_core(d: md.DualModel, g, x0: float, cfg: MCConfig, potential_scale: float):
    gfn = _as_path_fn(g, "payoff")
    vfn = d.v_fn

    def rate(x):
        v = np.asarray(vfn(x), dtype=float)
        v *= potential_scale
        return v

    X, A, alive = _evolve(d, [x0], cfg, integrand=rate)
    end, acc, ok = X[0], A[0], alive[0]
    if np.mean(~ok) > 0.5:
        raise MCError("majority of dual paths exceeded the blow-up radius")
    if np.any(acc[ok] < -700.0):
        worst = float(np.min(acc[ok]))
        raise MCError(
            f"Feynman-Kac weight overflow: accumulated potential reached {worst:.3g}; "
            "the killing rate is too negative along the visited range")
    return end, acc, ok, gfn


def feynman_kac(d: md.DualModel, g, x0: float, cfg: MCConfig,
                potential_scale: float = 1.0) -> FKEstimate:
    """E[g(X^a_t) exp(-int_0^t V_a(X^a_s) ds)] by pathwise weights.

    potential_scale multiplies V_a (the convex inequality needs the doubled
    rate).  The weight integral uses the trapezoidal rule on the same grid
    as the paths."""
    end, acc, ok, gfn = _fk_core(d, g, x0, cfg, potential_scale)
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


def feynman_kac_killed(d: md.DualModel, g, x0: float, cfg: MCConfig) -> FKEstimate:
    """Same target via an exponential clock: keep g(X_t) when the
    accumulated rate stays below an independent Exp(1) draw.

    Cross-check only, and only for nonnegative rates (a negative rate would
    need weights above one, which a survival indicator cannot express)."""
    end, acc, ok, gfn = _fk_core(d, g, x0, cfg, 1.0)
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


def _compile_paths(m, d: md.DualModel, x0: float) -> None:
    """Evaluate once every function a check's ensembles step through, so each
    tree is compiled before any ensemble starts and the workers only read it."""
    for fn in (m.drift_fn, m.sigma_fn, d.drift_fn, d.v_fn):
        fn(x0)


class _Plan(NamedTuple):
    """A validated check: the base-model starts it reads at horizon t, its
    dual ensemble's ``feynman_kac`` arguments (or None), and ``finish(X,
    alive, fk)``, its result from its starts' rows and that ensemble's future."""

    t: float
    starts: tuple
    fk: tuple | None
    finish: Callable


def _run(m, cfg: MCConfig, plans: list[_Plan]) -> list:
    """Evolve every ensemble the planned checks need, then finish each check.

    The base model is evolved once per horizon over every distinct start its
    checks need there (rows bit-identical to lone ones, see ``_evolve``), and
    each check's dual side is one ``feynman_kac`` ensemble.  One thread per
    CPU in the process's affinity mask, the calling one included, but no more
    than there are ensembles, runs them largest first.  Each ensemble draws
    its own stream and does only elementwise arithmetic, so no bit depends on
    the thread count; numpy releases the GIL in its draws and ufunc loops.
    Each check reads its ensembles' results, and so raises their errors, in
    order."""
    index: dict[float, dict[float, int]] = {}  # horizon -> row of each start there
    for p in plans:
        for s in p.starts:
            rows = index.setdefault(p.t, {})
            rows.setdefault(s, len(rows))
    base = {t: replace(cfg, horizon=t) for t in index}
    # (size, fn, *args); the size is rows x steps, as every ensemble has cfg.paths paths
    jobs = [(len(index[t]) * c.n_steps(), _evolve, m, list(index[t]), c) for t, c in base.items()]
    jobs += [(p.fk[3].n_steps(), feynman_kac, *p.fk) for p in plans if p.fk]
    order = iter(sorted(range(len(jobs)), key=lambda i: -jobs[i][0]))
    futures = [Future() for _ in jobs]

    def work(i):  # run job i, then take the next one until none is left
        while i is not None:
            try:
                futures[i].set_result(jobs[i][1](*jobs[i][2:]))
            except Exception as err:
                futures[i].set_exception(err)
            i = next(order, None)

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    threads = min(len(jobs), cpus or 1)
    with ThreadPoolExecutor(max_workers=max(1, threads - 1)) as pool:
        # the calling thread runs the largest job, so its arrays reuse the main
        # heap as they would without threads
        first = next(order, None)
        workers = [pool.submit(work, next(order, None)) for _ in range(threads - 1)]
        work(first)
    for w in workers:
        w.result()  # raises what a job let through: a BaseException
    futures = iter(futures)
    paths = {t: next(futures) for t in index}
    out = []
    for p in plans:
        X = alive = None
        if p.starts:
            X, _, alive = paths[p.t].result()
            i = [index[p.t][s] for s in p.starts]
            X, alive = X[i], alive[i]
        out.append(p.finish(X, alive, next(futures) if p.fk else None))
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


def _resolution(lhs, rhs, denom):
    """A z-score is meaningful only when the combined noise could actually
    resolve a discrepancy at the scale of the quantities."""
    scale = max(abs(lhs), abs(rhs), 1e-9)
    return denom <= 0.2 * scale


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
    cfg_r = replace(cfg, horizon=t, seed=_derive_seed(int(cfg.seed), 1))

    ffn = ex.compile_fn(fe)
    afn = d.weight_fn
    dffn = ex.compile_fn(dfe)
    grad = lambda x: np.asarray(afn(x), dtype=float) * np.asarray(dffn(x), dtype=float)
    _compile_paths(m, d, x0)

    def finish(X, alive, fk):
        ok = alive[0] & alive[1]
        with np.errstate(all="ignore"):
            diffs = (np.asarray(ffn(X[0]), dtype=float)
                     - np.asarray(ffn(X[1]), dtype=float)) / (2.0 * delta)
        mean_d, se_d, _ = _mean_se(diffs, ok, cfg)
        lhs, lhs_err = a0 * mean_d, abs(a0) * se_d

        fk = fk.result()
        rhs, rhs_err = fk.mean, fk.std_err

        denom = math.hypot(lhs_err, rhs_err)
        z = abs(lhs - rhs) / max(denom, 1e-15)
        return IntertwiningCheck(
            lhs=lhs, rhs=rhs, lhs_err=lhs_err, rhs_err=rhs_err, zscore=z,
            conclusive=_resolution(lhs, rhs, denom),
            note="" if _resolution(lhs, rhs, denom) else
            "noise exceeds the resolution threshold; rerun with more paths",
        )

    return _Plan(t, starts, (d, grad, x0, cfg_r), finish)


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
    cfg_r = replace(cfg, horizon=t, seed=_derive_seed(int(cfg.seed), 2))
    a0 = float(d.weight_fn(x0))

    ffn = ex.compile_fn(fe)
    afn = d.weight_fn
    dffn = ex.compile_fn(dfe)

    def theta(x):
        with np.errstate(all="ignore"):
            fv = np.asarray(ffn(x), dtype=float)
            gv = np.asarray(afn(x), dtype=float) * np.asarray(dffn(x), dtype=float)
            return np.asarray(phi.phi_dd_fn(fv), dtype=float) * gv**2

    _compile_paths(m, d, x0)

    def finish(X, alive, fk):
        ok = alive[0] & alive[1] & alive[2]
        with np.errstate(all="ignore"):
            u = np.asarray(ffn(X[1]), dtype=float)
            v = (np.asarray(ffn(X[0]), dtype=float)
                 - np.asarray(ffn(X[2]), dtype=float)) / (2.0 * delta)
        if cfg.antithetic:
            half = cfg.paths // 2
            pok = ok[:half] & ok[half:]
            u = 0.5 * (u[:half] + u[half:])[pok]
            v = 0.5 * (v[:half] + v[half:])[pok]
        else:
            u, v = u[ok], v[ok]
        n = u.size
        if n < 2:
            raise MCError("too few surviving paths")
        um, vm = float(np.mean(u)), float(np.mean(v))
        lhs = float(phi.phi_dd_fn(um)) * (a0 * vm) ** 2
        # delta method through (u, v) -> phi''(u) (a0 v)^2
        cov = np.cov(np.stack([u, v])) / n
        gvec = np.array([
            float(phi.phi_ddd_fn(um)) * (a0 * vm) ** 2,
            float(phi.phi_dd_fn(um)) * 2.0 * a0**2 * vm,
        ])
        lhs_err = float(math.sqrt(max(0.0, gvec @ cov @ gvec)))

        fk = fk.result()
        rhs, rhs_err = fk.mean, fk.std_err

        denom = math.hypot(lhs_err, rhs_err)
        z = (rhs - lhs) / max(denom, 1e-15)
        return SubIntertwiningCheck(
            lhs=lhs, rhs=rhs, lhs_err=lhs_err, rhs_err=rhs_err, margin_zscore=z,
            conclusive=_resolution(lhs, rhs, denom),
            note="" if _resolution(lhs, rhs, denom) else
            "noise exceeds the resolution threshold; rerun with more paths",
        )

    return _Plan(t, starts, (d, theta, x0, cfg_r, 2.0), finish)
