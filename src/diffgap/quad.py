"""Deterministic adaptive quadrature and measure functionals.

The integrator is a 7/15 Gauss-Kronrod pair with round-based bisection.
Each round sums the panel estimates and errors (``math.fsum``) and stops once
the error meets max(abs_tol, rel_tol*|value|), the panel count reaches
``max_subdivisions``, or no panel can be halved above floating resolution.
Otherwise it bisects the fewest largest-error panels (ties by position)
whose removal would leave an error sum within the tolerance, at least one
and no more than the budget left, and evaluates all their children in one
integrand call.  Integrands must therefore be elementwise in x.  The final
value and error are summed in position order.  The integrator is
deliberately self-contained: the error budget of every bound downstream
leans on the reported ``err_est``, so the summation order, the subdivision
rule and the tail handling are all fixed here rather than delegated.

Unbounded domains are handled two ways.  Fast-decaying integrands are
truncated at ``truncation_R`` with an exponential tail envelope fitted from
samples near the cut; integrands with polynomial tails (Cauchy-type measures)
go through the substitution x = tan(theta), which compactifies the line to
(-pi/2, pi/2).  ``infinite_method='auto'`` picks the substitution whenever
the fitted tail does not clear the absolute tolerance.

On top of the integrator sit the measure-level functionals (mean, variance,
entropy, Dirichlet form), the phi-entropy pairs with their admissibility
validator, and the median solver.  These take any object exposing the model
attributes (density, sigma_fn, domain, tail hints) and never import the model
module, keeping the dependency one-way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import expr as ex

__all__ = [
    "QuadConfig",
    "QuadError",
    "IntegrationResult",
    "integrate",
    "chebyshev_grid",
    "cumulative_on_grid",
    "Functionals",
    "functionals",
    "PhiSpec",
    "PhiValidation",
    "validate_phi",
    "phi_entropy",
    "median",
]

# 15-point Kronrod nodes on [-1, 1] (positive half; symmetric) and weights,
# with the embedded 7-point Gauss weights.  Standard values, 15 significant
# digits.
_XGK = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.0,
])
_WGK = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])
_WG = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
])

# full symmetric node/weight tables, ascending
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WGFULL = np.zeros_like(_WK)
# Gauss points are the even-indexed Kronrod points (1,3,5,7 in the half table)
_WGFULL[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


class QuadError(Exception):
    """Raised for invalid integrands or domains (NaN at a node, bad interval)."""


@dataclass(frozen=True)
class QuadConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    truncation_R: float = 12.0
    max_subdivisions: int = 2000
    infinite_method: str = "auto"  # 'auto' | 'truncate' | 'tan'


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    err_est: float
    neval: int
    converged: bool
    subdivisions: int

    def __float__(self):
        return self.value


def _as_vector_fn(f) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(f, ex.Expr):
        missing = ex.free_params(f)
        if missing:
            raise QuadError(f"integrand has unbound parameters {sorted(missing)!r}")
        return lambda x: ex.evaluate(f, x)
    if callable(f):
        return lambda x: np.asarray(f(np.asarray(x, dtype=float)), dtype=float)
    raise QuadError(f"integrand must be an Expr or callable, got {type(f)!r}")


def integrate(
    f,
    a: float,
    b: float,
    cfg: QuadConfig | None = None,
    breakpoints: Sequence[float] = (),
) -> IntegrationResult:
    """Integrate f from a to b (either may be infinite).

    The result carries the achieved error estimate and a convergence flag;
    a result that fails to meet max(abs_tol, rel_tol*|value|) within the
    subdivision budget is returned with converged=False rather than raised.
    """
    cfg = cfg or QuadConfig()
    if math.isnan(a) or math.isnan(b):
        raise QuadError("domain endpoint is NaN")
    if a == b:
        return IntegrationResult(0.0, 0.0, 0, True, 0)
    if a > b:
        r = integrate(f, b, a, cfg, breakpoints)
        return replace(r, value=-r.value)

    fn = _as_vector_fn(f)
    inf_a, inf_b = math.isinf(a), math.isinf(b)
    if not inf_a and not inf_b:
        return _integrate_finite(fn, a, b, cfg, breakpoints)

    method = cfg.infinite_method
    tail = 0.0
    if method not in ("auto", "truncate", "tan"):
        raise QuadError(f"unknown infinite_method {method!r}")
    if method in ("auto", "truncate"):
        lo = a if not inf_a else -cfg.truncation_R
        hi = b if not inf_b else cfg.truncation_R
        if lo >= hi:
            raise QuadError("truncation_R does not cover the finite endpoint")
        tail = 0.0
        fit_ok = True
        if inf_b:
            t, ok = _tail_envelope(fn, hi)
            tail += t
            fit_ok = fit_ok and ok
        if inf_a:
            t, ok = _tail_envelope(fn, lo)
            tail += t
            fit_ok = fit_ok and ok
        if method == "truncate" or (fit_ok and tail <= cfg.abs_tol):
            inner = _integrate_finite(fn, lo, hi, cfg, breakpoints)
            err = inner.err_est + tail
            conv = inner.converged and err <= max(cfg.abs_tol, cfg.rel_tol * abs(inner.value))
            return IntegrationResult(inner.value, err, inner.neval, conv, inner.subdivisions)

    # tangent substitution: x = shift + tan(theta)
    if inf_a and inf_b:
        shift = 0.0
        lo_t, hi_t = -0.5 * math.pi, 0.5 * math.pi
        bps = [math.atan(p - shift) for p in breakpoints]
        if 0.0 not in bps:
            bps.append(0.0)
    elif inf_b:
        shift = a
        lo_t, hi_t = 0.0, 0.5 * math.pi
        bps = [math.atan(p - shift) for p in breakpoints if p > a]
    else:
        shift = b
        lo_t, hi_t = -0.5 * math.pi, 0.0
        bps = [math.atan(p - shift) for p in breakpoints if p < b]

    def gn(theta):
        t = np.tan(theta)
        return fn(shift + t) * (1.0 + t * t)

    return _integrate_finite(gn, lo_t, hi_t, cfg, bps)


def _tail_envelope(fn, R: float):
    """Exponential tail bound past |R|: fit |f| ~ C e^{-c|x|} on three samples.

    Returns (tail_estimate, fit_ok).  A tail of exactly zero (integrand
    underflows) counts as a successful fit.
    """
    xs = np.array([0.8 * R, 0.9 * R, 1.0 * R])  # R carries the side's sign
    vals = np.abs(np.asarray(fn(xs), dtype=float))
    if np.any(np.isnan(vals)):
        return math.inf, False
    v1, v2, v3 = vals
    if v3 == 0.0 and v2 == 0.0:
        return 0.0, True
    if v3 <= 0.0 or v2 <= v3 or v1 <= v2:
        return math.inf, False
    c = math.log(v2 / v3) / (0.1 * abs(R))
    if c <= 0:
        return math.inf, False
    return v3 / c, True


def _gk15_batch(fn, lo: np.ndarray, hi: np.ndarray):
    """Gauss-Kronrod passes on the panels [lo[i], hi[i]] in one integrand
    call on the flattened (m, 15) node array: returns (kronrod, |kronrod -
    gauss|) per panel.  The weighted sums use ``np.add.reduce`` along each
    row rather than a matrix product, so no value depends on the BLAS
    kernel."""
    half = 0.5 * (hi - lo)
    xs = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    ys = np.asarray(fn(xs.ravel()), dtype=float)
    if ys.shape != (xs.size,):
        ys = np.broadcast_to(ys, (xs.size,))
    ys = ys.reshape(xs.shape)
    if not np.all(np.isfinite(ys)):
        nan = np.isnan(ys)
        if np.any(nan):
            raise QuadError(f"integrand is NaN at x = {xs[nan][0]}")
        raise QuadError(f"integrand is infinite at x = {xs[np.isinf(ys)][0]}")
    k = half * np.add.reduce(ys * _WK, axis=1)
    g = half * np.add.reduce(ys * _WGFULL, axis=1)
    return k, np.abs(k - g)


def _integrate_finite(fn, a: float, b: float, cfg: QuadConfig, breakpoints) -> IntegrationResult:
    pts = [a, b]
    for p in breakpoints:
        if a < p < b:
            pts.append(float(p))
    pts = np.array(sorted(set(pts)), dtype=float)

    # panels in position order
    lo, hi = pts[:-1], pts[1:]
    k, e = _gk15_batch(fn, lo, hi)
    neval = 15 * len(lo)
    while len(lo) < cfg.max_subdivisions:
        value, err = math.fsum(k.tolist()), math.fsum(e.tolist())
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
        if err <= tol:
            break
        mid = 0.5 * (lo + hi)
        pickable = np.flatnonzero((mid > lo) & (mid < hi))  # above floating resolution
        if not len(pickable):
            break
        # fewest largest-error panels whose removal leaves an error sum <= tol
        order = pickable[np.argsort(-e[pickable], kind="stable")]
        left = err - np.cumsum(e[order])
        n_pick = int(np.searchsorted(-left, -tol)) + 1
        n_pick = min(n_pick, len(order), cfg.max_subdivisions - len(lo))
        picked = np.zeros(len(lo), dtype=bool)
        picked[order[:n_pick]] = True

        # each picked panel becomes its two halves, in place
        rep = 1 + picked
        lo, hi = np.repeat(lo, rep), np.repeat(hi, rep)
        first = np.cumsum(rep)[picked] - 2
        hi[first] = lo[first + 1] = mid[picked]
        children = np.flatnonzero(np.repeat(picked, rep))
        k, e = np.repeat(k, rep), np.repeat(e, rep)
        k[children], e[children] = _gk15_batch(fn, lo[children], hi[children])
        neval += 15 * len(children)

    # deterministic final summation in segment-position order
    value = float(np.add.reduce(k))
    err = float(np.add.reduce(e))
    converged = err <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return IntegrationResult(value, err, neval, converged, len(lo))


# ---- shared grids and cumulative integration ----------------------------


def chebyshev_grid(R: float = 12.0, n: int = 2049) -> np.ndarray:
    """Chebyshev-Lobatto points on [-R, R], ascending (includes 0 for odd n)."""
    j = np.arange(n)
    x = -R * np.cos(np.pi * j / (n - 1))
    if n % 2 == 1:
        x[n // 2] = 0.0  # cos(pi/2) rounds to ~6e-17; the center is exact
    return x


def cumulative_on_grid(fn, x: np.ndarray) -> np.ndarray:
    """Cumulative integral of fn from x[0] along the grid x (per-cell Simpson).

    Returns an array c with c[0] = 0 and c[i] = int_{x[0]}^{x[i]} fn.  Error
    is O(h^4) per cell for smooth fn.
    """
    fn = _as_vector_fn(fn)
    x = np.asarray(x, dtype=float)
    mids = 0.5 * (x[:-1] + x[1:])
    fx = np.asarray(fn(x), dtype=float)
    fm = np.asarray(fn(mids), dtype=float)
    h = np.diff(x)
    cells = (h / 6.0) * (fx[:-1] + 4.0 * fm + fx[1:])
    out = np.empty_like(x)
    out[0] = 0.0
    np.cumsum(cells, out=out[1:])
    return out


# ---- measure functionals ------------------------------------------------


def _mu_integral(m, g, cfg: QuadConfig, breakpoints=()) -> IntegrationResult:
    """Integral of g against the unnormalized measure density of m."""
    dens = m.density

    if isinstance(g, ex.Expr):
        gf = _as_vector_fn(g)
    else:
        gf = _as_vector_fn(g)

    def integrand(x):
        return gf(x) * dens(x)

    lo, hi = m.support
    method = cfg.infinite_method
    if method == "auto" and getattr(m, "tail_kind", "exponential") == "polynomial":
        cfg = replace(cfg, infinite_method="tan")
    return integrate(integrand, lo, hi, cfg, breakpoints=breakpoints)


def mu_expectation(m, g, cfg: QuadConfig | None = None, breakpoints=()) -> float:
    """Normalized expectation mu(g)."""
    cfg = cfg or QuadConfig()
    z = m.normalization(cfg)
    return _mu_integral(m, g, cfg, breakpoints).value / z


@dataclass(frozen=True)
class Functionals:
    mean: float
    var: float
    entropy: float | None
    dirichlet: float | None


def functionals(m, f, cfg: QuadConfig | None = None) -> Functionals:
    """mu-mean, mu-variance, entropy Ent(f) and Dirichlet energy of f.

    entropy requires f > 0 on the working grid (else QuadError); dirichlet
    requires f to be an expression so its derivative exists symbolically
    (None is reported if f is a bare callable).
    """
    cfg = cfg or QuadConfig()
    z = m.normalization(cfg)
    fn = _as_vector_fn(f)

    mean = _mu_integral(m, f, cfg).value / z
    second = _mu_integral(m, lambda x: fn(x) ** 2, cfg).value / z
    var = second - mean * mean

    grid = m.probe_grid()
    fvals = fn(grid)
    entropy = None
    if np.all(fvals > 0):
        flogf = _mu_integral(m, lambda x: fn(x) * np.log(fn(x)), cfg).value / z
        entropy = flogf - mean * math.log(mean) if mean > 0 else None
    dirichlet = None
    if isinstance(f, ex.Expr):
        df = ex.simplify(ex.differentiate(f))
        dfn = _as_vector_fn(df)
        sig = m.sigma_fn
        dirichlet = _mu_integral(
            m, lambda x: (sig(x) * dfn(x)) ** 2, cfg
        ).value / z
    return Functionals(mean=mean, var=var, entropy=entropy, dirichlet=dirichlet)


def entropy_of(m, f, cfg: QuadConfig | None = None) -> float:
    """Ent_mu(f) = mu(f log f) - mu(f) log mu(f) for strictly positive f."""
    cfg = cfg or QuadConfig()
    fn = _as_vector_fn(f)
    grid = m.probe_grid()
    fvals = fn(grid)
    if not np.all(fvals > 0):
        bad = grid[np.asarray(fvals <= 0).nonzero()[0][0]]
        raise QuadError(f"entropy requires strictly positive f (f <= 0 at x = {bad})")
    z = m.normalization(cfg)
    mean = _mu_integral(m, f, cfg).value / z
    flogf = _mu_integral(m, lambda x: fn(x) * np.log(fn(x)), cfg).value / z
    return flogf - mean * math.log(mean)


# ---- phi-entropy --------------------------------------------------------


@dataclass(frozen=True)
class PhiSpec:
    """A convex functional phi on an interval, with second and third
    derivatives available as callables (symbolically derived when phi is an
    expression)."""

    name: str
    interval: tuple[float, float]
    phi_fn: Callable[[np.ndarray], np.ndarray]
    phi_dd_fn: Callable[[np.ndarray], np.ndarray]
    phi_ddd_fn: Callable[[np.ndarray], np.ndarray]
    p: float | None = None

    @staticmethod
    def poincare() -> "PhiSpec":
        return PhiSpec(
            name="poincare",
            interval=(-math.inf, math.inf),
            phi_fn=lambda u: u * u,
            phi_dd_fn=lambda u: np.full_like(np.asarray(u, dtype=float), 2.0),
            phi_ddd_fn=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        )

    @staticmethod
    def log_sobolev() -> "PhiSpec":
        return PhiSpec(
            name="log_sobolev",
            interval=(0.0, math.inf),
            phi_fn=lambda u: u * np.log(u),
            phi_dd_fn=lambda u: 1.0 / np.asarray(u, dtype=float),
            phi_ddd_fn=lambda u: -1.0 / np.asarray(u, dtype=float) ** 2,
        )

    @staticmethod
    def beckner(p: float) -> "PhiSpec":
        if not 1.0 < p < 2.0:
            raise ValueError(f"beckner exponent must lie in (1, 2), got {p}")
        return PhiSpec(
            name=f"beckner({p})",
            interval=(0.0, math.inf),
            phi_fn=lambda u: np.power(u, p),
            phi_dd_fn=lambda u: p * (p - 1.0) * np.power(u, p - 2.0),
            phi_ddd_fn=lambda u: p * (p - 1.0) * (p - 2.0) * np.power(u, p - 3.0),
            p=p,
        )

    @staticmethod
    def custom(phi: ex.Expr, interval: tuple[float, float]) -> "PhiSpec":
        dd = ex.simplify(ex.differentiate(ex.differentiate(phi)))
        ddd = ex.simplify(ex.differentiate(dd))
        return PhiSpec(
            name="custom",
            interval=(float(interval[0]), float(interval[1])),
            phi_fn=ex.compile_fn(phi),
            phi_dd_fn=ex.compile_fn(dd),
            phi_ddd_fn=ex.compile_fn(ddd),
        )

    @staticmethod
    def custom_callable(
        phi: Callable,
        phi_dd: Callable,
        phi_ddd: Callable,
        interval: tuple[float, float],
        name: str = "custom",
    ) -> "PhiSpec":
        return PhiSpec(
            name=name,
            interval=(float(interval[0]), float(interval[1])),
            phi_fn=phi,
            phi_dd_fn=phi_dd,
            phi_ddd_fn=phi_ddd,
        )


@dataclass(frozen=True)
class PhiValidation:
    ok: bool
    reasons: tuple[str, ...]


def _phi_probe(interval: tuple[float, float]) -> np.ndarray:
    lo, hi = interval
    if math.isinf(lo) and math.isinf(hi):
        return np.linspace(-20.0, 20.0, 401)
    if lo == 0.0 and math.isinf(hi):
        return np.geomspace(1e-3, 1e3, 401)
    if math.isinf(hi):
        return lo + np.geomspace(1e-3, 1e3, 401)
    if math.isinf(lo):
        return hi - np.geomspace(1e3, 1e-3, 401)
    pad = 1e-6 * (hi - lo)
    return np.linspace(lo + pad, hi - pad, 401)


def validate_phi(spec: PhiSpec) -> PhiValidation:
    """Admissibility check for the entropy class: phi'' > 0, phi''' of
    constant sign, and -1/phi'' convex, all sampled on a probe grid of the
    interval."""
    u = _phi_probe(spec.interval)
    reasons = []
    with np.errstate(all="ignore"):
        dd = np.asarray(spec.phi_dd_fn(u), dtype=float)
        ddd = np.asarray(spec.phi_ddd_fn(u), dtype=float)
    dd = np.broadcast_to(dd, u.shape)
    ddd = np.broadcast_to(ddd, u.shape)
    if not np.all(np.isfinite(dd)):
        reasons.append("phi'' not finite on the probe grid")
    elif np.min(dd) <= 0:
        reasons.append(f"phi'' not strictly positive (min {np.min(dd):.3g})")
    scale = float(np.max(np.abs(ddd))) if ddd.size else 0.0
    tol = 1e-12 * max(scale, 1.0)
    if not (np.all(ddd >= -tol) or np.all(ddd <= tol)):
        reasons.append("phi''' changes sign on the interval")
    if np.all(np.isfinite(dd)) and np.min(dd) > 0:
        w = -1.0 / dd
        slopes = np.diff(w) / np.diff(u)
        slope_scale = float(np.max(np.abs(slopes))) if slopes.size else 0.0
        if np.any(np.diff(slopes) < -1e-9 * max(slope_scale, 1.0)):
            reasons.append("-1/phi'' is not convex on the interval")
    return PhiValidation(ok=not reasons, reasons=tuple(reasons))


def phi_entropy(m, f: ex.Expr, spec: PhiSpec, cfg: QuadConfig | None = None):
    """The phi-entropy pair: (Ent^phi(f), int phi''(f) sigma^2 (f')^2 dmu).

    Rejects phi outside the admissible class and f whose range leaves phi's
    interval.  Both integrals are normalized by Z.
    """
    cfg = cfg or QuadConfig()
    check = validate_phi(spec)
    if not check.ok:
        raise QuadError(f"phi not admissible: {'; '.join(check.reasons)}")
    fn = _as_vector_fn(f)
    grid = m.probe_grid()
    fvals = np.asarray(fn(grid), dtype=float)
    lo, hi = spec.interval
    if np.any(fvals <= lo) or np.any(fvals >= hi):
        raise QuadError(
            f"f range [{fvals.min():.3g}, {fvals.max():.3g}] leaves the phi interval"
        )
    z = m.normalization(cfg)
    mean = _mu_integral(m, f, cfg).value / z
    phi_of_f = _mu_integral(m, lambda x: spec.phi_fn(fn(x)), cfg).value / z
    ent = phi_of_f - float(spec.phi_fn(np.asarray(mean)))
    df = ex.simplify(ex.differentiate(f))
    dfn = _as_vector_fn(df)
    sig = m.sigma_fn
    rhs = _mu_integral(
        m, lambda x: spec.phi_dd_fn(fn(x)) * (sig(x) * dfn(x)) ** 2, cfg
    ).value / z
    return ent, rhs


# ---- median -------------------------------------------------------------


def median(m, cfg: QuadConfig | None = None) -> float:
    """Median of mu by bisection on the cumulative mass."""
    cfg = cfg or QuadConfig()
    z = m.normalization(cfg)
    lo, hi = m.support
    R = cfg.truncation_R
    a = lo if math.isfinite(lo) else -R
    b = hi if math.isfinite(hi) else R
    # measure mass from a finite reference so the bisection probes only
    # finite integrals (the one half-infinite piece is computed once)
    if math.isfinite(lo):
        ref, base_mass = lo, 0.0
    else:
        ref = 0.0
        base_mass = _mu_integral_interval(m, -math.inf, 0.0, cfg)

    def mass_below(t):
        return (base_mass + _mu_integral_interval(m, ref, t, cfg)) / z

    fa = mass_below(a) - 0.5
    fb = mass_below(b) - 0.5
    if fa * fb > 0:
        raise QuadError("median not bracketed inside the working window")
    for _ in range(80):
        mid = 0.5 * (a + b)
        fm = mass_below(mid) - 0.5
        if fm == 0 or (b - a) < 1e-12 * max(1.0, abs(mid)):
            return mid
        if fa * fm <= 0:
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _mu_integral_interval(m, lo, hi, cfg: QuadConfig) -> float:
    dens = m.density
    method_cfg = cfg
    if cfg.infinite_method == "auto" and getattr(m, "tail_kind", "exponential") == "polynomial":
        method_cfg = replace(cfg, infinite_method="tan")
    return integrate(dens, lo, hi, method_cfg).value
