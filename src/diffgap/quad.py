"""Deterministic adaptive quadrature against a measure.

The integrator is a 7/15 Gauss-Kronrod pair with round-based bisection.
Each round sums the panel estimates and errors (``math.fsum``) and stops once
the error meets max(abs_tol, rel_tol*|value|), the panel count reaches
``max_subdivisions``, or no panel can be halved above floating resolution.
Otherwise it bisects the fewest largest-error panels (ties by position)
whose removal would leave an error sum within the tolerance, at least one
and no more than the budget left, and evaluates all their children in one
integrand call.  Integrands must therefore be elementwise in x.  The final
value and error are summed in position order.  A result's ``edges`` are its
final interior panel boundaries in x; passing them as ``breakpoints`` to a
later call starts that call from the same partition and reproduces the
result.  Its ``carry`` is that partition coarsened for a nearby integrand (a
parameter search): going left to right, each pair of neighbouring panels not
already merged is merged when its summed error is below ``_CARRY_MERGE``
times the tolerance over the panel count, so a later call starts from the
panels the integrand family still needs instead of re-bisecting from scratch
or inheriting every panel an earlier member needed.  The
integrator is deliberately self-contained: the error budget of every bound
downstream leans on the reported ``err_est``, so the summation order, the
subdivision rule and the map of an infinite endpoint are all fixed here
rather than delegated.

An infinite endpoint is handled one way: the substitution x = shift +
tan(theta) maps the line onto (-pi/2, pi/2) and a half line onto a quarter
of it, whatever the integrand's tails.  The integrand is therefore also
evaluated far out (|x| up to about 1e16), where a measure density has
underflowed to exactly 0.  An integrand against a measure is taken as 0
wherever the density is 0: the product of 0 with a factor that has
overflowed is NaN in IEEE arithmetic, yet the measure puts no mass there.

On top of the integrator sit the normalized expectation against a measure
(``mu_expectation``), the median solver, and the phi of an entropy
inequality (``PhiSpec``) with its admissibility validator.  These take any
object exposing the model attributes (density, support, normalization, and
``density_expr`` where the density is one expression tree) and never import
the model module, keeping the dependency one-way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import expr as ex

__all__ = [
    "QuadConfig",
    "QuadError",
    "IntegrationResult",
    "integrate",
    "chebyshev_grid",
    "simpson_cells",
    "cumulative_on_grid",
    "PhiSpec",
    "PhiValidation",
    "validate_phi",
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


# A carried pair merges when its summed error is below this fraction of the
# tolerance per panel.  Doubling a panel's width can multiply its GK15 error
# estimate by up to about 2^15, and 1e-6 * 2^15 < 1/30, so a merged panel
# still meets its share of the tolerance.
_CARRY_MERGE = 1e-6


class QuadError(Exception):
    """Raised for invalid integrands or domains (NaN at a node, bad interval)."""


class _NonFinite(QuadError):
    """The integrand is NaN or infinite at a node: args are the message, the
    kind and the node, which ``integrate`` restates in x on the tan path."""

    def __str__(self) -> str:
        return str(self.args[0])


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and panel budget of ``integrate``, which stops once the
    error is within max(abs_tol, rel_tol*|value|).  Both tolerances must be
    finite and >= 0 and one of them positive, rel_tol below 1 (a relative
    error of 1 accepts any first estimate), and max_subdivisions at least 1;
    anything else raises ValueError, its message starting with the field."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.abs_tol == 0 and self.rel_tol == 0:
            raise ValueError("abs_tol and rel_tol are both 0; one must be positive")
        if not self.rel_tol < 1:
            raise ValueError(f"rel_tol must be below 1, got {self.rel_tol}")
        if not self.max_subdivisions >= 1:
            raise ValueError(f"max_subdivisions must be at least 1, got {self.max_subdivisions}")


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    err_est: float
    neval: int
    converged: bool
    subdivisions: int
    # final interior panel boundaries in x; breakpoints=edges restarts there
    edges: tuple[float, ...] = field(default=(), compare=False, repr=False)
    # an ordered subset of edges: negligible-error neighbours merged pairwise
    carry: tuple[float, ...] = field(default=(), compare=False, repr=False)


def _as_vector_fn(f, params=None) -> Callable[[np.ndarray], np.ndarray]:
    """f as a function of an x array; an Expr's parameters bound by params."""
    if isinstance(f, ex.Expr):
        missing = ex.free_params(f) - (params or {}).keys()
        if missing:
            raise QuadError(f"integrand has unbound parameters {sorted(missing)!r}")
        return lambda x: ex.evaluate(f, x, params)
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

    ``breakpoints`` seed the initial partition.  ``breakpoints=r.edges``
    restarts from the final panels of an earlier result r (for an infinite
    endpoint its edges are shift + tan(theta) of the interior panel
    boundaries in theta): for the same integrand this evaluates r's
    partition in one integrand call and reproduces r's value and
    subdivision count.  ``breakpoints=r.carry``
    starts a nearby integrand from r's partition with its negligible-error
    neighbours merged pairwise.  Carried panels count against
    ``max_subdivisions``.
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

    try:
        r = _integrate_finite(gn, lo_t, hi_t, cfg, bps)
    except _NonFinite as err:
        _, kind, theta = err.args
        x = shift + np.tan(theta)
        raise _NonFinite(f"integrand is {kind} at x = {x}", kind, x) from None
    return replace(r, edges=tuple((shift + np.tan(r.edges)).tolist()),
                   carry=tuple((shift + np.tan(r.carry)).tolist()))


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
        kind, node = ("NaN", xs[nan][0]) if np.any(nan) else ("infinite", xs[np.isinf(ys)][0])
        raise _NonFinite(f"integrand is {kind} at x = {node}", kind, node)
    k = half * np.add.reduce(ys * _WK, axis=1)
    g = half * np.add.reduce(ys * _WGFULL, axis=1)
    return k, np.abs(k - g)


def _integrate_finite(fn, a: float, b: float, cfg: QuadConfig, breakpoints) -> IntegrationResult:
    pts = np.asarray(breakpoints, dtype=float)
    # sorted and without repeats, as np.unique gives them, but without the
    # numpy.ma import np.unique makes on first use
    pts = np.sort(np.concatenate(([a], pts[(a < pts) & (pts < b)], [b])))
    pts = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]

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
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(value))
    edges = hi[:-1].tolist()
    return IntegrationResult(value, err, neval, err <= tol, len(lo), tuple(edges),
                             _coarsened(edges, e, _CARRY_MERGE * tol / len(lo)))


def _coarsened(edges: list, e: np.ndarray, negligible: float) -> tuple:
    """``edges`` without the boundary inside each neighbouring panel pair,
    paired greedily from the left, whose summed error is below
    ``negligible``."""
    small = (e[:-1] + e[1:] < negligible).tolist()  # small[j]: panels j, j + 1
    kept, j = [], 0
    while j < len(edges):
        if small[j]:  # merge; the next pair starts at panel j + 2
            kept += edges[j + 1:j + 2]
            j += 2
        else:
            kept.append(edges[j])
            j += 1
    return tuple(kept)


# ---- shared grids and cumulative integration ----------------------------


def chebyshev_grid(R: float = 12.0, n: int = 2049) -> np.ndarray:
    """Chebyshev-Lobatto points on [-R, R], ascending (includes 0 for odd n)."""
    j = np.arange(n)
    x = -R * np.cos(np.pi * j / (n - 1))
    if n % 2 == 1:
        x[n // 2] = 0.0  # cos(pi/2) rounds to ~6e-17; the center is exact
    return x


def simpson_cells(fn, x: np.ndarray) -> np.ndarray:
    """Simpson's rule on each cell [x[i], x[i+1]] of the grid x: returns the
    len(x) - 1 cell integrals of fn.  Error is O(h^5) per cell for smooth fn.
    """
    fn = _as_vector_fn(fn)
    x = np.asarray(x, dtype=float)
    mids = 0.5 * (x[:-1] + x[1:])
    fx = np.asarray(fn(x), dtype=float)
    fm = np.asarray(fn(mids), dtype=float)
    h = np.diff(x)
    return (h / 6.0) * (fx[:-1] + 4.0 * fm + fx[1:])


def cumulative_on_grid(fn, x: np.ndarray) -> np.ndarray:
    """Cumulative integral of fn from x[0] along the grid x (per-cell Simpson).

    Returns an array c with c[0] = 0 and c[i] = int_{x[0]}^{x[i]} fn.
    """
    return np.concatenate(([0.0], np.cumsum(simpson_cells(fn, x))))


# ---- measure functionals ------------------------------------------------


def _mu_integral(m, g, cfg: QuadConfig, breakpoints=(), params=None) -> IntegrationResult:
    """Integral of g against the unnormalized measure density of m; the
    integrand is 0 wherever the density is 0, even where g overflows.  An
    expression g may carry parameters, bound by ``params``.

    Where m also carries its density as a tree (``density_expr``), an
    expression g is compiled together with it (``expr.compiled``), so each
    quadrature round makes one compiled call for both; the values are
    those of ``g`` times ``m.density``, bit for bit."""
    gf = _as_vector_fn(g, params)  # refuses an expression's unbound parameters
    h_expr = getattr(m, "density_expr", None)
    if isinstance(g, ex.Expr) and h_expr is not None:
        both, c = ex.compiled([h_expr, g])
        p = params or {}

        def integrand(x):
            with np.errstate(all="ignore"):
                h, gx = both(x, c, p)
                return np.where(h == 0.0, 0.0, gx * h)
    else:
        dens = m.density

        def integrand(x):
            h = dens(x)
            with np.errstate(all="ignore"):
                return np.where(h == 0.0, 0.0, gf(x) * h)

    lo, hi = m.support
    return integrate(integrand, lo, hi, cfg, breakpoints=breakpoints)


def mu_expectation(m, g, cfg: QuadConfig | None = None, breakpoints=()) -> float:
    """Normalized expectation mu(g)."""
    cfg = cfg or QuadConfig()
    z = m.normalization(cfg)
    return _mu_integral(m, g, cfg, breakpoints).value / z


# ---- phi-entropy --------------------------------------------------------


@dataclass(frozen=True)
class PhiSpec:
    """A convex functional phi on an interval, with its second and third
    derivatives as callables."""

    name: str
    interval: tuple[float, float]
    phi_dd_fn: Callable[[np.ndarray], np.ndarray]
    phi_ddd_fn: Callable[[np.ndarray], np.ndarray]
    p: float | None = None

    @staticmethod
    def poincare() -> "PhiSpec":
        return PhiSpec(
            name="poincare",
            interval=(-math.inf, math.inf),
            phi_dd_fn=lambda u: np.full_like(np.asarray(u, dtype=float), 2.0),
            phi_ddd_fn=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
        )

    @staticmethod
    def log_sobolev() -> "PhiSpec":
        return PhiSpec(
            name="log_sobolev",
            interval=(0.0, math.inf),
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
            phi_dd_fn=lambda u: p * (p - 1.0) * np.power(u, p - 2.0),
            phi_ddd_fn=lambda u: p * (p - 1.0) * (p - 2.0) * np.power(u, p - 3.0),
            p=p,
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


# ---- median -------------------------------------------------------------


def median(m, cfg: QuadConfig | None = None) -> float:
    """Median of mu by bisection on the cumulative mass.

    On an interval the bisection runs in x.  On the line it runs in theta
    with x = tan(theta) over (-pi/2, pi/2), so a median anywhere on the line
    is bracketed: the two half-line masses are computed once, and each step
    adds one finite integral from 0."""
    cfg = cfg or QuadConfig()
    lo, hi = m.support
    if math.isinf(lo):
        to_x, a, b = math.tan, -0.5 * math.pi, 0.5 * math.pi
        ref, below = 0.0, integrate(m.density, -math.inf, 0.0, cfg).value
        total = below + integrate(m.density, 0.0, math.inf, cfg).value
    else:
        to_x, a, b = float, lo, hi
        ref, below, total = lo, 0.0, m.normalization(cfg)

    # the mass below a is 0 and below b the total: bisect the sign change
    for _ in range(80):
        mid = 0.5 * (a + b)
        x_mid = to_x(mid)
        fm = (below + integrate(m.density, ref, x_mid, cfg).value) / total - 0.5
        if fm == 0 or not a < mid < b or to_x(b) - to_x(a) < 1e-12 * max(1.0, abs(x_mid)):
            return x_mid
        if fm >= 0:
            b = mid
        else:
            a = mid
    return to_x(0.5 * (a + b))
