"""Spectral-gap and log-Sobolev bounds from weight potentials.

Every lower bound here is of the same shape: pick a positive weight a, form
its killing rate V_a, and take an infimum (pointwise for the Chen-Wang
route, harmonic-mean for the integrated route).  Upper bounds come from
Rayleigh quotients of trial functions.  The Muckenhoupt product criterion
closes the circle with a two-sided bracket built from tail and core
integrals around the median.  Each bound is a ``BoundReport``;
``muckenhoupt`` returns its (lower, upper) pair, with B, the median and
x_plus, x_minus in their params.

Both parameter searches, the sup over weights (Chen-Wang, LSI) and the inf
over trial functions (Rayleigh), go through one deterministic helper,
``_minimize_box``: a coarse grid over the parameter box followed by a
box-penalised Nelder-Mead polish started at the grid argmin (the weight
search minimizes -rho).  The killing-rate infimum likewise has one scan,
``_scan_rate``, and one off-grid refinement, ``_refine_min``.  Each report
carries an explicit error budget (quadrature error, optimizer gain,
truncation) so the assembler can check bound ordering honestly.

The two searches themselves, ``minimize`` (Nelder-Mead) and
``minimize_scalar`` (bounded Brent), are ports of scipy's and take the
same steps; ``math.gamma`` serves the closed forms.  So the module needs
numpy alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import expr as ex
from . import model as md
from . import quad as q

__all__ = [
    "BoundError",
    "BoundReport",
    "OptConfig",
    "rho_of_weight",
    "chen_wang_lower",
    "veysseire_lower",
    "muckenhoupt",
    "muckenhoupt_power_formula",
    "veysseire_power_formula",
    "power_crossover",
    "BLBound",
    "brascamp_lieb_var_bound",
    "rayleigh_upper",
    "lsi_lower",
    "assemble_report",
]

_U_WINDOW = 600.0  # exp(U) stays below overflow inside the scan window
_SCAN_POINTS = 1600  # dense-grid resolution for infima and the Muckenhoupt product
_NM_MAX_ITER = 500  # Nelder-Mead iteration cap of the parameter-box polish
_PARAM_TOL = 1e-6  # Nelder-Mead parameter tolerance (xatol)


class BoundError(Exception):
    pass


@dataclass(frozen=True)
class OptConfig:
    """Knobs shared by the bound operations.

    box maps parameter names to (lo, hi); required whenever the weight or
    trial family has free parameters.  R overrides the scan radius (half
    width on the line).
    """

    box: Mapping[str, tuple[float, float]] | None = None
    grid_points: int = 41
    R: float | None = None
    quad: q.QuadConfig | None = None

    def __post_init__(self):
        if self.R is not None and not (math.isfinite(self.R) and self.R > 0):
            raise BoundError(f"R must be finite and positive, got {self.R}")
        if self.grid_points < 1:
            raise BoundError(f"grid_points must be >= 1, got {self.grid_points}")

    def quad_cfg(self) -> q.QuadConfig:
        return self.quad or q.QuadConfig()


@dataclass(frozen=True)
class BoundReport:
    method: str
    target: str  # 'lambda1' | 'cls'
    side: str  # 'lower' | 'upper'
    value: float | None
    params: dict
    error_budget: dict
    notes: tuple[str, ...] = ()
    feasible: bool = True

    def __post_init__(self):
        if self.target not in ("lambda1", "cls"):
            raise BoundError(f"unknown target {self.target!r}")
        if self.side not in ("lower", "upper"):
            raise BoundError(f"unknown side {self.side!r}")
        if self.feasible and (self.value is None or not math.isfinite(self.value)):
            raise BoundError("feasible report requires a finite value")
        if not self.feasible and self.value is not None:
            raise BoundError("infeasible report must not carry a value")

    @property
    def budget_total(self) -> float:
        return float(sum(abs(v) for v in self.error_budget.values()))

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "target": self.target,
            "side": self.side,
            "value": self.value,
            "params": dict(self.params),
            "error_budget": dict(self.error_budget),
            "notes": list(self.notes),
            "feasible": self.feasible,
        }


def _infeasible(method: str, target: str, side: str, reason: str, **params) -> BoundReport:
    return BoundReport(
        method=method,
        target=target,
        side=side,
        value=None,
        params=dict(params),
        error_budget={"quad_err": 0.0, "opt_gap": 0.0, "truncation": 0.0},
        notes=(reason,),
        feasible=False,
    )


# ---- the two searches, ported from scipy --------------------------------
#
# ``minimize`` and ``minimize_scalar`` are ported from scipy.optimize
# (``_minimize_neldermead`` and ``_minimize_scalar_bounded``, scipy 1.17),
# which carries this notice:
#
#   Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
#   All rights reserved.
#
#   Redistribution and use in source and binary forms, with or without
#   modification, are permitted provided that the following conditions
#   are met:
#
#   1. Redistributions of source code must retain the above copyright
#      notice, this list of conditions and the following disclaimer.
#
#   2. Redistributions in binary form must reproduce the above
#      copyright notice, this list of conditions and the following
#      disclaimer in the documentation and/or other materials provided
#      with the distribution.
#
#   3. Neither the name of the copyright holder nor the names of its
#      contributors may be used to endorse or promote products derived
#      from this software without specific prior written permission.
#
#   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
#   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
#   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
#   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
#   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
#   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
#   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
#   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
#   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
#   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
#   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.


class OptResult(NamedTuple):
    x: np.ndarray | float
    fun: float
    nit: int
    nfev: int


def minimize(fun, x0, maxiter: int, xatol: float, fatol: float) -> OptResult:
    """Nelder-Mead simplex search (Nelder and Mead 1965) for a minimum of
    ``fun`` from ``x0``.

    A port of scipy's ``minimize(method="Nelder-Mead")`` without bounds,
    adaptive coefficients or an evaluation cap: the same initial simplex
    (+5 % per coordinate, 0.00025 for a zero one), the same reflection,
    expansion, contraction and shrink coefficients (1, 2, 1/2, 1/2), the
    same order of evaluations and the same stop, once both the simplex
    spread and its value spread are within xatol and fatol, or after
    ``maxiter`` iterations.  So x, fun, nit and nfev match scipy's bit for
    bit; like scipy, nit counts from 1.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return fun(np.copy(x))

    fsim = np.array([f(x) for x in sim], dtype=float)
    for _ in range(2):  # scipy sorts twice; argsort need not be stable on ties
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:  # inside contraction
                xcc = 0.5 * xbar + 0.5 * sim[-1]
                fxcc = f(xcc)
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    return OptResult(sim[0], np.min(fsim), iterations, nfev)


def _unit_sign(v: float) -> float:
    """numpy's ``np.sign(v) + (v == 0)`` on a float: 1.0 at either zero or
    above, -1.0 below, NaN at NaN."""
    return 1.0 if v >= 0.0 else -1.0 if v < 0.0 else math.nan


def minimize_scalar(fun, bounds: tuple[float, float], xatol: float) -> OptResult:
    """Minimum of ``fun`` on ``bounds`` by Brent's method (Brent 1973):
    golden-section steps with parabolic interpolation, no step shorter than
    tol1 = sqrt(2.2e-16)|x| + xatol/3, at most 500 evaluations.

    A port of scipy's ``minimize_scalar(method="bounded")`` (fminbound), with
    the same evaluations and the same stop, so x and fun match scipy's bit
    for bit.  nit = nfev counts the evaluations.  The bookkeeping runs on
    Python floats: scipy's ``np.abs``, ``np.sign`` and ``np.maximum`` become
    ``abs``, ``_unit_sign`` and a comparison that lets a NaN through, as
    ``np.maximum`` does (inside the loop both only ever see finite values,
    since a NaN or infinite xf - xm ends it first).  No division is by zero:
    a parabolic step needs |p| < |q r| / 2.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(bounds[0]), float(bounds[1])
    xatol = float(xatol)
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = fun(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _unit_sign(xm - xf)
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        step = abs(rat)  # np.maximum(|rat|, tol1), NaN if either is
        step = step if step >= tol1 else tol1 if step < tol1 else math.nan
        x = xf + _unit_sign(rat) * step
        fu = fun(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return OptResult(xf, fx, num, num)


# ---- infimum of the killing rate ----------------------------------------


def _scan_window(obj, R: float | None) -> tuple[float, float, bool]:
    """Scan interval (lo, hi) and whether the ends are true boundary points."""
    lo, hi = obj.support
    if math.isfinite(lo) and math.isfinite(hi):
        inset = 1e-7 * (hi - lo)
        return lo + inset, hi - inset, True
    if R is None:
        R = 20.0 if getattr(obj, "tail_kind", "exponential") == "polynomial" else 12.0
    return -float(R), float(R), False


def _scan_rate(d: md.DualModel, R: float | None, points: int, nan_msg: str):
    """V_a on an even-count grid over the scan window: (xs, vals, finite_ends).

    A NaN raises BoundError(nan_msg), formatted with the first bad point as
    ``bad``."""
    lo, hi, finite_ends = _scan_window(d, R)
    # even count keeps the midpoint off exact 0 where power-law weights kink
    xs = np.linspace(lo, hi, points + (points % 2))
    with np.errstate(all="ignore"):
        vals = np.asarray(d.v_fn(xs), dtype=float)
    if np.any(np.isnan(vals)):
        bad = xs[int(np.flatnonzero(np.isnan(vals))[0])]
        raise BoundError(nan_msg.format(bad=bad))
    return xs, vals, finite_ends


def _refine_min(d: md.DualModel, xs: np.ndarray, vals: np.ndarray, xatol: float) -> float:
    """Grid minimum of V_a, sharpened by bounded scalar minimization between
    the neighbours of the three lowest grid points.  A point with a strictly
    lower neighbour is skipped: that neighbour is among the three, so the
    valley's grid minimum is refined all the same."""
    best = float(np.min(vals))
    # V_a's compiled function on np.float64 points: the values of
    # float(d.v_fn(t)), bit for bit, without evaluate's cost per call
    rate, c = ex.compiled([d.v_expr])
    p = d.params
    with np.errstate(all="ignore"):
        for i in np.argpartition(vals, 3)[:3]:
            lo, hi = max(i - 1, 0), min(i + 1, len(xs) - 1)
            if xs[hi] <= xs[lo] or vals[lo] < vals[i] or vals[hi] < vals[i]:
                continue
            r = minimize_scalar(lambda t: float(rate(np.float64(t), c, p)[0]),
                                bounds=(xs[lo], xs[hi]), xatol=xatol)
            if math.isfinite(r.fun):
                best = min(best, r.fun)
    return best


def rho_of_weight(d: md.DualModel, R: float | None = None, refine: bool = True) -> float:
    """inf of the killing rate V_a over the scan window.

    Returns -inf when V_a is still decreasing outward at the window edge
    (the infimum then lives in the tail and cannot be trusted from a finite
    scan), so a caller can only ever under-claim.  The grid minimum is
    sharpened by bounded scalar minimization around the lowest grid points.
    """
    xs, vals, finite_ends = _scan_rate(
        d, R, _SCAN_POINTS, "killing rate is not finite on the scan grid (V({bad:.6g}) = nan)")
    if np.any(np.isneginf(vals)):
        return -math.inf
    if not finite_ends:
        tol = 1e-12 * max(1.0, float(np.max(np.abs(vals[[0, -1]]))))
        if vals[-1] < vals[-2] - tol or vals[0] < vals[1] - tol:
            return -math.inf
    if not refine:
        return float(np.min(vals))
    return _refine_min(d, xs, vals, 1e-10 * (xs[-1] - xs[0]))


# ---- weight-family optimization -----------------------------------------


@dataclass(frozen=True)
class _RhoOpt:
    params: dict
    rho: float
    opt_gap: float
    dual: md.DualModel


def _family_params(family: ex.Expr, what: str) -> list[str]:
    names = sorted(ex.free_params(family))
    if len(names) > 3:
        raise BoundError(f"{what} has {len(names)} free parameters (limit 3)")
    return names


def _minimize_box(names: list[str], cfg: OptConfig, objective, polish=None):
    """Minimize over the box ``cfg.box``: a grid scan of ``objective`` (first
    minimum wins), then a box-penalised Nelder-Mead polish of ``polish``
    (default ``objective``, else re-evaluated at the grid argmin for the
    start value).  Returns (theta, value, start), keeping the grid point
    unless the polish does better; None when no grid value is below +inf.
    With no ``names`` the box is the one point (): it is scanned and
    re-evaluated by ``polish`` alike, and there is nothing to polish."""
    missing = [n for n in names if not cfg.box or n not in cfg.box]
    if missing:
        raise BoundError(f"parameter box required for {missing}")
    axes = [np.linspace(cfg.box[n][0], cfg.box[n][1], cfg.grid_points) for n in names]
    best_theta, best_val = None, math.inf
    for theta in itertools.product(*axes):
        v = objective(theta)
        if v < best_val:
            best_val, best_theta = v, theta
    if best_theta is None:
        return None
    if polish is None:
        polish, start = objective, best_val
    else:
        start = polish(best_theta)
    if not names:
        return best_theta, start, start

    def boxed(theta):
        for n, t in zip(names, theta):
            lo, hi = cfg.box[n]
            if not lo <= t <= hi:
                return math.inf
        return polish(theta)

    nm = minimize(boxed, np.asarray(best_theta, dtype=float), maxiter=_NM_MAX_ITER,
                  xatol=_PARAM_TOL, fatol=1e-12)
    if np.isfinite(nm.fun) and float(nm.fun) < start:
        return tuple(nm.x), float(nm.fun), start
    return best_theta, start, start


def _maximize_rho(
    m: md.DiffusionModel,
    spec: md.WeightSpec,
    cfg: OptConfig,
    admissible: Callable[[md.DualModel], bool] | None = None,
) -> _RhoOpt | None:
    """Maximize rho_a over the family's parameter box; None if nothing is
    admissible.  Deterministic: full grid scan, then Nelder-Mead.  The family
    is derived once and bound at each point; a refined rho is computed once
    per point."""
    names = _family_params(spec.payload, "weight family")
    try:
        family = md.derive_weight(m, spec)
    except md.ModelError:  # no member is realizable, e.g. z_form with sigma != 1
        family = None

    def rho_at(theta, refine):
        if family is None:
            return -math.inf, None
        try:
            d = family.bind(dict(zip(names, theta)))
        except md.ModelError:
            return -math.inf, None
        if admissible is not None and not admissible(d):
            return -math.inf, None
        try:
            return rho_of_weight(d, cfg.R, refine=refine), d
        except BoundError:
            return -math.inf, None

    # the polish start, Nelder-Mead's first vertex and theta* repeat points
    refined: dict[tuple, tuple] = {}

    def rho_refined(theta):
        key = tuple(float(t) for t in theta)
        if key not in refined:
            refined[key] = rho_at(theta, refine=True)
        return refined[key]

    # the grid scans unrefined infima; the polish refines every point
    found = _minimize_box(names, cfg, lambda theta: -rho_at(theta, refine=False)[0],
                          polish=lambda theta: -rho_refined(theta)[0])
    if found is None:
        return None
    theta_star, neg_rho, neg_start = found
    _, d_star = rho_refined(theta_star)
    return _RhoOpt(params=dict(zip(names, (float(t) for t in theta_star))),
                   rho=-neg_rho, opt_gap=neg_start - neg_rho, dual=d_star)


def chen_wang_lower(
    m: md.DiffusionModel, w: md.WeightSpec, opt_cfg: OptConfig | None = None
) -> BoundReport:
    """Lower bound lambda1 >= sup_a inf_x V_a over a weight family."""
    cfg = opt_cfg or OptConfig()
    res = _maximize_rho(m, w, cfg)
    if res is None:
        return _infeasible("chen_wang", "lambda1", "lower",
                           "no admissible weight in the family (rho unbounded below or weight degenerate)")
    if res.rho <= 0.0:
        return _infeasible("chen_wang", "lambda1", "lower",
                           f"best killing-rate infimum is not positive (rho = {res.rho:.6g})",
                           **res.params)
    return BoundReport(
        method="chen_wang",
        target="lambda1",
        side="lower",
        value=res.rho,
        params={**res.params, "rho": res.rho, "kind": w.kind},
        error_budget={"quad_err": 0.0, "opt_gap": res.opt_gap, "truncation": 0.0},
        notes=("killing rate verified increasing outward at the scan edge",),
    )


# ---- integrated lower bound ---------------------------------------------


def veysseire_lower(m: md.DiffusionModel, cfg: OptConfig | None = None) -> BoundReport:
    """Integrated lower bound lambda1 >= 1 / mu(1/V_sigma), V_sigma > 0."""
    cfg = cfg or OptConfig()
    d = md.realize_weight(m, md.WeightSpec.direct(m.sigma))
    xs, vals, _ = _scan_rate(d, cfg.R, _SCAN_POINTS,
                             "V_sigma is not defined on the working grid (x = {bad:.6g})")
    lo, hi = xs[0], xs[-1]
    # sharpen interior minima off the grid; a rate vanishing between nodes
    # (quartic: V_sigma = U'' ~ x^2 at the origin) must fail the check
    vmin = _refine_min(d, xs, vals, 1e-12 * (hi - lo))
    if vmin <= 1e-12:
        return _infeasible("veysseire", "lambda1", "lower",
                           f"V_sigma is not strictly positive on the working grid (min {vmin:.3g})")
    qc = cfg.quad_cfg()
    z = m.normalization(qc)
    anchor = m.anchor
    try:
        with np.errstate(all="ignore"):
            r = q._mu_integral(m, ex.div(ex.const(1.0), d.v_expr), qc, breakpoints=(anchor,),
                               params=d.params)
    except q.QuadError:
        return _infeasible("veysseire", "lambda1", "lower",
                           "1/V_sigma is not mu-integrable")
    integral = r.value / z
    if not (r.converged and math.isfinite(integral) and integral > 0):
        return _infeasible("veysseire", "lambda1", "lower",
                           "1/V_sigma is not mu-integrable")
    value = 1.0 / integral
    quad_err = (r.err_est / z) / integral**2
    return BoundReport(
        method="veysseire",
        target="lambda1",
        side="lower",
        value=value,
        params={"mu_inverse_rate": integral, "min_V_sigma": vmin},
        error_budget={"quad_err": quad_err, "opt_gap": 0.0, "truncation": 0.0},
        notes=(f"V_sigma positivity checked on [{lo:.3g}, {hi:.3g}]",),
    )


# ---- Muckenhoupt two-sided criterion ------------------------------------


def _muck_side(m: md.DiffusionModel, med: float, sgn: int, cfg: OptConfig):
    """sup over t > 0 of tail(med + sgn t) * core(med -> med + sgn t)."""
    lo, hi = m.support
    edge = (hi - med) if sgn > 0 else (med - lo)
    R = cfg.R if cfg.R is not None else 40.0
    T = min(R, edge if math.isfinite(edge) else R)

    # clip the window where U exceeds the overflow guard; beyond it the
    # product has already decayed by a factor exp(-(U - window)) at least
    probe = np.linspace(0.0, T, 2001)[1:]
    uvals = np.asarray(m.U(med + sgn * probe), dtype=float)
    over = np.flatnonzero(np.maximum.accumulate(uvals) > _U_WINDOW)
    clipped = over.size > 0
    if clipped:
        T = float(probe[over[0]])

    points = _SCAN_POINTS // 4
    t = np.concatenate([[0.0], np.geomspace(max(1e-4, 1e-6 * T), T, points - 1)])
    dens = lambda u: np.asarray(m.density(med + sgn * np.asarray(u)), dtype=float)
    coref = lambda u: np.exp(np.asarray(m.U(med + sgn * np.asarray(u)), dtype=float))
    core = q.cumulative_on_grid(coref, t)
    cells = q.simpson_cells(dens, t)
    # a tail mass multiplies a core integral about its reciprocal in size,
    # so it needs relative accuracy, whatever the absolute tolerance (which
    # alone sets the accuracy where the relative one is 0)
    qc = cfg.quad_cfg()
    if qc.rel_tol > 0:
        qc = replace(qc, abs_tol=0.0)
    if math.isfinite(edge) and T >= edge:
        beyond = 0.0
    elif sgn > 0:
        beyond = q.integrate(m.density, med + T, hi, qc).value
    else:
        beyond = q.integrate(m.density, lo, med - T, qc).value
    tail = np.empty_like(t)
    tail[-1] = beyond
    tail[:-1] = beyond + np.cumsum(cells[::-1])[::-1]
    prod = tail * core

    i = int(np.argmax(prod))
    b_grid = float(prod[i])
    # plateau / divergence classification at the window edge
    j = int(np.searchsorted(t, 0.8 * T))
    edge_ratio = prod[-1] / prod[j] if prod[j] > 0 else math.inf
    if i == len(t) - 1 and not (math.isfinite(edge) and T >= edge):
        if edge_ratio > 1.02:
            return math.inf, float(med + sgn * t[i]), 0.0, ()
        # supremum approached in the tail limit; the grid edge already sits
        # on the plateau
        return b_grid, float(med + sgn * t[i]), abs(b_grid - float(prod[j])), (
            "supremum attained in the tail limit",)

    # Brent refines on [a, b]: the tail beyond b and the core up to a are
    # integrated once, and each step adds only the pieces between a and b
    a, b = t[max(i - 1, 1)], t[min(i + 1, len(t) - 1)]
    if sgn > 0:
        tail_b = q.integrate(m.density, med + b, hi, qc).value
    else:
        tail_b = q.integrate(m.density, lo, med - b, qc).value
    core_a = q.integrate(coref, 0.0, a, qc).value

    def prod_direct(tt: float) -> float:
        if sgn > 0:
            tl = q.integrate(m.density, med + tt, med + b, qc).value
        else:
            tl = q.integrate(m.density, med - b, med - tt, qc).value
        return (tail_b + tl) * (core_a + q.integrate(coref, a, tt, qc).value)

    r = minimize_scalar(lambda tt: -prod_direct(float(tt)), bounds=(a, b), xatol=1e-9 * T)
    b_best, x_best = b_grid, float(med + sgn * t[i])
    if np.isfinite(r.fun) and -r.fun > b_best:
        b_best, x_best = -float(r.fun), float(med + sgn * r.x)
    # plus the grid's own error, measured by the direct product at its argmax
    return b_best, x_best, abs(b_best - b_grid) + abs(prod_direct(float(t[i])) - b_grid), ()


def muckenhoupt(m: md.DiffusionModel,
                cfg: OptConfig | None = None) -> tuple[BoundReport, BoundReport]:
    """Two-sided gap bracket 1/(4B) <= lambda1 <= 2/B from the product of
    tail mass and reciprocal-density core integral around the median: the
    (lower, upper) reports, both infeasible when B diverges on the scan window."""
    cfg = cfg or OptConfig()
    if not md._sigma_is_one(m):
        raise BoundError("the Muckenhoupt criterion requires unit diffusion coefficient")
    med = q.median(m, cfg.quad_cfg())
    bp, xp, ep, notes_p = _muck_side(m, med, +1, cfg)
    bm, xm, em, notes_m = _muck_side(m, med, -1, cfg)
    b = max(bp, bm)
    params = {"B": b if math.isfinite(b) else math.inf, "median": med,
              "x_plus": xp, "x_minus": xm}
    if not math.isfinite(b):
        reason = "B diverging on the scan window: no spectral gap detected"
        return (_infeasible("muckenhoupt", "lambda1", "lower", reason, **params),
                _infeasible("muckenhoupt", "lambda1", "upper", reason, **params))
    rel = (ep if bp >= bm else em) / b if b > 0 else 0.0
    budget = {"quad_err": rel * (1.0 / (4.0 * b) + 2.0 / b), "opt_gap": 0.0, "truncation": 0.0}
    notes = tuple(dict.fromkeys(notes_p + notes_m))
    return (BoundReport("muckenhoupt", "lambda1", "lower", 1.0 / (4.0 * b), params, budget, notes),
            BoundReport("muckenhoupt", "lambda1", "upper", 2.0 / b, params, budget, notes))


def muckenhoupt_power_formula(alpha: float) -> float:
    """Closed-form relaxation of 1/(4B) for the measure exp(-|x|^alpha)."""
    if alpha <= 0:
        raise BoundError("alpha must be positive")
    return 1.0 / (4.0 * alpha ** (2.0 / alpha) * math.gamma(1.0 + 1.0 / alpha) ** 2)


def veysseire_power_formula(alpha: float) -> float:
    """Closed form of the integrated bound for exp(-|x|^alpha), 1 < alpha < 3."""
    if not 1.0 < alpha < 3.0:
        raise BoundError(f"closed form requires 1 < alpha < 3, got {alpha}")
    return ((alpha - 1.0) * alpha ** (1.0 - 2.0 / alpha)
            * math.gamma(1.0 / alpha) / math.gamma((3.0 - alpha) / alpha))


def power_crossover(lo: float = 1.01, hi: float = 1.5, tol: float = 1e-10) -> float:
    """alpha where the integrated bound overtakes the Muckenhoupt relaxation."""
    f = lambda a: veysseire_power_formula(a) - muckenhoupt_power_formula(a)
    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        raise BoundError(f"no sign change of the difference on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


# ---- Brascamp-Lieb variance bound ---------------------------------------


@dataclass(frozen=True)
class BLBound:
    bound: float
    variance: float
    slack: float
    min_rate: float


def brascamp_lieb_var_bound(
    m: md.DiffusionModel, d: md.DualModel, f, cfg: OptConfig | None = None
) -> BLBound:
    """Var_mu(f) <= mu(sigma^2 (f')^2 / V_a), valid when V_a > 0.

    Positivity is checked pointwise on the working grid; the rate may still
    decay to zero in the tails (the weighted-gradient integral then simply
    carries the growing factor 1/V_a).
    """
    cfg = cfg or OptConfig()
    _, vals, _ = _scan_rate(d, cfg.R, _SCAN_POINTS,
                            "killing rate is not defined on the working grid (x = {bad:.6g})")
    vmin = float(np.min(vals))
    if not vmin > 1e-12:
        raise BoundError(f"positive killing rate required (min V_a = {vmin:.6g})")
    f = md._parse_or_expr(f, "test function")
    df = ex.simplify(ex.differentiate(f))
    # (sigma f')^2 / V_a with the weight's parameters bound, so that f's own
    # stay unbound
    integrand = ex.div(ex.pow_(ex.mul(m.sigma, df), 2), ex.substitute(d.v_expr, d.params))
    qc = cfg.quad_cfg()
    anchor = m.anchor
    with np.errstate(all="ignore"):
        bound = q.mu_expectation(m, integrand, qc, breakpoints=(anchor,))
        mean = q.mu_expectation(m, f, qc, breakpoints=(anchor,))
        second = q.mu_expectation(m, ex.mul(f, f), qc, breakpoints=(anchor,))
    var = second - mean * mean
    return BLBound(bound=bound, variance=var, slack=bound - var, min_rate=vmin)


# ---- Rayleigh-quotient upper bound --------------------------------------


def _rayleigh_quotient(m: md.DiffusionModel, fam: ex.Expr, names: list[str], qc: q.QuadConfig):
    """The quotient E(f,f)/Var(f) and its quadrature error as a function of
    the trial family's parameters ``names``, in that order.  The family and
    its derivative are derived once with the parameters free and evaluated
    at each theta.

    Each integral continues from the carried (coarsened) panels of its own
    integral at the previously evaluated theta; only the first starts cold.
    A warm start that ends unconverged at max_subdivisions, which carried
    panels count against and can fill, is redone cold, and later calls
    continue from that; one that stops short of the budget is kept.
    Values therefore depend on the order of the calls."""
    f = ex.simplify(fam)
    df = ex.simplify(ex.differentiate(f))
    # the integrands (sigma f')^2, f and f^2, each bound to theta's params
    integrands = (ex.pow_(ex.mul(m.sigma, df), 2), f, ex.mul(f, f))
    anchor = m.anchor
    z = m.normalization(qc)
    cold = (anchor,)
    starts = [cold, cold, cold]

    def mu_integral(i, p):
        g = integrands[i]
        r = q._mu_integral(m, g, qc, breakpoints=starts[i], params=p)
        if not r.converged and r.subdivisions >= qc.max_subdivisions and starts[i] is not cold:
            r = q._mu_integral(m, g, qc, breakpoints=cold, params=p)
        starts[i] = (anchor, *r.carry)
        return r

    def quotient(theta):
        p = dict(zip(names, theta))
        try:
            with np.errstate(all="ignore"):
                num, mean, second = (mu_integral(i, p) for i in range(3))
        except q.QuadError:
            return math.inf, math.inf
        # normalized moments: the unnormalized mean squared can overflow
        mean_n, second_n = mean.value / z, second.value / z
        var = second_n - mean_n * mean_n
        if not (math.isfinite(num.value) and math.isfinite(var)):
            return math.inf, math.inf
        if var <= 1e-13 * abs(second_n):
            return math.inf, math.inf
        val = num.value / z / var
        err = (num.err_est + val * (second.err_est + 2.0 * abs(mean_n) * mean.err_est)) / z / var
        return val, err

    return quotient


def rayleigh_upper(
    m: md.DiffusionModel, f_family, opt_cfg: OptConfig | None = None
) -> BoundReport:
    """Upper bound lambda1 <= min over the family of E(f,f)/Var(f)."""
    cfg = opt_cfg or OptConfig()
    fam = md._parse_or_expr(f_family, "trial family")
    names = _family_params(fam, "trial family")
    # one sweep: grid, then Nelder-Mead, then theta*
    quotient = _rayleigh_quotient(m, fam, names, cfg.quad_cfg())
    found = _minimize_box(names, cfg, lambda theta: quotient(theta)[0])
    if found is None:
        return _infeasible("rayleigh", "lambda1", "upper",
                           "every family member is degenerate (zero variance)")
    theta_star, val_star, start = found
    _, err_star = quotient(theta_star)
    return BoundReport(
        method="rayleigh",
        target="lambda1",
        side="upper",
        value=val_star,
        params=dict(zip(names, (float(tv) for tv in theta_star))),
        error_budget={"quad_err": err_star, "opt_gap": start - val_star,
                      "truncation": 0.0},
    )


# ---- monotone-weight log-Sobolev bound ----------------------------------


def _monotone_class(d: md.DualModel, R: float | None, n: int = 801):
    """Direction of sigma/a on the grid: 'inc', 'dec', 'const', or None."""
    lo, hi, _ = _scan_window(d, R)
    xs = np.linspace(lo, hi, n + (n % 2))
    with np.errstate(all="ignore"):
        logs = np.asarray(np.log(np.asarray(d.base.sigma_fn(xs), dtype=float))
                          - np.asarray(d.log_weight(xs), dtype=float))
    if not np.all(np.isfinite(logs)):
        return None, (math.nan, math.nan)
    dlog = np.diff(logs)
    scale = max(1e-300, float(np.max(np.abs(logs)) ))
    tol = 1e-10 * max(1.0, scale)
    up, down = bool(np.any(dlog > tol)), bool(np.any(dlog < -tol))
    # ratio range of a/sigma after anchoring the free scale at the center
    mid = len(logs) // 2
    rel = -(logs - logs[mid])
    ratio = (float(np.exp(np.min(rel))), float(np.exp(np.max(rel))))
    if up and down:
        return None, ratio
    if not up and not down:
        return "const", ratio
    return ("dec" if down else "inc"), ratio


def _symmetric_measure(m: md.DiffusionModel, med: float) -> bool:
    """h(med + t) = h(med - t) for t up to 10, compared as log-densities: a
    density compared directly goes subnormal in the tails and loses its
    relative precision."""
    ts = np.geomspace(1e-3, 10.0, 120)
    with np.errstate(all="ignore"):
        lp = np.asarray(m.log_density(med + ts), dtype=float)
        lm = np.asarray(m.log_density(med - ts), dtype=float)
    ok = lp > -math.inf
    return bool(np.all(np.abs(lp[ok] - lm[ok]) <= 1e-9 * np.maximum(1.0, np.abs(lp[ok]))))


def lsi_lower(
    m: md.DiffusionModel,
    inc_family: md.WeightSpec | None = None,
    dec_family: md.WeightSpec | None = None,
    opt_cfg: OptConfig | None = None,
) -> BoundReport:
    """Log-Sobolev lower bound 2 min over the two monotone weight classes.

    Each family must realize sigma/a monotone in the stated direction
    (constant qualifies for both).  For a symmetric measure one class
    determines the other by reflection, so a single family suffices.
    """
    cfg = opt_cfg or OptConfig()
    if inc_family is None and dec_family is None:
        raise BoundError("at least one weight family is required")
    med = q.median(m, cfg.quad_cfg())
    symmetric = _symmetric_measure(m, med)

    sups: dict[str, _RhoOpt] = {}
    notes: list[str] = []
    for label, fam in (("inc", inc_family), ("dec", dec_family)):
        if fam is None:
            continue

        def admissible(d, _label=label):
            cls, _ = _monotone_class(d, cfg.R)
            return cls in (_label, "const")

        res = _maximize_rho(m, fam, cfg, admissible=admissible)
        if res is None:
            return _infeasible(
                "lsi_monotone", "cls", "lower",
                f"no admissible weight in the {label} class (monotonicity of sigma/a violated or rho unbounded below)")
        sups[label] = res
        _, ratio = _monotone_class(res.dual, cfg.R)
        notes.append(f"{label}: sigma/a ratio range [{ratio[0]:.3g}, {ratio[1]:.3g}] about the center")
        if ratio[0] < 1e-6 or ratio[1] > 1e6:
            notes.append(f"{label}: a and sigma are not uniformly comparable on the scan window")

    if len(sups) == 1:
        if not symmetric:
            return _infeasible("lsi_monotone", "cls", "lower",
                               "both monotone classes are required for an asymmetric measure")
        only = next(iter(sups))
        other = "dec" if only == "inc" else "inc"
        sups[other] = sups[only]
        notes.append("symmetric measure: the mirrored family covers the other class")

    val = 2.0 * min(sups["inc"].rho, sups["dec"].rho)
    if val <= 0.0:
        return _infeasible("lsi_monotone", "cls", "lower",
                           f"best class infimum is not positive (value {val:.6g})")
    params = {}
    for label, res in sups.items():
        params[f"rho_{label}"] = res.rho
        for k, v in res.params.items():
            params[f"{k}_{label}"] = v
    opt_gap = 2.0 * max(res.opt_gap for res in sups.values())
    return BoundReport(
        method="lsi_monotone",
        target="cls",
        side="lower",
        value=val,
        params=params,
        error_budget={"quad_err": 0.0, "opt_gap": opt_gap, "truncation": 0.0},
        notes=tuple(notes),
    )


# ---- report assembly ----------------------------------------------------


def assemble_report(m: md.DiffusionModel, reports, oracle=None) -> dict:
    """Merge bound reports into brackets per target and flag violations,
    also against ``oracle``, the FD reference ``GapEstimate``, when given."""
    reports = list(reports)
    doc: dict = {"model": m.name, "targets": {}, "violations": []}
    if oracle is not None:
        o_val, o_err = oracle.value, oracle.err_est
        doc["oracle"] = {"lambda1": o_val, "err_est": o_err}
    for target in ("lambda1", "cls"):
        rs = [r for r in reports if r.target == target]
        if not rs:
            continue
        feas = [r for r in rs if r.feasible]
        lowers = [r for r in feas if r.side == "lower"]
        uppers = [r for r in feas if r.side == "upper"]
        best_lo = max(lowers, key=lambda r: r.value) if lowers else None
        best_hi = min(uppers, key=lambda r: r.value) if uppers else None
        entry = {
            "lower": best_lo.value if best_lo else None,
            "upper": best_hi.value if best_hi else None,
            "bracket": ([best_lo.value, best_hi.value]
                        if best_lo and best_hi else None),
            "methods": [r.as_dict() for r in rs],
        }
        if target == "cls" and oracle is not None:
            # C_LS <= 2 lambda1 closes the bracket from above
            cap = 2.0 * (o_val + o_err)
            if entry["upper"] is None or cap < entry["upper"]:
                entry["upper"] = cap
                entry["bracket"] = ([entry["lower"], cap]
                                    if entry["lower"] is not None else None)
                entry["upper_source"] = "twice the reference eigenvalue"
        doc["targets"][target] = entry
        if best_lo and best_hi and best_lo.value > best_hi.value + (
                best_lo.budget_total + best_hi.budget_total):
            doc["violations"].append(
                f"{target}: lower {best_lo.value:.6g} ({best_lo.method}) exceeds "
                f"upper {best_hi.value:.6g} ({best_hi.method}) beyond budgets")
        if oracle is not None and target == "lambda1":
            for r in lowers:
                if r.value > o_val + o_err + r.budget_total:
                    doc["violations"].append(
                        f"lambda1: lower bound {r.value:.6g} ({r.method}) exceeds "
                        f"the reference eigenvalue {o_val:.6g}")
            for r in uppers:
                if r.value < o_val - o_err - r.budget_total:
                    doc["violations"].append(
                        f"lambda1: upper bound {r.value:.6g} ({r.method}) undercuts "
                        f"the reference eigenvalue {o_val:.6g}")
        if oracle is not None and target == "cls":
            for r in lowers:
                if r.value > 2.0 * (o_val + o_err) + r.budget_total:
                    doc["violations"].append(
                        f"cls: lower bound {r.value:.6g} ({r.method}) exceeds twice "
                        f"the reference eigenvalue")
    return doc
