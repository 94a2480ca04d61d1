"""Diffusion models on the line or an interval, and their weighted duals.

A model is the operator

    L f = sigma^2 f'' + b f'

acting on functions of one variable, together with its reversible measure

    d mu = h dx / Z,     h = e^{-U} / sigma^2,     U' = -b / sigma^2.

The corresponding SDE is dX_t = sqrt(2) sigma(X_t) dB_t + b(X_t) dt.  A model
can be built either from (sigma, drift) or from (sigma, target potential
Utilde) with mu proportional to e^{-Utilde} dx, in which case
U = Utilde - 2 log sigma and b = 2 sigma sigma' - sigma^2 Utilde'.  U is
anchored to 0 at the origin (interval models anchor at the midpoint); the
normalization Z absorbs the constant.

A positive weight a = e^W turns the derivative flow into a Feynman-Kac
semigroup: the weighted derivative a f' of the diffusion evolves under the
dual generator

    L_a g = sigma^2 g'' + b_a g',    b_a = b + 2 sigma sigma' - 2 sigma^2 W',

killed at rate

    V_a = sigma^2 W'' - sigma^2 (W')^2 + (b + 2 sigma sigma') W' - b',

and inf V_a is a lower bound for the spectral gap (the Chen-Wang variational
principle; see the bounds module).  ``realize_weight`` accepts the weight in
several parametrizations, each of which reduces to W':

    direct:  a itself; W' = (log a)' by logarithmic differentiation, one
             factor of a at a time (valid because ``bind`` checks a > 0)
    exp_w:   a = e^W
    z_form:  sigma = 1 only; W' = Z - U'/2, so that
             V_a = Z' - Z^2 + U''/2 + (U')^2/4
    a_form:  W' = e^A (a automatically increasing), so that W'' = A' e^A

In every parametrization V_a and b_a are exact expressions; the weight's
pointwise values fall back to cumulative quadrature of W' when W has no
closed form (z_form with general Z, a_form), and so does U for a model
given by its drift.  Both use ``_antiderivative``: cumulative Simpson on the
working window [-24, 24] (or the interval), cubic Hermite interpolation
inside it with the exact slopes W' (or U') at the knots, and a linear
continuation outside.  The module imports no scipy.

A weight family (a payload with free parameters, such as z_form eps*x) is
derived once and bound per parameter point.  ``derive_weight`` does all the
symbolic work with the parameters left free and returns a ``WeightFamily``;
``WeightFamily.bind`` checks that every parameter is bound, checks a direct
weight on the probe grid, and returns a ``DualModel`` holding the family's
trees (weight_expr, log_weight_prime, v_expr, drift_expr) plus ``params``,
with which every evaluation binds them.  A search therefore compiles each
tree once.  The trees are not constant-folded at the point, so values can
differ from those of the substituted tree in the last bit, and a factor
that vanishes at the point still multiplies its partner: 0*log|x| is NaN at
x = 0 where the folded tree reads 0.  ``realize_weight`` is derive then bind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import expr as ex
from . import quad

__all__ = [
    "ModelError",
    "DiffusionModel",
    "DualModel",
    "WeightFamily",
    "WeightSpec",
    "build_model",
    "derive_weight",
    "realize_weight",
]

_WORK_R = 24.0  # half-width of the numeric working window for U and W
_WORK_N = 8193


class ModelError(Exception):
    """Invalid model or weight construction."""


def _parse_or_expr(obj, what: str) -> ex.Expr:
    if isinstance(obj, ex.Expr):
        return obj
    if isinstance(obj, str):
        try:
            return ex.parse(obj)
        except ex.ParseError as err:
            raise ModelError(f"cannot parse {what}: {err}") from err
    if isinstance(obj, (int, float)):
        return ex.const(float(obj))
    raise ModelError(f"{what} must be an expression or string, got {type(obj)!r}")


@dataclass(eq=False)
class DiffusionModel:
    """Operator sigma^2 f'' + b f' with reversible density e^{-U}/sigma^2."""

    sigma: ex.Expr
    drift: ex.Expr
    u_prime: ex.Expr
    u_expr: ex.Expr | None
    domain: tuple
    boundary: str
    params: dict
    tail_kind: str
    name: str = "model"
    _u_fn: Callable | None = field(default=None, repr=False)
    _z_cache: dict = field(default_factory=dict, repr=False)
    _grid: np.ndarray | None = field(default=None, repr=False)
    # h = e^{-U}/sigma^2 as one tree where U is one, else None
    density_expr: ex.Expr | None = field(init=False, repr=False)

    def __post_init__(self):
        self.density_expr = None if self.u_expr is None else _density_tree(self.sigma, self.u_expr)

    # ---- basic callables ------------------------------------------------

    @property
    def sigma_fn(self) -> Callable:
        return lambda x: ex.evaluate(self.sigma, x)

    @property
    def support(self) -> tuple[float, float]:
        if self.domain[0] == "line":
            return (-math.inf, math.inf)
        return self.domain[1]

    @property
    def anchor(self) -> float:
        if self.domain[0] == "line":
            return 0.0
        a, b = self.domain[1]
        return 0.5 * (a + b)

    def probe_grid(self) -> np.ndarray:
        """The model's one probe grid, made on first use: 2049 Chebyshev
        points on [-12, 12] on the line, 2049 even points on an interval."""
        if self._grid is None:
            if self.domain[0] == "line":
                self._grid = quad.chebyshev_grid(12.0, 2049)
            else:
                a, b = self.domain[1]
                self._grid = np.linspace(a, b, 2049)
        return self._grid

    def U(self, x):
        """Potential with U(anchor) = 0; exact expression when available,
        cumulative quadrature of U' otherwise (linear continuation outside
        the working window)."""
        if self.u_expr is not None:
            return ex.evaluate(self.u_expr, x)
        if self._u_fn is None:
            self._u_fn = _antiderivative(self.u_prime, self.domain, self.anchor)
        return self._u_fn(x)

    def density(self, x):
        """Unnormalized measure density h = e^{-U}/sigma^2 (IEEE semantics):
        ``density_expr`` where U is a tree, else U's antiderivative."""
        if self.density_expr is not None:
            return ex.evaluate(self.density_expr, x)
        xs = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            out = np.exp(-np.asarray(self.U(xs), dtype=float)) / ex.evaluate(self.sigma, xs) ** 2
        return float(out) if np.isscalar(x) else out

    def log_density(self, x):
        xs = np.asarray(x, dtype=float)
        out = -np.asarray(self.U(xs), dtype=float) - 2.0 * np.log(ex.evaluate(self.sigma, xs))
        return float(out) if np.isscalar(x) else out

    def normalization(self, cfg: quad.QuadConfig | None = None) -> float:
        return _normalization(self, self.anchor, "normalization", cfg)


def build_model(
    sigma="1",
    drift=None,
    target_potential=None,
    params: dict | None = None,
    domain="line",
    boundary: str | None = None,
    tail_kind: str | None = None,
    name: str = "model",
) -> DiffusionModel:
    """Construct a model from (sigma, drift) or (sigma, target_potential).

    Exactly one of drift / target_potential must be given.  Parameters
    appearing in the expressions must all be bound through ``params``.
    sigma must be strictly positive on the probe grid.
    """
    if (drift is None) == (target_potential is None):
        raise ModelError("give exactly one of drift or target_potential")
    params = dict(params or {})
    sig = ex.simplify(ex.substitute(_parse_or_expr(sigma, "sigma"), params))

    if isinstance(domain, str):
        if domain != "line":
            raise ModelError(f"unknown domain {domain!r}")
        dom = ("line",)
    else:
        a, b = float(domain[0]), float(domain[1])
        if not (math.isfinite(a) and math.isfinite(b) and a < b):
            raise ModelError(f"bad interval {domain!r}")
        dom = ("interval", (a, b))
    if boundary is None:
        boundary = "neumann" if dom[0] == "interval" else "none"
    if boundary not in ("neumann", "dirichlet", "none"):
        raise ModelError(f"unknown boundary {boundary!r}")
    if dom[0] == "line" and boundary != "none":
        raise ModelError("boundary conditions only apply to interval domains")

    dsig = ex.simplify(ex.differentiate(sig))
    if target_potential is not None:
        ut = ex.simplify(ex.substitute(_parse_or_expr(target_potential, "target_potential"), params))
        _check_bound(ut, "target_potential")
        _check_bound(sig, "sigma")
        # U = Utilde - 2 log sigma, anchored to 0; b = 2 sigma sigma' - sigma^2 Utilde'
        u_raw = ex.add(ut, ex.neg(ex.mul(ex.const(2.0), ex.log(sig))))
        anchor = 0.0 if dom[0] == "line" else 0.5 * (dom[1][0] + dom[1][1])
        shift = ex.evaluate(u_raw, anchor)
        if not math.isfinite(shift):
            raise ModelError(f"target potential not finite at the anchor x = {anchor}")
        u_exprs = ex.simplify(ex.add(u_raw, ex.const(-shift)))
        b = ex.simplify(
            ex.add(
                ex.mul(ex.const(2.0), sig, dsig),
                ex.neg(ex.mul(sig, sig, ex.simplify(ex.differentiate(ut)))),
            )
        )
        u_prime = ex.simplify(ex.differentiate(u_exprs))
    else:
        b = ex.simplify(ex.substitute(_parse_or_expr(drift, "drift"), params))
        _check_bound(b, "drift")
        _check_bound(sig, "sigma")
        u_exprs = None
        u_prime = ex.simplify(ex.div(ex.neg(b), ex.mul(sig, sig)))

    m = DiffusionModel(
        sigma=sig,
        drift=b,
        u_prime=u_prime,
        u_expr=u_exprs,
        domain=dom,
        boundary=boundary,
        params=params,
        tail_kind=tail_kind or "unset",
        name=name,
    )
    grid = m.probe_grid()
    sigvals = ex.evaluate(sig, grid)
    if not np.all(np.isfinite(sigvals)) or np.min(sigvals) <= 0:
        bad = grid[int(np.argmin(sigvals))]
        raise ModelError(f"sigma must be strictly positive (sigma({bad:.6g}) = {np.min(sigvals):.3g})")
    if tail_kind is None:
        m.tail_kind = _classify_tails(m)
    elif tail_kind not in ("exponential", "polynomial"):
        raise ModelError(f"unknown tail_kind {tail_kind!r}")
    else:
        m.tail_kind = tail_kind
    hvals = m.density(grid)
    if not np.all(np.isfinite(hvals)):
        bad = grid[~np.isfinite(hvals)][0]
        raise ModelError(f"measure density not finite at probe point x = {bad:.6g}")
    return m


def _density_tree(sigma: ex.Expr, u: ex.Expr) -> ex.Expr:
    """exp(-U)/sigma^2 with the operations of ``np.exp(-U) / sigma ** 2``,
    whose ``** 2`` numpy computes as a square, so the tree's product
    sigma*sigma gives the same bits on arrays; exp(-U) alone where sigma is
    the constant 1, which only divides by 1."""
    h = ex.exp(ex.neg(u))
    if sigma.op == "const" and sigma.value == 1.0:
        return h
    return ex.div(h, ex.pow_(sigma, 2))


def _check_bound(e: ex.Expr, what: str) -> None:
    missing = ex.free_params(e)
    if missing:
        raise ModelError(f"{what} has unbound parameters {sorted(missing)!r}")


def _classify_tails(m: DiffusionModel) -> str:
    """Rough tail class from x U'(x) at the working edge: bounded growth of
    U on a log scale means polynomial tails (Cauchy-type)."""
    if m.domain[0] == "interval":
        return "exponential"  # compact support; truncation is exact
    R = 12.0
    try:
        t = max(abs(ex.evaluate(m.u_prime, R) * R), abs(ex.evaluate(m.u_prime, -R) * R))
    except ex.EvalError:
        return "exponential"
    if not math.isfinite(t):
        return "exponential"
    return "polynomial" if t < 20.0 else "exponential"


# ---- weights and duals --------------------------------------------------


@dataclass(frozen=True)
class WeightSpec:
    """Parametrization of a positive weight a (see module docstring)."""

    kind: str  # 'direct' | 'exp_w' | 'z_form' | 'a_form'
    payload: ex.Expr

    @staticmethod
    def direct(a) -> "WeightSpec":
        return WeightSpec("direct", _parse_or_expr(a, "weight"))

    @staticmethod
    def exp_w(w) -> "WeightSpec":
        return WeightSpec("exp_w", _parse_or_expr(w, "log-weight W"))

    @staticmethod
    def z_form(z) -> "WeightSpec":
        return WeightSpec("z_form", _parse_or_expr(z, "Z"))

    @staticmethod
    def a_form(a_exponent) -> "WeightSpec":
        return WeightSpec("a_form", _parse_or_expr(a_exponent, "A"))


@dataclass(eq=False)
class WeightFamily:
    """A weight family derived once, with its parameters left free in every
    tree (see ``derive_weight``); ``bind`` fixes them at one point."""

    base: DiffusionModel
    kind: str
    free: frozenset  # parameter names the trees still carry
    weight_expr: ex.Expr | None
    log_weight_prime: ex.Expr
    v_expr: ex.Expr
    drift_expr: ex.Expr

    def bind(self, params: dict | None = None) -> "DualModel":
        """The dual at one parameter point.  Every free parameter must be
        bound; a direct weight must be positive and finite on the probe grid
        there (values beyond 1e300 or below 1e-300 count as degenerate)."""
        params = dict(params or {})
        missing = self.free - params.keys()
        if missing:
            raise ModelError(f"{self.kind} weight payload has unbound parameters {sorted(missing)!r}")
        if self.kind == "direct":
            g = self.base.probe_grid()
            with np.errstate(all="ignore"):
                avals = ex.evaluate(self.weight_expr, g, params)
            if not np.all(np.isfinite(avals)) or np.min(avals) <= 0:
                bad = g[int(np.argmin(avals))]
                raise ModelError(f"weight must be positive and finite on the probe grid (a({bad:.6g}) = {np.min(avals):.3g})")
            if np.max(avals) > 1e300 or np.min(avals) < 1e-300:
                raise ModelError("weight is degenerate on the probe grid (|a| beyond 1e+-300)")
        return DualModel(**{f.name: getattr(self, f.name) for f in fields(WeightFamily)},
                         params=params)


@dataclass(eq=False)
class DualModel(WeightFamily):
    """The weighted-derivative dual of a model at one point of a weight
    family: same sigma, drift b_a, killing rate V_a, invariant density
    e^{-U}/a^2 (up to normalization).  The trees are the family's, free
    parameters included; every evaluation binds them with ``params``."""

    params: dict = field(default_factory=dict)
    _log_a0: float | None = field(default=None, repr=False)
    _w_fn: Callable | None = field(default=None, repr=False)
    _z_cache: dict = field(default_factory=dict, repr=False)

    @property
    def sigma(self) -> ex.Expr:
        return self.base.sigma

    @property
    def sigma_fn(self):
        return self.base.sigma_fn

    @property
    def support(self):
        return self.base.support

    @property
    def tail_kind(self):
        return self.base.tail_kind

    def probe_grid(self) -> np.ndarray:
        return self.base.probe_grid()

    def v_fn(self, x):
        return ex.evaluate(self.v_expr, x, self.params)

    def log_weight(self, x):
        """W(x) = log a(x), anchored to W = 0 at the base anchor."""
        if self.weight_expr is not None:
            if self._log_a0 is None:
                self._log_a0 = math.log(ex.evaluate(self.weight_expr, self.base.anchor, self.params))
            return np.log(ex.evaluate(self.weight_expr, x, self.params)) - self._log_a0
        if self._w_fn is None:
            self._w_fn = _antiderivative(self.log_weight_prime, self.base.domain,
                                         self.base.anchor, self.params)
        return self._w_fn(x)

    def weight_fn(self, x):
        """a(x), normalized to a(anchor) = 1 when realized numerically."""
        if self.weight_expr is not None:
            return ex.evaluate(self.weight_expr, x, self.params)
        out = np.exp(self.log_weight(x))
        return out

    def log_density(self, x):
        xs = np.asarray(x, dtype=float)
        out = -np.asarray(self.base.U(xs), dtype=float) - 2.0 * np.asarray(self.log_weight(xs), dtype=float)
        return float(out) if np.isscalar(x) else out

    def density(self, x):
        """Unnormalized dual measure density e^{-U}/a^2 = (sigma/a)^2 h."""
        xs = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            out = np.exp(self.log_density(xs))
        return float(out) if np.isscalar(x) else out

    def normalization(self, cfg: quad.QuadConfig | None = None) -> float:
        return _normalization(self, self.base.anchor, "dual normalization", cfg)


def _antiderivative(fp: ex.Expr, domain: tuple, anchor: float, params: dict | None = None) -> Callable:
    """F with F' = fp (its parameters bound by ``params``) and F(anchor) = 0,
    as a callable on floats or arrays.

    Cumulative Simpson on _WORK_N points of the working window (the interval
    itself for interval domains), cubic Hermite interpolation inside it with
    the exact slopes fp at the knots, and the tangent line at each edge
    outside it.  F is exact at the knots and F' continuous across them.
    """
    lo, hi = (-_WORK_R, _WORK_R) if domain[0] == "line" else domain[1]
    grid = np.linspace(lo, hi, _WORK_N)
    fn = lambda x: ex.evaluate(fp, x, params)
    vals = quad.cumulative_on_grid(fn, grid)
    vals = vals - np.interp(anchor, grid, vals)
    slopes = np.asarray(fn(grid), dtype=float)
    # F = vals[i] + s (slopes[i] + s (c2[i] + s c3[i])) on [grid[i], grid[i+1]],
    # s = x - grid[i]; the zero cubic past the last knot keeps F(hi) exact
    h = np.diff(grid)
    chord = np.diff(vals) / h
    c2 = np.append((3.0 * chord - 2.0 * slopes[:-1] - slopes[1:]) / h, 0.0)
    c3 = np.append((slopes[:-1] + slopes[1:] - 2.0 * chord) / (h * h), 0.0)

    def antiderivative(x):
        xs = np.asarray(x, dtype=float)
        xc = np.clip(xs, lo, hi)
        i = np.searchsorted(grid, xc, side="right") - 1  # grid[i] <= xc
        s = xc - grid[i]
        out = vals[i] + s * (slopes[i] + s * (c2[i] + s * c3[i]))
        out = np.where(xs > hi, vals[-1] + slopes[-1] * (xs - hi), out)
        out = np.where(xs < lo, vals[0] + slopes[0] * (xs - lo), out)
        return float(out) if np.isscalar(x) else out

    return antiderivative


def _normalization(m, anchor: float, what: str, cfg: quad.QuadConfig | None) -> float:
    """Z = integral of m.density over the support, split at the anchor and
    cached in m._z_cache under the (frozen) quadrature config."""
    cfg = cfg or quad.QuadConfig()
    if cfg not in m._z_cache:
        lo, hi = m.support
        r = quad.integrate(m.density, lo, hi, cfg, breakpoints=(anchor,))
        if not r.converged:
            raise ModelError(
                f"{what} did not converge (err {r.err_est:.3g} after {r.subdivisions} segments)"
            )
        m._z_cache[cfg] = r.value
    return m._z_cache[cfg]


def _v_from_w(m: DiffusionModel, wp: ex.Expr, wpp: ex.Expr) -> ex.Expr:
    """V_a in terms of W' and W'' (a = e^W):
    V = sigma^2 W'' - sigma^2 (W')^2 + (b + 2 sigma sigma') W' - b'."""
    sig, b = m.sigma, m.drift
    dsig = ex.simplify(ex.differentiate(sig))
    db = ex.simplify(ex.differentiate(b))
    sig2 = ex.mul(sig, sig)
    v = ex.add(
        ex.mul(sig2, wpp),
        ex.neg(ex.mul(sig2, wp, wp)),
        ex.mul(ex.add(b, ex.mul(ex.const(2.0), sig, dsig)), wp),
        ex.neg(db),
    )
    return ex.simplify(v)


def _dual_drift(m: DiffusionModel, wp: ex.Expr) -> ex.Expr:
    sig, b = m.sigma, m.drift
    dsig = ex.simplify(ex.differentiate(sig))
    return ex.simplify(
        ex.add(
            b,
            ex.mul(ex.const(2.0), sig, dsig),
            ex.neg(ex.mul(ex.const(2.0), sig, sig, wp)),
        )
    )


def _sigma_is_one(m: DiffusionModel) -> bool:
    """sigma within 1e-12 of 1 on the probe grid: z_form weights and the
    Muckenhoupt criterion need it."""
    return bool(np.all(np.abs(ex.evaluate(m.sigma, m.probe_grid()) - 1.0) <= 1e-12))


def _log_derivative(a: ex.Expr) -> ex.Expr:
    """W' = (log a)' one factor at a time: exp(u) gives u', u^c gives c
    times u's, a product or quotient the sum or difference of its factors',
    neg and abs their argument's, a constant or parameter 0, and any other
    node u the quotient u'/u.  Each rule is the derivative of log|node|, so
    W' is exact wherever a is positive and finite, which is what
    ``WeightFamily.bind`` checks; a never divides itself."""
    op = a.op
    if op in ("const", "param"):
        return ex.const(0.0)
    if op == "exp":
        return ex.differentiate(a.args[0])
    if op == "pow":
        return ex.mul(ex.const(a.value), _log_derivative(a.args[0]))
    if op == "mul":
        return ex.add(*[_log_derivative(f) for f in a.args])
    if op == "div":
        return ex.add(_log_derivative(a.args[0]), ex.neg(_log_derivative(a.args[1])))
    if op in ("neg", "abs"):
        return _log_derivative(a.args[0])
    return ex.div(ex.differentiate(a), a)


def derive_weight(m: DiffusionModel, spec: WeightSpec) -> WeightFamily:
    """Derive V_a, b_a and, where it has a closed form, the weight of a
    family, all with the family's parameters left free.  This is the
    symbolic half of ``realize_weight``; a parameter search runs it once and
    binds each point with ``WeightFamily.bind``.

    Every kind reduces to W' = (log a)'; V_a then comes from W' and W'',
    except for z_form, whose closed form avoids a cancellation."""
    payload = ex.simplify(spec.payload)
    v = wpp = None
    if spec.kind == "direct":
        weight_expr, wp = payload, ex.simplify(_log_derivative(payload))
    elif spec.kind == "exp_w":
        weight_expr, wp = ex.exp(payload), ex.simplify(ex.differentiate(payload))
    elif spec.kind == "z_form":
        if not _sigma_is_one(m):
            raise ModelError("z_form weights require sigma = 1")
        z = payload
        dz = ex.simplify(ex.differentiate(z))
        up = m.u_prime
        upp = ex.simplify(ex.differentiate(up))
        wp = ex.simplify(ex.add(z, ex.neg(ex.mul(ex.const(0.5), up))))
        # V = Z' - Z^2 + U''/2 + (U')^2/4
        v = ex.simplify(
            ex.add(
                dz,
                ex.neg(ex.mul(z, z)),
                ex.mul(ex.const(0.5), upp),
                ex.mul(ex.const(0.25), up, up),
            )
        )
        weight_expr = None
        if m.u_expr is not None:
            zint = _symbolic_linear_integral(z)
            if zint is not None:
                weight_expr = ex.simplify(
                    ex.exp(ex.add(zint, ex.neg(ex.mul(ex.const(0.5), m.u_expr))))
                )
    elif spec.kind == "a_form":
        # W' = e^A, W'' = A' e^A
        weight_expr, wp = None, ex.exp(payload)
        wpp = ex.simplify(ex.mul(ex.simplify(ex.differentiate(payload)), wp))
    else:
        raise ModelError(f"unknown weight kind {spec.kind!r}")
    if v is None:
        if wpp is None:
            wpp = ex.simplify(ex.differentiate(wp))
        v = _v_from_w(m, wp, wpp)
    return WeightFamily(
        base=m, kind=spec.kind, free=frozenset(ex.free_params(payload)),
        weight_expr=weight_expr, log_weight_prime=wp, v_expr=v, drift_expr=_dual_drift(m, wp),
    )


def realize_weight(m: DiffusionModel, spec: WeightSpec, params: dict | None = None) -> DualModel:
    """Build the dual model for a weight given in any supported form: the
    family derived by ``derive_weight``, bound at ``params``.

    All parameters in the weight payload must be bound.  direct weights must
    be strictly positive and finite on the probe grid (values beyond 1e300 or
    below 1e-300 are treated as degenerate).
    """
    return derive_weight(m, spec).bind(params)


def _symbolic_linear_integral(z: ex.Expr) -> ex.Expr | None:
    """Antiderivative for the simple shapes c*x and c, with c a constant or
    a parameter; None otherwise.

    Only used to keep a closed-form weight expression for the common linear
    Z; every computation path works without it.
    """
    s = ex.simplify(z)
    if s.op in ("const", "param"):
        return ex.mul(s, ex.X)
    if s == ex.X:
        return ex.mul(ex.const(0.5), ex.X, ex.X)
    if s.op == "mul" and len(s.args) == 2 and s.args[1] == ex.X:
        c = s.args[0]
        if c.op == "const":
            return ex.mul(ex.const(0.5 * c.value), ex.X, ex.X)
        if c.op == "param":
            return ex.mul(ex.const(0.5), c, ex.X, ex.X)
    return None
