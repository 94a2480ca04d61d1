"""Finite-difference eigenvalue reference and exact interval heat kernels.

This module is the independent ground truth the bound machinery is tested
against, so it leans on as little shared code as possible: the operator is
discretized in divergence form (assembled in log space so that densities far
below floating range still produce finite matrix entries), eigenvalues come
from bisection on Sturm sequence counts written out by hand, and grid
halving plus a truncation sensitivity run turn the raw eigenvalue into an
estimate with an explicit error budget.  scipy contributes only banded
linear solves and the full tridiagonal eigendecomposition used for heat
evolution; the test suite cross-checks the hand-rolled eigensolver against
scipy's.

On the unit interval with constant diffusion the reflected and absorbed
heat kernels are available in closed form as image sums, which gives a
discretization-free second route to the same semigroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator
from scipy.linalg import eigh_tridiagonal, solve_banded

from . import expr as ex
from . import quad

__all__ = [
    "OracleError",
    "DiscreteOperator",
    "discretize",
    "sturm_count",
    "kth_smallest_eigenvalue",
    "smallest_eigenvalues",
    "eigenvector",
    "GapEstimate",
    "spectral_gap_fd",
    "EigvecWeight",
    "eigvec_weight",
    "heat_kernel",
    "kernel_apply",
    "heat_evolve_fd",
]


class OracleError(Exception):
    """Discretization or eigenvalue computation failed."""


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetric tridiagonal form of -(generator) on a uniform grid.

    The generator sigma^2 f'' + b f' is self-adjoint for the measure with
    density h; conjugating the divergence-form finite-difference matrix by
    h^{1/2} makes it symmetric.  diag/offdiag hold that symmetric matrix;
    log_weights holds log h at the nodes (unnormalized) so eigenvectors can
    be mapped back to functions.
    """

    grid: np.ndarray
    dx: float
    diag: np.ndarray
    offdiag: np.ndarray
    boundary: str
    log_weights: np.ndarray


def _auto_radius(m) -> float:
    """Truncation radius for line models: where the measure density has
    dropped by 1e-14 relative to its peak, clipped to [8, 20]."""
    xs = np.linspace(-60.0, 60.0, 2401)
    with np.errstate(all="ignore"):
        logh = np.asarray(m.log_density(xs), dtype=float)
    peak = float(np.max(logh[np.isfinite(logh)]))
    drop = math.log(1e14)
    need = 8.0
    for side in (xs >= 0, xs <= 0):
        sx, sl = xs[side], logh[side]
        order = np.argsort(np.abs(sx))
        sx, sl = sx[order], sl[order]
        below = sl < peak - drop
        # first radius past which the density stays below threshold
        idx = len(sx)
        for i in range(len(sx) - 1, -1, -1):
            if not below[i]:
                idx = i + 1
                break
        r = abs(sx[idx]) if idx < len(sx) else 60.0
        need = max(need, r)
    return min(need, 20.0)


def discretize(m, R: float | None = None, n: int = 4096,
               boundary: str | None = None,
               potential: Callable | None = None) -> DiscreteOperator:
    """Divergence-form discretization of the diffusion part of m.

    Line models are truncated at +-R (auto-chosen from the density decay
    when R is None) with reflecting ends; interval models use their own
    domain and boundary condition.  An optional killing rate enters the
    diagonal after symmetrization.
    """
    if m.support[0] == -math.inf:
        R = R if R is not None else _auto_radius(m)
        lo, hi = -float(R), float(R)
        bc = boundary or "neumann"
    else:
        lo, hi = m.support
        bc = boundary or getattr(m, "boundary", "neumann")
    if bc not in ("neumann", "dirichlet"):
        raise OracleError(f"unsupported boundary {bc!r}")
    if n < 16:
        raise OracleError("grid too coarse")

    sig_fn = m.sigma_fn
    if bc == "neumann":
        # cell-centered grid: zero flux through the outer cell edges falls
        # out of the scheme, keeping the eigenvalue error at O(dx^2)
        dx = (hi - lo) / n
        grid = lo + dx * (np.arange(n) + 0.5)
        edges = lo + dx * np.arange(1, n)  # interior cell edges
    else:
        dx = (hi - lo) / (n + 1)
        grid = lo + dx * np.arange(1, n + 1)
        edges = lo + dx * (np.arange(n + 1) + 0.5)

    with np.errstate(all="ignore"):
        logh = np.asarray(m.log_density(grid), dtype=float)
        logc = 2.0 * np.log(np.asarray(sig_fn(edges), dtype=float)) \
            + np.asarray(m.log_density(edges), dtype=float)

    inv_dx2 = 1.0 / (dx * dx)
    diag = np.zeros(n)
    with np.errstate(all="ignore"):
        if bc == "neumann":
            diag[:-1] += np.exp(logc - logh[:-1])
            diag[1:] += np.exp(logc - logh[1:])
            off = -np.exp(logc - 0.5 * (logh[:-1] + logh[1:]))
        else:
            diag += np.exp(logc[:-1] - logh) + np.exp(logc[1:] - logh)
            off = -np.exp(logc[1:-1] - 0.5 * (logh[:-1] + logh[1:]))
    diag *= inv_dx2
    off = off * inv_dx2

    if potential is not None:
        diag = diag + np.asarray(potential(grid), dtype=float)

    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise OracleError(
            "discretization produced non-finite entries; the density varies "
            "too fast across a cell (reduce R or refine the grid)"
        )
    return DiscreteOperator(grid=grid, dx=dx, diag=diag, offdiag=off,
                            boundary=bc, log_weights=logh)


# ---- Sturm sequence eigenvalues -----------------------------------------


def _sturm_lists(diag, offdiag):
    """diag and the squared off-diagonal as lists of Python floats, the form
    the scalar recurrence of ``sturm_count`` runs fastest on."""
    off = np.asarray(offdiag, dtype=float)
    return np.asarray(diag, dtype=float).tolist(), (off * off).tolist()


def sturm_count(diag, offdiag, lam: float, *, offdiag_sq=None) -> int:
    """Number of eigenvalues strictly below lam, via the LDL^T sign count.

    ``offdiag_sq``, when given, is the list of squared off-diagonal entries
    and ``diag`` a list of floats (see ``_sturm_lists``); a caller that
    counts at many lam converts once instead of on every call.
    """
    if offdiag_sq is None:
        diag, offdiag_sq = _sturm_lists(diag, offdiag)
    d, e2 = diag, offdiag_sq
    count = 0
    q = d[0] - lam
    if q < 0.0:
        count += 1
    for i in range(1, len(d)):
        prev = q
        if prev == 0.0:
            prev = -1e-300
        q = d[i] - lam - e2[i - 1] / prev
        if q < 0.0:
            count += 1
    return count


def kth_smallest_eigenvalue(diag, offdiag, k: int, tol: float | None = None) -> float:
    """k-th smallest eigenvalue (k = 1 is the smallest) by bisection on the
    Sturm count.  The bracket grows geometrically from [-1, 1] rather than
    starting at the Gershgorin bound, whose huge magnitude for stiff
    operators would waste most bisection steps."""
    if k < 1 or k > len(diag):
        raise OracleError(f"eigenvalue index {k} out of range")
    d, e2 = _sturm_lists(diag, offdiag)

    def count(lam):
        return sturm_count(d, None, lam, offdiag_sq=e2)

    lo = -1.0
    while count(lo) >= k:
        lo *= 4.0
        if lo < -1e200:
            raise OracleError("eigenvalue bracket search diverged (low side)")
    hi = 1.0
    while count(hi) < k:
        hi *= 4.0
        if hi > 1e200:
            raise OracleError("eigenvalue bracket search diverged (high side)")
    tol = tol if tol is not None else 1e-13 * max(1.0, abs(hi), abs(lo))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if count(mid) >= k:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def smallest_eigenvalues(diag, offdiag, k: int = 2, tol: float | None = None):
    return [kth_smallest_eigenvalue(diag, offdiag, j, tol) for j in range(1, k + 1)]


def eigenvector(op: DiscreteOperator, lam: float, iters: int = 3) -> np.ndarray:
    """Unit eigenvector for the eigenvalue nearest lam, by inverse iteration
    with a banded solve.  For reflecting boundaries the constant direction
    (h^{1/2} after symmetrization) is projected out at every step."""
    n = len(op.diag)
    shift = lam + 1e-8 * max(1.0, abs(lam))
    ab = np.zeros((3, n))
    ab[0, 1:] = op.offdiag
    ab[1] = op.diag - shift
    ab[2, :-1] = op.offdiag

    ground = None
    if op.boundary == "neumann":
        logw = op.log_weights - np.max(op.log_weights)
        ground = np.exp(0.5 * logw)
        ground /= np.linalg.norm(ground)

    if ground is not None:
        v = (op.grid - np.mean(op.grid)) * ground
    else:
        v = np.ones(n)
    nv = np.linalg.norm(v)
    if nv == 0 or not np.isfinite(nv):
        v = np.ones(n)
        nv = np.linalg.norm(v)
    v /= nv
    for _ in range(iters):
        v = solve_banded((1, 1), ab, v)
        if ground is not None:
            v -= np.dot(ground, v) * ground
        nv = np.linalg.norm(v)
        if not np.isfinite(nv) or nv == 0:
            raise OracleError("inverse iteration degenerated")
        v /= nv
    if np.dot(v, op.grid) < 0:
        v = -v
    return v


# ---- gap estimation ------------------------------------------------------


@dataclass(frozen=True)
class GapEstimate:
    """Spectral gap with an explicit error budget.

    value is the grid-halving extrapolation of the coarse and fine
    eigenvalues; err_est adds the extrapolation residual and the shift
    observed when the truncation radius grows by a quarter (zero for
    interval models, whose domain is exact).
    """

    value: float
    err_est: float
    coarse: float
    fine: float
    truncation_gap: float
    R: float
    n: int
    boundary: str

    def __float__(self):
        return self.value


def _gap_of(op: DiscreteOperator) -> float:
    k = 1 if op.boundary == "dirichlet" else 2
    return kth_smallest_eigenvalue(op.diag, op.offdiag, k)


def spectral_gap_fd(m, R: float | None = None, n: int = 4096,
                    boundary: str | None = None) -> GapEstimate:
    """Spectral gap of m by finite differences on grids of n and 2n nodes.

    The reported value extrapolates the O(dx^2) eigenvalue error away; the
    error estimate combines the extrapolation residual with a truncation
    sensitivity run at radius 1.25 R (line models only) on a grid with the
    same spacing.
    """
    on_line = m.support[0] == -math.inf
    if on_line:
        R = R if R is not None else _auto_radius(m)
    lam_coarse = _gap_of(discretize(m, R, n, boundary))
    lam_fine = _gap_of(discretize(m, R, 2 * n, boundary))
    value = (4.0 * lam_fine - lam_coarse) / 3.0
    disc = abs(lam_fine - lam_coarse) / 3.0
    trunc = 0.0
    if on_line:
        # same spacing, wider window: isolates the truncation effect
        lam_wide = _gap_of(discretize(m, 1.25 * R, int(round(2.5 * n)), boundary))
        trunc = abs(lam_fine - lam_wide)
        r_used = float(R)
    else:
        lo, hi = m.support
        r_used = 0.5 * (hi - lo)
    bc = boundary or ("neumann" if on_line else getattr(m, "boundary", "neumann"))
    return GapEstimate(value=value, err_est=disc + trunc, coarse=lam_coarse,
                       fine=lam_fine, truncation_gap=trunc, R=r_used, n=n,
                       boundary=bc)


# ---- weight extraction from the eigenvector ------------------------------


@dataclass
class EigvecWeight:
    """Weight 1/g' rebuilt from the discrete first excited state g.

    The derivative of the eigenfunction satisfies the weighted-derivative
    dual eigenproblem, so a = 1/g' turns the dual killing rate into the
    constant lam; flatness records how far the reconstruction drifts from
    that constant over the central mass of the measure.
    """

    lam: float
    weight_fn: Callable[[np.ndarray], np.ndarray]
    v_fn: Callable[[np.ndarray], np.ndarray]
    bulk: tuple[float, float]
    flatness: float
    grid: np.ndarray


def eigvec_weight(m, R: float | None = None, n: int = 8192,
                  mass_fraction: float = 0.98) -> EigvecWeight:
    """Reconstruct the gap-optimal weight from the finite-difference
    eigenvector: differentiate the eigenfunction data (fourth-order
    stencil), interpolate the derivative monotonically, and report how flat
    the resulting killing rate is across the given central mass fraction."""
    op = discretize(m, R, n)
    if op.boundary != "neumann":
        raise OracleError("weight extraction applies to the ergodic flow")
    lam = _gap_of(op)
    psi = eigenvector(op, lam)

    logh = op.log_weights - np.max(op.log_weights)
    with np.errstate(all="ignore"):
        logg = np.where(psi != 0.0, np.log(np.abs(psi)) - 0.5 * logh, -np.inf)
    finite = np.isfinite(logg)
    if not np.any(finite):
        raise OracleError("eigenvector vanished everywhere")
    logg = logg - np.max(logg[finite])
    g = np.sign(psi) * np.exp(logg)

    dx = op.dx
    x = op.grid[2:-2]
    p = (g[:-4] - 8.0 * g[1:-3] + 8.0 * g[3:-1] - g[4:]) / (12.0 * dx)
    center = len(x) // 2
    if p[center] < 0:
        p = -p
        g = -g

    # maximal contiguous window around the center where the derivative data
    # is usable (finite, strictly positive): outside it the eigenvector has
    # underflowed and carries no information
    ok = np.isfinite(p) & (p > 0.0)
    if not ok[center]:
        raise OracleError("eigenfunction derivative not positive at the center")
    i_lo = center
    while i_lo > 0 and ok[i_lo - 1]:
        i_lo -= 1
    i_hi = center
    while i_hi < len(x) - 1 and ok[i_hi + 1]:
        i_hi += 1
    xb, pb = x[i_lo:i_hi + 1], p[i_lo:i_hi + 1]
    # two interpolants of the same data: the monotone one cannot overshoot
    # zero in the tails and serves the weight; the C^2 spline keeps its
    # second derivative accurate at the extremum of p and serves the
    # killing-rate reconstruction
    interp = PchipInterpolator(xb, pb, extrapolate=False)
    smooth = CubicSpline(xb, pb, extrapolate=False)
    d1 = smooth.derivative(1)
    d2 = smooth.derivative(2)

    sig_fn = m.sigma_fn
    dsig = ex.simplify(ex.differentiate(m.sigma))
    db = ex.simplify(ex.differentiate(m.drift))

    def weight_fn(xq):
        return 1.0 / np.abs(interp(xq))

    def v_fn(xq):
        xq = np.asarray(xq, dtype=float)
        s = np.asarray(sig_fn(xq), dtype=float)
        bp = np.asarray(m.drift_fn(xq), dtype=float) \
            + 2.0 * s * np.asarray(ex.evaluate(dsig, xq), dtype=float)
        return -(s * s * d2(xq) + bp * d1(xq)) / smooth(xq) \
            - np.asarray(ex.evaluate(db, xq), dtype=float)

    # flatness across the central mass of mu, sampled at the finite-volume
    # cell midpoints (the grid nodes)
    w = np.exp(logh)
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * dx)])
    cum /= cum[-1]
    lo_q = 0.5 * (1.0 - mass_fraction)
    x_lo = max(float(np.interp(lo_q, cum, op.grid)), xb[0])
    x_hi = min(float(np.interp(1.0 - lo_q, cum, op.grid)), xb[-1])
    mids = xb[(xb >= x_lo) & (xb <= x_hi)]
    if len(mids) == 0:
        raise OracleError("no usable window for the flatness check")
    vals = v_fn(mids)
    flat = float(np.max(np.abs(vals - lam)) / abs(lam))
    return EigvecWeight(lam=lam, weight_fn=weight_fn, v_fn=v_fn,
                        bulk=(float(xb[0]), float(xb[-1])), flatness=flat,
                        grid=op.grid)


# ---- exact heat kernels on an interval -----------------------------------


def heat_kernel(t: float, x, y, boundary: str = "free",
                interval: tuple[float, float] = (0.0, 1.0)):
    """Heat kernel of the constant-diffusion semigroup e^{t d^2/dx^2}.

    free gives the Gaussian kernel on the line; neumann/dirichlet give the
    reflected/absorbed kernels on the interval as image sums, truncated once
    the next image pair is below 1e-18.
    """
    if t <= 0:
        raise OracleError("kernel time must be positive")
    lo, hi = interval
    L = hi - lo
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    norm = 1.0 / math.sqrt(4.0 * math.pi * t)

    def q0(u):
        return norm * np.exp(-u * u / (4.0 * t))

    if boundary == "free":
        return q0(x - y)
    if boundary not in ("neumann", "dirichlet"):
        raise OracleError(f"unknown boundary {boundary!r}")
    sgn = 1.0 if boundary == "neumann" else -1.0
    xs, ys = x - lo, y - lo
    # images: sources at 2kL + y (direct) and 2kL - y (reflected)
    width = math.sqrt(4.0 * t * math.log(1e18))
    K = int(math.ceil((width + 2.0 * L) / (2.0 * L))) + 1
    out = np.zeros(np.broadcast(xs, ys).shape)
    for k in range(-K, K + 1):
        out = out + q0(xs - ys - 2.0 * k * L) + sgn * q0(xs + ys - 2.0 * k * L)
    return out


def kernel_apply(t: float, f, xs, boundary: str = "neumann",
                 interval: tuple[float, float] = (0.0, 1.0)) -> np.ndarray:
    """Apply the interval heat semigroup to f at each requested point by
    integrating the exact kernel."""
    lo, hi = interval
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    fv = f if callable(f) else (lambda y: np.full_like(np.asarray(y), float(f)))
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        r = quad.integrate(
            lambda y: heat_kernel(t, x, y, boundary, interval) * np.asarray(fv(y), dtype=float),
            lo, hi, breakpoints=(float(x),),
        )
        out[i] = r.value
    return out


def heat_evolve_fd(m, f, t: float, n: int = 1024) -> tuple[np.ndarray, np.ndarray]:
    """Evolve f for time t under the semigroup of an interval model, through
    the full eigendecomposition of the discretized generator.  Returns the
    grid and the evolved values on it.

    On a Neumann interval the ground mode is known exactly: h^{1/2} with
    eigenvalue 0.  Its component is carried unchanged, so constants are
    conserved to round-off, and only the orthogonal remainder goes through
    the other eigenpairs.  The ground eigenvalue is not taken from LAPACK,
    which returns it as about ||H|| eps rather than 0."""
    if m.support[0] == -math.inf:
        raise OracleError("heat evolution needs an interval model")
    op = discretize(m, n=n)
    w, vecs = eigh_tridiagonal(op.diag, op.offdiag)
    w = np.clip(w, 0.0, None)
    logh = op.log_weights - np.max(op.log_weights)
    half = np.exp(0.5 * logh)
    fv = np.asarray(f(op.grid), dtype=float) if callable(f) else np.asarray(f, dtype=float)
    g = half * fv
    ground = 0.0
    if op.boundary == "neumann":
        u0 = half / np.linalg.norm(half)
        ground = (u0 @ g) * u0
        g = g - ground
        w, vecs = w[1:], vecs[:, 1:]
    evolved = ground + vecs @ (np.exp(-w * t) * (vecs.T @ g))
    return op.grid, evolved / half
