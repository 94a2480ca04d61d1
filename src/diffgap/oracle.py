"""Finite-difference eigenvalue reference and exact interval heat kernels.

This module is the independent ground truth the bound machinery is tested
against, so it leans on as little shared code as possible: the operator is
discretized in divergence form (assembled in log space so that densities far
below floating range still produce finite matrix entries), eigenvalues come
from LAPACK's Sturm bisection on the symmetric tridiagonal matrix, and grid
halving plus a truncation sensitivity run turn the raw eigenvalue into an
estimate with an explicit error budget.  LAPACK contributes that bisection
(``stebz``), the tridiagonal solves of inverse iteration (``gtsv``) and the
full tridiagonal eigendecomposition used for heat evolution (``stevd``),
called through scipy's compiled wrappers (``scipy.linalg._flapack``) with
the arguments ``scipy.linalg`` would pass, so the results are bit for bit
those of ``eigh_tridiagonal`` and ``solve_banded``.  The wrappers are loaded
on their own: the rest of ``scipy.linalg`` (its array-API layer and
``numpy.f2py``) would add about 0.07 s of import and 17 MB of peak memory
to every process (scipy 1.17 on a 2-core x86 VM).  The Sturm count is also
written out by hand (``sturm_count``), as the reference the test suite
checks the LAPACK eigenvalues against.

The reflecting operator is a birth-death chain whose eigenvector differences
solve its gradient chain on the cell edges, the discrete weighted-derivative
intertwining (Chafai-Joulin); ``eigvec_weight`` reads the optimal weight and
its killing rate off that chain, with no interpolation or symbolic derivative.

On the unit interval with constant diffusion the reflected and absorbed
heat kernels are available in closed form as image sums, which gives a
discretization-free second route to the same semigroup.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy

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


def _load_flapack():
    """scipy's f2py wrappers of LAPACK, without ``scipy/linalg/__init__.py``."""
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.linalg._flapack", [os.path.join(p, "linalg") for p in scipy.__path__])
    if spec is None:
        raise ImportError("scipy.linalg._flapack not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()


def _tridiagonal(diag, offdiag) -> tuple[np.ndarray, np.ndarray]:
    """diag and offdiag as float arrays, checked before LAPACK sees them, as
    scipy's ``check_finite`` did: LAPACK on a NaN can loop or return garbage."""
    d = np.asarray(diag, dtype=float)
    e = np.asarray(offdiag, dtype=float)
    if d.ndim != 1 or e.shape != (d.size - 1,):
        raise OracleError(f"tridiagonal shapes {d.shape} and {e.shape} do not match")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise OracleError("tridiagonal matrix has a non-finite entry")
    return d, e


def _lapack_ok(info: int, routine: str) -> None:
    if info != 0:
        raise OracleError(f"LAPACK {routine} failed (info = {info})")


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
    # a NaN density fails the comparison and so counts as above the threshold
    above = np.flatnonzero(~(logh < peak - math.log(1e14)))
    right, left = above[xs[above] >= 0], above[xs[above] <= 0]
    # on each side, the first grid radius past which the density stays below
    # the threshold; a side with no node above it, or one above it at the
    # edge of the scan, needs 60
    r_right = xs[right[-1] + 1] if len(right) and right[-1] + 1 < len(xs) else 60.0
    r_left = -xs[left[0] - 1] if len(left) and left[0] > 0 else 60.0
    return min(max(8.0, r_right, r_left), 20.0)


def discretize(m, R: float | None = None, n: int = 4096,
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
        bc = "neumann"
    else:
        lo, hi = m.support
        bc = getattr(m, "boundary", "neumann")
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


def sturm_count(diag, offdiag, lam: float) -> int:
    """Number of eigenvalues strictly below lam, via the LDL^T sign count.

    Written out by hand as the test suite's reference for the LAPACK
    eigenvalues below; the oracle itself never calls it.  lam is subtracted
    last, as in LAPACK's ``dlaebz``: on stiff rows d[i] and e2/prev nearly
    cancel, and forming d[i] - lam first would round lam at the scale of
    d[i] (up to 1e8), shifting the count's transition by up to 1.4e-11
    relative."""
    d = np.asarray(diag, dtype=float).tolist()
    off = np.asarray(offdiag, dtype=float)
    e2 = (off * off).tolist()
    count = 0
    q = d[0] - lam
    if q < 0.0:
        count += 1
    for i in range(1, len(d)):
        prev = q
        if prev == 0.0:
            prev = -1e-300
        q = d[i] - e2[i - 1] / prev - lam
        if q < 0.0:
            count += 1
    return count


def _eigenvalues(diag, offdiag, first: int, last: int):
    """Eigenvalues first..last (1-based, ascending) by LAPACK's Sturm
    bisection (``stebz``).

    Each eigenvalue is bisected to an absolute width of the smallest normal
    float, which leaves LAPACK's own relative floor of about 2 ulp |lam| in
    charge; LAPACK's default of eps ||T|| would be far coarser on stiff
    operators, whose norm reaches 1e8."""
    d, e = _tridiagonal(diag, offdiag)
    if not 1 <= first <= last <= len(d):
        raise OracleError(f"eigenvalue index {first if first < 1 else last} out of range")
    # range 2 selects by index; vl and vu are unused, "E" orders the whole
    # spectrum rather than by split-off block
    m, w, _, _, info = _flapack.dstebz(d, e, 2, 0.0, 1.0, first, last,
                                       np.finfo(float).tiny, "E")
    _lapack_ok(info, "stebz")
    return w[:m]


def kth_smallest_eigenvalue(diag, offdiag, k: int) -> float:
    """k-th smallest eigenvalue (k = 1 is the smallest)."""
    return float(_eigenvalues(diag, offdiag, k, k)[0])


def smallest_eigenvalues(diag, offdiag, k: int = 2):
    """The k smallest eigenvalues in ascending order, from one bisection."""
    return _eigenvalues(diag, offdiag, 1, k).tolist()


def eigenvector(op: DiscreteOperator, lam: float) -> np.ndarray:
    """Unit eigenvector for the eigenvalue nearest lam, by three steps of
    inverse iteration with a tridiagonal solve.  For reflecting boundaries the
    constant direction (h^{1/2} after symmetrization) is projected out at
    every step.

    Not LAPACK's ``stein`` (``eigh_tridiagonal(select="i")`` with vectors):
    its entries have an absolute noise floor near 1e-46 (-4.2e-46 at x = 5.5
    on quartic, n = 8192, where this vector holds 1.3e-51), while these keep
    decaying smoothly.  On quartic at n = 2048, ``eigvec_weight`` reads a
    rate within 5.5e-4 lam of lam on every edge of [-7.992, 7.992] from this
    vector; stein's is usable only on [-5.320, 5.367], and off by 1e4 lam."""
    n = len(op.diag)
    shift = lam + 1e-8 * max(1.0, abs(lam))
    diag, off = _tridiagonal(op.diag - shift, op.offdiag)

    ground, v = None, np.ones(n)
    if op.boundary == "neumann":
        ground = np.exp(0.5 * (op.log_weights - np.max(op.log_weights)))
        ground /= np.linalg.norm(ground)
        v = (op.grid - np.mean(op.grid)) * ground  # nonzero: ground > 0 at the peak
    v /= np.linalg.norm(v)
    for _ in range(3):
        _, _, _, v, info = _flapack.dgtsv(off, diag, off, v)
        if info > 0:
            raise OracleError(f"inverse iteration: the shift {shift!r} makes the "
                              "matrix singular")
        _lapack_ok(info, "gtsv")
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


def spectral_gap_fd(m, R: float | None = None, n: int = 4096) -> GapEstimate:
    """Spectral gap of m by finite differences on grids of n and 2n nodes.

    The reported value extrapolates the O(dx^2) eigenvalue error away; the
    error estimate combines the extrapolation residual with a truncation
    sensitivity run at radius 1.25 R (line models only) on a grid with the
    same spacing.
    """
    on_line = m.support[0] == -math.inf
    if on_line:
        R = R if R is not None else _auto_radius(m)
    op = discretize(m, R, n)
    lam_coarse = _gap_of(op)
    lam_fine = _gap_of(discretize(m, R, 2 * n))
    value = (4.0 * lam_fine - lam_coarse) / 3.0
    disc = abs(lam_fine - lam_coarse) / 3.0
    trunc = 0.0
    if on_line:
        # same spacing, wider window: isolates the truncation effect
        trunc = abs(lam_fine - _gap_of(discretize(m, 1.25 * R, int(round(2.5 * n)))))
    r_used = float(R) if on_line else 0.5 * (m.support[1] - m.support[0])
    return GapEstimate(value=value, err_est=disc + trunc, coarse=lam_coarse,
                       fine=lam_fine, truncation_gap=trunc, R=r_used, n=n,
                       boundary=op.boundary)


# ---- weight extraction from the eigenvector ------------------------------


def _chain_apply(op: DiscreteOperator, w: np.ndarray) -> np.ndarray:
    """M w for the gradient chain of a reflecting operator, w on the edges.

    op is a birth-death chain on the nodes: across edge i it moves up at rate
    -off_i e^{d_i} and down at rate -off_i e^{-d_i}, with d_i half the step
    of log_weights.  The differences of an eigenvector (mapped back to g)
    solve M u = lam u on the edges; M's off-diagonal entries are
    non-positive, so min (M w)/w <= lam_1 <= max (M w)/w for any positive w
    (Collatz-Wielandt; Chen's variational formula for birth-death chains)."""
    half = 0.5 * np.diff(op.log_weights)
    up, down = -op.offdiag * np.exp(half), -op.offdiag * np.exp(-half)
    out = (up + down) * w
    out[:-1] -= up[1:] * w[1:]
    out[1:] -= down[:-1] * w[:-1]
    return out


@dataclass(frozen=True)
class EigvecWeight:
    """Weight 1/g' read off the discrete first excited state g.

    The differences u of g solve the gradient chain's eigenproblem, the
    discrete weighted-derivative dual, so its killing rate (M u)/u is lam.
    x holds the edge midpoints of the bulk window, where u is positive;
    weight and killing_rate are dx/u and (M u)/u there, and flatness is the
    largest |killing_rate - lam|/lam over all of them.
    """

    lam: float
    x: np.ndarray
    weight: np.ndarray
    killing_rate: np.ndarray
    bulk: tuple[float, float]
    flatness: float


def eigvec_weight(m, R: float | None = None, n: int = 2048) -> EigvecWeight:
    """Reconstruct the gap-optimal weight from the finite-difference
    eigenvector: difference the eigenfunction across each edge and read the
    killing rate off the gradient chain (``_chain_apply``)."""
    op = discretize(m, R, n)
    if op.boundary != "neumann":
        raise OracleError("weight extraction applies to the ergodic flow")
    lam = _gap_of(op)
    psi = eigenvector(op, lam)
    with np.errstate(divide="ignore"):
        logg = np.log(np.abs(psi)) - 0.5 * op.log_weights
    # g = psi h^{-1/2}, scaled to max |g| = 1 (psi is a unit vector)
    u = np.diff(np.sign(psi) * np.exp(logg - np.max(logg)))
    center = len(u) // 2
    u = u * np.sign(u[center])  # g increasing at the center
    if not u[center] > 0.0:
        raise OracleError("eigenfunction difference not positive at the center")

    # maximal contiguous window around the center where u is positive:
    # outside it the differences are round-off or the eigenvector underflowed
    bad = np.flatnonzero(~(u > 0.0))
    k = np.searchsorted(bad, center)
    bulk = slice(bad[k - 1] + 1 if k else 0, bad[k] if k < len(bad) else len(u))
    x = (0.5 * (op.grid[:-1] + op.grid[1:]))[bulk]
    rate = _chain_apply(op, u)[bulk] / u[bulk]
    flat = float(np.max(np.abs(rate - lam)) / abs(lam))
    return EigvecWeight(lam=lam, x=x, weight=op.dx / u[bulk], killing_rate=rate,
                        bulk=(float(x[0]), float(x[-1])), flatness=flat)


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
    w, vecs, info = _flapack.dstevd(*_tridiagonal(op.diag, op.offdiag), compute_v=1)
    _lapack_ok(info, "stevd")
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
