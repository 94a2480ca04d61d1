"""Finite-difference eigenvalue reference and the exact interval kernels.

Reference eigenvalues: the Gaussian model has gap exactly 1 and the unit
interval with constant diffusion has gap pi^2 (both boundary conditions).
The quartic and double-well values below were computed once at high
resolution with scipy's tridiagonal eigensolver on the same divergence-form
matrices, Richardson-extrapolated, and frozen:

    quartic x^4/4:            1.36859252
    double well, beta 0.25:   1.211441
    double well, beta 0.5:    1.062572
    double well, beta 1.0:    0.792088
"""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest

from diffgap import expr as ex
from diffgap import gallery as gal
from diffgap import model as md
from diffgap import oracle as orc
from diffgap import quad as q

QUARTIC_GAP = 1.36859252
DWELL_GAP = {0.25: 1.211441, 0.5: 1.062572, 1.0: 0.792088}


def gaussian():
    return md.build_model(sigma="1", target_potential="x^2/2", name="gauss")


def quartic():
    return md.build_model(sigma="1", target_potential="x^4/4", name="quartic")


def unit_heat(boundary="neumann"):
    return md.build_model(
        sigma="1", drift="0", domain=(0.0, 1.0), boundary=boundary, name="heat"
    )


class TestSpectralGap:
    def test_gaussian_gap_is_one(self):
        g = orc.spectral_gap_fd(gaussian(), n=2048)
        assert abs(g.value - 1.0) < 1e-8
        assert g.err_est < 1e-6

    def test_quartic_frozen_value(self):
        g = orc.spectral_gap_fd(quartic(), n=2048)
        assert abs(g.value - QUARTIC_GAP) < 2e-6

    @pytest.mark.parametrize("beta", sorted(DWELL_GAP))
    def test_double_well_frozen_values(self, beta):
        m = md.build_model(
            sigma="1", target_potential="(x^2-b)^2/4", params={"b": beta}, name="dw"
        )
        g = orc.spectral_gap_fd(m, n=2048)
        assert abs(g.value - DWELL_GAP[beta]) < 2e-6

    def test_interval_gap_closed_form(self):
        g = orc.spectral_gap_fd(unit_heat(), n=1024)
        assert abs(g.value - math.pi**2) < 1e-7
        assert g.truncation_gap == 0.0

    def test_dirichlet_ground_closed_form(self):
        g = orc.spectral_gap_fd(unit_heat("dirichlet"), n=1024)
        assert abs(g.value - math.pi**2) < 1e-7

    def test_extrapolation_beats_fine_grid(self):
        # coarse enough that grid error dominates the bisection tolerance
        g = orc.spectral_gap_fd(quartic(), n=256)
        assert abs(g.value - QUARTIC_GAP) < 0.01 * abs(g.fine - QUARTIC_GAP)
        assert abs(g.fine - QUARTIC_GAP) < abs(g.coarse - QUARTIC_GAP)

    def test_truncation_sensitivity_reported(self):
        # the smoothed exponential potential keeps essential spectrum at 1/4;
        # any finite window sits visibly above it and the widening run sees it
        m = md.build_model(sigma="1", target_potential="sqrt(1+x^2)", name="sexp")
        g = orc.spectral_gap_fd(m, R=20.0, n=1024)
        assert g.truncation_gap > 1e-4
        assert g.value > 0.25
        tight = orc.spectral_gap_fd(gaussian(), n=512)
        assert tight.truncation_gap < 1e-9

    def test_wide_window_approaches_essential_bottom(self):
        m = md.build_model(sigma="1", target_potential="sqrt(1+x^2)", name="sexp")
        g = orc.spectral_gap_fd(m, R=60.0, n=4096)
        assert abs(g.value - 0.25) < 5e-3


class TestAutoRadius:
    def test_gaussian_window(self):
        R = orc._auto_radius(gaussian())
        assert 8.0 <= R <= 12.0

    def test_heavy_tails_capped(self):
        c = md.build_model(
            sigma="sqrt(1+x^2)", target_potential="2.5*log(1+x^2)", name="cauchy"
        )
        assert orc._auto_radius(c) == 20.0

    @pytest.mark.parametrize("m,R", [
        (gal.ou(), 8.05),
        (md.build_model(sigma="1", target_potential="(x-3)^2/2"), 11.05),
        (gal.power(1.5), 13.3),
        # no node left of 0 is above the threshold: that side asks for the
        # whole scan, so the cap applies even though the right side needs ~10
        (md.build_model(sigma="1", target_potential="2*(x-6)^2"), 20.0),
    ])
    def test_pinned_radii(self, m, R):
        assert orc._auto_radius(m) == pytest.approx(R, abs=1e-12)


def _sturm_bracket(diag, offdiag, k):
    """Bracket [lo, hi] of the k-th eigenvalue by bisection on the
    hand-written Sturm count, halved until no float lies between."""
    lo, hi = -1.0, 1.0
    while orc.sturm_count(diag, offdiag, lo) >= k:
        lo *= 4.0
    while orc.sturm_count(diag, offdiag, hi) < k:
        hi *= 4.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo, hi
        if orc.sturm_count(diag, offdiag, mid) >= k:
            hi = mid
        else:
            lo = mid


def _decimal_sturm_count(diag, offdiag, lam):
    """``sturm_count`` in 50-digit decimal arithmetic: the float entries
    convert exactly, and rounding in the recurrence is negligible."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        d = [Decimal(v) for v in diag.tolist()]
        e2 = [Decimal(v) ** 2 for v in offdiag.tolist()]
        lam = Decimal(lam)
        q = d[0] - lam
        count = int(q < 0)
        for i in range(1, len(d)):
            if q == 0:
                q = Decimal("-1e-300")
            q = d[i] - e2[i - 1] / q - lam
            count += q < 0
        return count


class TestEigensolver:
    @pytest.mark.parametrize("make", [gaussian, quartic])
    def test_sturm_count_brackets_lapack(self, make):
        op = orc.discretize(make(), n=1500)
        for k in (1, 2, 3):
            lam = orc.kth_smallest_eigenvalue(op.diag, op.offdiag, k)
            # k = 1 is the reflecting zero mode, at round-off (about 1e-12);
            # the count runs in LAPACK's order, so it brackets that too
            assert orc.sturm_count(op.diag, op.offdiag, lam * (1.0 - 1e-10)) == k - 1
            assert orc.sturm_count(op.diag, op.offdiag, lam * (1.0 + 1e-10)) >= k

    def test_stiff_operator_matches_sturm_bracket(self):
        # max diagonal entry 1.8e8: with LAPACK's default tolerance
        # eps ||T|| the eigenvalue is 3e-9 relative off the Sturm bracket;
        # with the smallest normal tolerance it lies within an ulp of it
        op = orc.discretize(quartic(), R=12.0, n=2048)
        assert np.max(op.diag) > 1e8
        lo, hi = _sturm_bracket(op.diag, op.offdiag, 2)
        lam = orc.kth_smallest_eigenvalue(op.diag, op.offdiag, 2)
        assert lo * (1.0 - 1e-11) <= lam <= hi * (1.0 + 1e-11)

    def test_sturm_count_agrees_with_50_digit_count(self):
        # the reference itself, on the same stiff operator: its bracket must
        # hold the transition of the same recurrence run in 50-digit decimal
        # arithmetic on the same float entries (subtracting lam first, at
        # the scale of the 1.8e8 diagonal, put it 3.5e-13 off)
        op = orc.discretize(quartic(), R=12.0, n=2048)
        lo, hi = _sturm_bracket(op.diag, op.offdiag, 2)
        assert _decimal_sturm_count(op.diag, op.offdiag, lo * (1.0 - 1e-13)) == 1
        assert _decimal_sturm_count(op.diag, op.offdiag, hi * (1.0 + 1e-13)) == 2

    def test_reflecting_kernel_mode_is_zero(self):
        op = orc.discretize(gaussian(), n=1000)
        lam0 = orc.kth_smallest_eigenvalue(op.diag, op.offdiag, 1)
        assert abs(lam0) < 1e-9

    def test_count_monotone(self):
        op = orc.discretize(gaussian(), n=300)
        lams = [0.5, 1.5, 2.5, 3.5]
        counts = [orc.sturm_count(op.diag, op.offdiag, l) for l in lams]
        assert counts == sorted(counts)
        assert counts[0] == 1  # only the zero mode below 0.5
        assert counts[1] == 2  # gap eigenvalue 1 captured
        big = float(np.max(op.diag) + 2 * np.max(np.abs(op.offdiag)) + 1)
        assert orc.sturm_count(op.diag, op.offdiag, big) == 300

    def test_eigenvalue_index_validation(self):
        op = orc.discretize(gaussian(), n=64)
        with pytest.raises(orc.OracleError):
            orc.kth_smallest_eigenvalue(op.diag, op.offdiag, 0)
        with pytest.raises(orc.OracleError):
            orc.kth_smallest_eigenvalue(op.diag, op.offdiag, 65)

    def test_eigenvector_residual(self):
        op = orc.discretize(quartic(), n=2000)
        lam = orc.kth_smallest_eigenvalue(op.diag, op.offdiag, 2)
        v = orc.eigenvector(op, lam)
        res = op.diag * v - lam * v
        res[:-1] += op.offdiag * v[1:]
        res[1:] += op.offdiag * v[:-1]
        assert np.linalg.norm(res) < 1e-9 * max(1.0, lam)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert np.dot(v, op.grid) >= 0

    def test_eigenvector_orthogonal_to_ground(self):
        op = orc.discretize(gaussian(), n=1000)
        lam = orc.kth_smallest_eigenvalue(op.diag, op.offdiag, 2)
        v = orc.eigenvector(op, lam)
        ground = np.exp(0.5 * (op.log_weights - np.max(op.log_weights)))
        ground /= np.linalg.norm(ground)
        assert abs(np.dot(v, ground)) < 1e-10


class _ScipyLinalg:
    """The LAPACK wrapper the oracle calls with a matrix alone, at the
    wrapper's call signature, computed by scipy.linalg's public routine
    instead."""

    def __init__(self):
        from scipy.linalg import solve_banded

        self.solve_banded = solve_banded

    def dgtsv(self, dl, d, du, b):
        ab = np.zeros((3, len(d)))
        ab[0, 1:], ab[1], ab[2, :-1] = du, d, dl
        return None, None, None, self.solve_banded((1, 1), ab, b), 0


def _interval(boundary):
    return md.build_model(sigma="1", drift="-x", domain=(-1.0, 2.0),
                          boundary=boundary, name=f"ou-{boundary}")


_LAPACK_OPERATORS = {
    "stiff-quartic": lambda: orc.discretize(quartic(), R=12.0, n=2048),
    "neumann-interval": lambda: orc.discretize(_interval("neumann"), n=1000),
    "dirichlet-interval": lambda: orc.discretize(_interval("dirichlet"), n=1000),
}


class TestLapackWrappers:
    """The oracle calls LAPACK's wrappers directly, with the arguments
    scipy.linalg would pass: its results are scipy.linalg's bit for bit."""

    @staticmethod
    def _both(monkeypatch, compute):
        direct = compute()
        with monkeypatch.context() as mp:
            mp.setattr(orc, "_flapack", _ScipyLinalg())
            return direct, compute()

    @pytest.mark.parametrize("name", sorted(_LAPACK_OPERATORS))
    def test_eigenvalues_equal_eigh_tridiagonal(self, name):
        from scipy.linalg import eigh_tridiagonal

        op = _LAPACK_OPERATORS[name]()
        if name == "stiff-quartic":
            assert np.max(op.diag) > 1e8
        for k in (1, 2, 3):
            ref = eigh_tridiagonal(op.diag, op.offdiag, eigvals_only=True, select="i",
                                   select_range=(k - 1, k - 1), tol=np.finfo(float).tiny)
            direct = orc.kth_smallest_eigenvalue(op.diag, op.offdiag, k)
            assert np.float64(direct).tobytes() == ref.tobytes(), k

    @pytest.mark.parametrize("name", sorted(_LAPACK_OPERATORS))
    def test_eigenvector_equals_solve_banded(self, monkeypatch, name):
        op = _LAPACK_OPERATORS[name]()
        lam = orc._gap_of(op)
        direct, ref = self._both(monkeypatch, lambda: orc.eigenvector(op, lam))
        assert direct.tobytes() == ref.tobytes()

    def test_non_finite_entry_never_reaches_lapack(self, monkeypatch):
        op = orc.discretize(gaussian(), n=64)
        monkeypatch.setattr(orc, "_flapack", None)  # any LAPACK call fails otherwise
        diag = op.diag.copy()
        diag[5] = np.nan
        with pytest.raises(orc.OracleError, match="non-finite"):
            orc.kth_smallest_eigenvalue(diag, op.offdiag, 2)
        off = op.offdiag.copy()
        off[7] = np.inf
        with pytest.raises(orc.OracleError, match="non-finite"):
            orc.kth_smallest_eigenvalue(op.diag, off, 2)
        with pytest.raises(orc.OracleError, match="non-finite"):
            orc.eigenvector(op, np.nan)
        with pytest.raises(orc.OracleError, match="do not match"):
            orc.kth_smallest_eigenvalue(op.diag, op.offdiag[:-1], 2)

    def test_singular_shift_raises(self):
        # decoupled rows: the one whose diagonal equals the shift is a zero pivot
        lam = 1.0
        diag = np.linspace(3.0, 5.0, 16)
        diag[4] = lam + 1e-8 * max(1.0, abs(lam))
        grid = np.linspace(0.0, 1.0, 16)
        op = orc.DiscreteOperator(grid=grid, dx=grid[1], diag=diag, offdiag=np.zeros(15),
                                  boundary="dirichlet", log_weights=np.zeros(16))
        with pytest.raises(orc.OracleError, match="singular"):
            orc.eigenvector(op, lam)


class TestDiscretize:
    def test_constant_in_kernel(self):
        # reflecting flux form annihilates constants exactly
        op = orc.discretize(gaussian(), n=500)
        ones = np.ones(500)
        half = np.exp(0.5 * (op.log_weights - np.max(op.log_weights)))
        w = half * ones  # symmetrized image of the constant function
        out = op.diag * w
        out[:-1] += op.offdiag * w[1:]
        out[1:] += op.offdiag * w[:-1]
        assert np.max(np.abs(out)) < 1e-8 * np.max(op.diag)

    def test_deep_tail_entries_stay_finite(self):
        # at R = 12 the quartic density underflows by thousands of orders;
        # log-space assembly must still produce finite entries
        op = orc.discretize(quartic(), R=12.0, n=2048)
        assert np.all(np.isfinite(op.diag))
        assert np.all(np.isfinite(op.offdiag))

    def test_boundary_validation(self):
        free_ends = md.build_model(sigma="1", drift="0", domain=(0.0, 1.0),
                                   boundary="none")
        with pytest.raises(orc.OracleError, match="unsupported boundary"):
            orc.discretize(free_ends)
        with pytest.raises(orc.OracleError, match="coarse"):
            orc.discretize(gaussian(), n=4)

    @pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf])
    def test_bad_radius_refused(self, R):
        # R = 0 used to divide by zero, and R < 0 built a reversed grid
        with pytest.raises(orc.OracleError, match="finite and positive"):
            orc.discretize(gaussian(), R=R, n=64)

    def test_killed_dual_ground_state_equals_base_gap(self):
        # the optimally weighted dual killed at its own rate has ground
        # eigenvalue equal to the base spectral gap
        m = quartic()
        d = md.realize_weight(m, md.WeightSpec.z_form(ex.parse("1.2712293*x")))
        op = orc.discretize(d, R=8.0, n=4096, potential=d.v_fn)
        lam0 = orc.kth_smallest_eigenvalue(op.diag, op.offdiag, 1)
        assert abs(lam0 - QUARTIC_GAP) < 1e-6


class TestEigvecWeight:
    @pytest.mark.parametrize("name,params,gap", [
        pytest.param("ou", {}, 1.0, id="x^2/2-1.0"),
        pytest.param("quartic", {}, QUARTIC_GAP, id="x^4/4-1.36859252"),
        pytest.param("double-well", {"beta": 1.0}, DWELL_GAP[1.0], id="(x^2-1)^2/4-0.792088"),
        pytest.param("double-well", {"beta": 0.25}, DWELL_GAP[0.25], id="double-well(0.25)"),
        pytest.param("double-well", {"beta": 0.5}, DWELL_GAP[0.5], id="double-well(0.5)"),
        pytest.param("double-well", {"beta": 0.883}, None, id="double-well(0.883)"),
        pytest.param("power", {"alpha": 1.5}, None, id="power(1.5)"),
        pytest.param("power", {"alpha": 2.918}, None, id="power(2.918)"),
        pytest.param("power", {"alpha": 4.0}, QUARTIC_GAP, id="power(4)"),
        pytest.param("smoothed-exponential", {}, None, id="smoothed-exponential"),
        pytest.param("cauchy", {}, None, id="cauchy"),
    ])
    def test_reconstructed_rate_is_flat(self, name, params, gap):
        # the rate is read off every printed row, tails and kinks included:
        # power(1.5) has one at 0, smoothed-exponential a near one
        ew = orc.eigvec_weight(gal.gallery_model(name, **params), n=2048)
        if gap is not None:
            assert abs(ew.lam - gap) < 1e-4
        assert ew.flatness < 0.01
        assert ew.flatness == np.max(np.abs(ew.killing_rate - ew.lam)) / ew.lam

    def test_weight_shape(self):
        ew = orc.eigvec_weight(quartic(), n=4096)
        assert np.all(ew.weight > 0)
        # smallest where the eigenfunction is steepest (the center), growing
        # into both tails
        assert abs(ew.x[np.argmin(ew.weight)]) < 0.01
        inner = np.abs(ew.x) <= 4.0
        x, w = ew.x[inner], ew.weight[inner]
        assert np.all(np.diff(w[x >= 0]) > 0)
        assert np.all(np.diff(w[x <= 0]) < 0)

    def test_arrays_span_the_bulk_window(self):
        ew = orc.eigvec_weight(quartic(), n=4096)
        assert len(ew.x) == len(ew.weight) == len(ew.killing_rate)
        assert ew.bulk == (ew.x[0], ew.x[-1])
        assert np.all(np.diff(ew.x) > 0)

    def test_quartic_tails_stay_usable(self):
        # inverse iteration keeps the eigenvector's tails accurate relative
        # to their size; a vector with an absolute noise floor near 1e-46
        # (LAPACK's stein) leaves only about [-5.27, 5.25]
        lo, hi = orc.eigvec_weight(quartic()).bulk
        assert lo <= -7.9 and hi >= 7.9

    @pytest.mark.parametrize("name", gal.gallery_names())
    def test_killing_rate_finite_on_gallery(self, name):
        params = {"power": {"alpha": 2.918}, "double-well": {"beta": 0.5}}
        ew = orc.eigvec_weight(gal.gallery_model(name, **params.get(name, {})), n=2048)
        assert np.all(np.isfinite(ew.killing_rate)), name
        assert np.all(np.isfinite(ew.weight) & (ew.weight > 0)), name

    def test_dirichlet_rejected(self):
        with pytest.raises(orc.OracleError, match="ergodic"):
            orc.eigvec_weight(unit_heat("dirichlet"))


class TestHeatKernels:
    def test_free_kernel_closed_form(self):
        t, x, y = 0.07, 0.3, -0.2
        ref = math.exp(-((x - y) ** 2) / (4 * t)) / math.sqrt(4 * math.pi * t)
        assert abs(orc.heat_kernel(t, x, y, "free") - ref) < 1e-15

    def test_symmetry(self):
        assert orc.heat_kernel(0.1, 0.3, 0.7, "neumann") == orc.heat_kernel(
            0.1, 0.7, 0.3, "neumann"
        )

    def test_reflecting_conserves_mass(self):
        for x in (0.1, 0.5, 0.85):
            r = q.integrate(lambda y: orc.heat_kernel(0.1, x, y, "neumann"), 0.0, 1.0)
            assert abs(r.value - 1.0) < 1e-10

    def test_absorbing_loses_mass(self):
        r = q.integrate(lambda y: orc.heat_kernel(0.1, 0.5, y, "dirichlet"), 0.0, 1.0)
        assert r.value < 0.6

    def test_semigroup_property(self):
        x, y = 0.3, 0.7
        conv = q.integrate(
            lambda z: orc.heat_kernel(0.06, x, z, "neumann")
            * orc.heat_kernel(0.04, z, y, "neumann"),
            0.0,
            1.0,
        )
        assert abs(conv.value - float(orc.heat_kernel(0.1, x, y, "neumann"))) < 1e-12

    def test_derivative_intertwines_boundary_conditions(self):
        # d/dx of the reflected semigroup acting on f equals the absorbed
        # semigroup acting on f'
        t = 0.1
        f = lambda y: y * y * (3.0 - 2.0 * y)
        fp = lambda y: 6.0 * y * (1.0 - y)
        for x0 in (0.25, 0.5, 0.8):
            h = 1e-3
            sten = np.array([x0 - 2 * h, x0 - h, x0 + h, x0 + 2 * h])
            vals = orc.kernel_apply(t, f, sten, boundary="neumann")
            lhs = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
            rhs = orc.kernel_apply(t, fp, [x0], boundary="dirichlet")[0]
            assert abs(lhs - rhs) < 1e-8

    def test_parameter_validation(self):
        with pytest.raises(orc.OracleError):
            orc.heat_kernel(0.0, 0.3, 0.4, "neumann")
        with pytest.raises(orc.OracleError, match="boundary"):
            orc.heat_kernel(0.1, 0.3, 0.4, "robin")
