"""Bounds from weight potentials, checked against closed forms and values
frozen from independent runs.

Reference values:
    quartic x^4/4 family Z = eps x: best infimum 1.2408065 at eps 1.2712299
        (stationarity of eps - (2/3)(eps^2 - 3/2) s(eps), the polynomial
        root of 16 eps^4 - 24 eps^2 - 3 = 0)
    quartic Muckenhoupt product: B = 0.418646695 at x = 0.6742738 (argmax
        of tail * core computed independently with scipy.integrate.quad)
    quartic Rayleigh family sign(x)|x|^eps: min 1.42579758 at eps 0.85374057
    quartic weight exp(cumulative exp(-(x-1)^2)): infimum 0.59440290
    double well beta=1/2, same shape at slope 1.28: infimum 0.22228602
    reference eigenvalue of the quartic: 1.36859252
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import gamma

from diffgap import bounds as bd
from diffgap import expr as ex
from diffgap import gallery as gal
from diffgap import model as md
from diffgap import quad as q

QUARTIC_GAP = 1.36859252
Z_OPT = (1.2712299, 1.2408065)
RAYLEIGH_OPT = (0.85374057, 1.42579758)
MUCK_B = (0.6742738, 0.418646695)
LSI_QUARTIC_RHO = 0.59440290
LSI_DWELL_RHO = 0.22228602


def ou():
    return md.build_model(sigma="1", target_potential="x^2/2", name="ou")


def quartic():
    return md.build_model(sigma="1", target_potential="x^4/4", name="quartic")


def dwell(beta):
    return md.build_model(
        sigma="1", target_potential="(x^2-b)^2/4", params={"b": beta}, name="dw"
    )


def ou_30():
    # U is anchored at 0, so the unnormalized density peaks near e^450
    return md.build_model(sigma="1", target_potential="(x-30)^2/2", name="ou-30")


def cauchy():
    return md.build_model(
        sigma="sqrt(1+x^2)", target_potential="2.5*log(1+x^2)", name="cauchy"
    )


def power(alpha):
    return md.build_model(
        sigma="1", target_potential=f"(x^2)^{alpha / 2}/{alpha}", name="power"
    )


class TestRhoOfWeight:
    def test_unit_weight_constant_rate(self):
        d = md.realize_weight(ou(), md.WeightSpec.direct("1"))
        assert bd.rho_of_weight(d) == 1.0

    def test_quartic_critical_slope(self):
        # at slope sqrt(3/2) the quadratic terms cancel and the rate is
        # sqrt(3/2) + x^6/4, infimum at the origin
        e = math.sqrt(1.5)
        d = md.realize_weight(quartic(), md.WeightSpec.z_form(ex.parse(f"{e!r}*x")))
        assert abs(bd.rho_of_weight(d) - e) < 1e-9

    @pytest.mark.parametrize("beta", [0.25, 0.5, 1.0])
    def test_double_well_critical_slope(self, beta):
        # rate at the critical slope is sqrt(3/2) - beta/2 + x^2(x^2-beta)^2/4
        e = math.sqrt(1.5)
        d = md.realize_weight(dwell(beta), md.WeightSpec.z_form(ex.parse(f"{e!r}*x")))
        assert abs(bd.rho_of_weight(d) - (e - beta / 2.0)) < 1e-9

    def test_reversible_weight_kills_nothing(self):
        d = md.realize_weight(ou(), md.WeightSpec.exp_w("-x^2/2"))
        assert bd.rho_of_weight(d) == 0.0
        # steeper potential: cancellation noise at the edge may demote the
        # flat rate to the conservative marker, but never to a positive claim
        d4 = md.realize_weight(quartic(), md.WeightSpec.exp_w("-x^4/4"))
        assert bd.rho_of_weight(d4) <= 1e-8

    def test_rate_decaying_outward_is_unbounded_marker(self):
        # V_sigma of the heavy-tailed model decreases toward 0 at the scan
        # edge; the infimum cannot be certified from a finite window
        d = md.realize_weight(cauchy(), md.WeightSpec.direct(cauchy().sigma))
        assert bd.rho_of_weight(d) == -math.inf

    def test_negative_divergence_is_unbounded_marker(self):
        d = md.realize_weight(ou(), md.WeightSpec.exp_w("x^2"))
        assert bd.rho_of_weight(d) == -math.inf

    def test_undefined_rate_rejected(self):
        d = md.realize_weight(ou(), md.WeightSpec.z_form(ex.parse("sqrt(x)")))
        with pytest.raises(bd.BoundError, match="not finite"):
            bd.rho_of_weight(d)

    def test_coarse_grid_rejected(self):
        d = md.realize_weight(ou(), md.WeightSpec.direct("1"))
        with pytest.raises(bd.BoundError, match="coarse"):
            bd.rho_of_weight(d, grid=32)


def test_refine_min_refines_each_valley_once(monkeypatch):
    # two off-grid valleys; the three lowest grid points are -1.1 and -1.0
    # on the left and 1.0 on the right, where the true minimum is lower
    def v(x):
        return np.minimum(0.3 * (x + 1.04) ** 2, 4.0 * (x - 0.96) ** 2 - 0.01)

    xs = np.linspace(-2.0, 2.0, 41)
    vals = v(xs)
    assert sorted(np.round(xs[np.argpartition(vals, 3)[:3]], 12)) == [-1.1, -1.0, 1.0]
    xatol = 1e-10
    valleys = [bd.minimize_scalar(v, bounds=b, xatol=xatol).fun
               for b in ((xs[9], xs[11]), (xs[29], xs[31]))]
    brackets = []
    minimize_scalar = bd.minimize_scalar

    def recorded(*args, **kw):
        brackets.append(kw["bounds"])
        return minimize_scalar(*args, **kw)

    monkeypatch.setattr(bd, "minimize_scalar", recorded)
    got = bd._refine_min(SimpleNamespace(v_fn=v), xs, vals, xatol)
    assert got == min(valleys) == pytest.approx(-0.01)
    # -1.1 has the strictly lower neighbour -1.0, so each valley is refined once
    assert sorted(brackets) == [(xs[9], xs[11]), (xs[29], xs[31])]


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


def _shifted_quadratic(x):
    return float(np.sum((x - 0.3 * np.arange(1, len(x) + 1)) ** 2))


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _terraced(x):
    # piecewise constant: ties between vertices and trial points
    return float(np.floor(4.0 * np.sum((x - 0.3) ** 2)))


def _boxed(x):
    # +inf outside [0, 1]^n, with the unconstrained minimum outside the box
    if np.any(x < 0.0) or np.any(x > 1.0):
        return math.inf
    return float(np.sum((x - 1.2) ** 2 + 0.1 * x))


@pytest.mark.parametrize("fun, x0", [
    (_shifted_quadratic, [2.0]), (_shifted_quadratic, [0.0, 1.5]),
    (_shifted_quadratic, [1.0, 0.0, -2.0]),
    (_rosenbrock, [-1.2, 1.0]), (_rosenbrock, [0.0, 0.5, -0.5]),
    (_terraced, [2.0]), (_terraced, [1.0, -1.5]), (_terraced, [2.0, 0.0, -1.0]),
    (_boxed, [0.9]), (_boxed, [0.95, 0.2]), (_boxed, [0.5, 0.0, 0.99]),
], ids=["quadratic-1d", "quadratic-2d", "quadratic-3d", "rosenbrock-2d", "rosenbrock-3d",
        "terraced-1d", "terraced-2d", "terraced-3d", "boxed-1d", "boxed-2d", "boxed-3d"])
@pytest.mark.parametrize("opts", [
    {"maxiter": 500, "xatol": 1e-6, "fatol": 1e-12},  # the parameter-box polish
    {"maxiter": 25, "xatol": 1e-4, "fatol": 1e-4},  # stopped by the iteration cap
], ids=["polish", "capped"])
def test_nelder_mead_port_matches_scipy(fun, x0, opts):
    from scipy.optimize import minimize

    ref = minimize(fun, np.asarray(x0), method="Nelder-Mead", options=opts)
    got = bd.minimize(fun, np.asarray(x0), **opts)
    assert _bits(got.x) == _bits(ref.x)
    assert _bits(got.fun) == _bits(ref.fun)
    assert (got.nit, got.nfev) == (ref.nit, ref.nfev)


@pytest.mark.parametrize("fun, bounds", [
    (lambda x: abs(x - 0.37), (0.0, 1.0)),
    (lambda x: (x - 1.3) ** 2 - 2.0, (-4.0, 3.0)),
    (lambda x: x * x, (1.0, 3.0)),  # minimum at the lower end of the bracket
    (lambda x: math.floor(8.0 * abs(x - 0.6)), (0.0, 2.0)),  # ties
    (lambda x: math.nan if x > 0.5 else (x - 0.2) ** 2, (0.0, 2.0)),
    (lambda x: math.nan, (0.0, 1.0)),
], ids=["abs", "quadratic", "bracket-end", "terraced", "nan-part", "nan"])
@pytest.mark.parametrize("xatol", [1e-5, 1e-10])
def test_bounded_brent_port_matches_scipy(fun, bounds, xatol):
    from scipy.optimize import minimize_scalar

    ref = minimize_scalar(fun, bounds=bounds, method="bounded", options={"xatol": xatol})
    got = bd.minimize_scalar(fun, bounds=bounds, xatol=xatol)
    assert _bits(got.x) == _bits(ref.x)
    assert _bits(got.fun) == _bits(ref.fun)
    assert got.nfev == ref.nfev


class TestChenWang:
    def test_ou_unit_weight_is_exact(self):
        r = bd.chen_wang_lower(ou(), md.WeightSpec.direct("1"))
        assert r.feasible and r.side == "lower" and r.target == "lambda1"
        assert r.value == 1.0

    def test_quartic_family_optimum(self):
        cfg = bd.OptConfig(box={"eps": (0.1, 3.0)})
        r = bd.chen_wang_lower(quartic(), md.WeightSpec.z_form(ex.parse("eps*x")), cfg)
        assert abs(r.value - Z_OPT[1]) < 1e-5
        assert abs(r.params["eps"] - Z_OPT[0]) < 1e-3
        assert r.error_budget["opt_gap"] >= 0.0
        assert r.value <= QUARTIC_GAP

    def test_double_well_family_optimum(self):
        cfg = bd.OptConfig(box={"eps": (0.1, 3.0)})
        r = bd.chen_wang_lower(dwell(0.5), md.WeightSpec.z_form(ex.parse("eps*x")), cfg)
        # at least the critical-slope value, at most the true gap
        assert r.value >= math.sqrt(1.5) - 0.25 - 1e-6
        assert r.value <= 1.062572 + 1e-6

    def test_unbounded_family_infeasible(self):
        r = bd.chen_wang_lower(ou(), md.WeightSpec.exp_w("x^2"))
        assert not r.feasible and r.value is None


class TestParameterBox:
    # every bound that searches a parameter box shares its checks
    SEARCHES = {
        "chen_wang_lower": lambda fam, cfg: bd.chen_wang_lower(
            ou(), md.WeightSpec.z_form(ex.parse(fam)), cfg),
        "rayleigh_upper": lambda fam, cfg: bd.rayleigh_upper(ou(), ex.parse(fam), cfg),
        "lsi_lower": lambda fam, cfg: bd.lsi_lower(
            ou(), inc_family=md.WeightSpec.z_form(ex.parse(fam)), opt_cfg=cfg),
    }

    @pytest.mark.parametrize("bound", SEARCHES)
    def test_missing_box_rejected(self, bound):
        with pytest.raises(bd.BoundError, match="box"):
            self.SEARCHES[bound]("eps*x", None)

    @pytest.mark.parametrize("bound", SEARCHES)
    def test_too_many_parameters_rejected(self, bound):
        with pytest.raises(bd.BoundError, match="parameters"):
            self.SEARCHES[bound]("a*x + b*x^2 + c*x^3 + d*x^4", bd.OptConfig(box={}))


class TestVeysseire:
    def test_ou_exact(self):
        r = bd.veysseire_lower(ou())
        assert abs(r.value - 1.0) < 1e-12

    def test_heavy_tail_closed_form(self):
        # V_sigma = (2 beta - 1)/(1 + x^2) integrates to the closed form
        # (2 beta - 1)(beta - 3/2)/(beta - 1) = 8/3 at beta = 5/2
        r = bd.veysseire_lower(cauchy())
        assert abs(r.value - 8.0 / 3.0) < 1e-10

    def test_power_model_closed_form(self):
        r = bd.veysseire_lower(power(1.5))
        ref = bd.veysseire_power_formula(1.5)
        assert abs(r.value / ref - 1.0) < 1e-8

    def test_quartic_rate_vanishes_infeasible(self):
        # V_sigma = 3x^2 vanishes at the origin between grid nodes; 1/V is
        # not integrable there
        r = bd.veysseire_lower(quartic())
        assert not r.feasible and r.value is None

    def test_negative_rate_infeasible(self):
        r = bd.veysseire_lower(dwell(1.0))
        assert not r.feasible
        assert "positive" in r.notes[0]

    def test_dominates_pointwise_infimum(self):
        # harmonic-mean bound beats inf V by Jensen whenever inf V > 0
        m = md.build_model(sigma="1", target_potential="x^2/2 + x^4/20", name="m")
        d = md.realize_weight(m, md.WeightSpec.direct("1"))
        rho = bd.rho_of_weight(d)
        r = bd.veysseire_lower(m)
        assert rho > 0
        assert r.value >= rho - 1e-9


class TestMuckenhoupt:
    def test_quartic_frozen_product(self):
        mk = bd.muckenhoupt(quartic())
        assert abs(mk.b - MUCK_B[1]) < 5e-5
        assert abs(abs(mk.x_plus - mk.median) - MUCK_B[0]) < 5e-3
        assert abs(mk.b_plus - mk.b_minus) < 1e-6 * mk.b  # even density
        assert abs(mk.lower - 1.0 / (4 * mk.b)) < 1e-15
        assert abs(mk.upper - 2.0 / mk.b) < 1e-15
        assert mk.lower <= QUARTIC_GAP <= mk.upper

    def test_gaussian_bracket(self):
        mk = bd.muckenhoupt(ou())
        assert mk.lower <= 1.0 <= mk.upper

    def test_gaussian_bracket_far_from_the_origin(self):
        mk = bd.muckenhoupt(ou_30())
        assert abs(mk.median - 30.0) < 1e-9
        assert mk.lower <= 1.0 <= mk.upper

    def test_exponential_like_plateau(self):
        m = md.build_model(
            sigma="1", target_potential="sqrt(x^2 + 1e-6)", name="sexp"
        )
        mk = bd.muckenhoupt(m)
        # the product climbs to its supremum near 1; the bracket straddles
        # the true gap which sits just above 1/4
        assert 1.0 - 1e-6 <= mk.b <= 1.01
        assert mk.lower <= 0.2516 <= mk.upper

    @pytest.mark.parametrize("R", [None, 60.0])
    def test_budget_covers_the_grid_error(self, R):
        """On smoothed-exponential the grid's product reads B = 1.0014 (1.0081
        at R = 60), where the product computed directly at the reported point
        is 1.0000000: the budget covers the difference this makes to 2/B."""
        m = gal.gallery_model("smoothed-exponential")
        mk = bd.muckenhoupt(m, bd.OptConfig(R=R))
        x, med = (mk.x_plus if mk.b_plus >= mk.b_minus else mk.x_minus), mk.median
        qc = q.QuadConfig(abs_tol=0.0)
        core = q.integrate(lambda u: np.exp(np.asarray(m.U(u), dtype=float)),
                           min(x, med), max(x, med), qc).value
        tail = q.integrate(m.density, *((x, m.support[1]) if x > med else (m.support[0], x)),
                           qc).value
        b_direct = tail * core
        assert abs(b_direct - 1.0) < 1e-6 < mk.b - b_direct
        assert mk.error_budget["quad_err"] >= abs(2.0 / mk.b - 2.0 / b_direct)

    def test_no_gap_detected(self):
        m = md.build_model(sigma="1", target_potential="1.5*log(1+x^2)", name="heavy")
        mk = bd.muckenhoupt(m)
        assert mk.diverging
        lo, hi = mk.reports()
        assert not lo.feasible and not hi.feasible

    def test_unit_sigma_required(self):
        with pytest.raises(bd.BoundError, match="unit diffusion"):
            bd.muckenhoupt(cauchy())

    def test_reports_sides(self):
        lo, hi = bd.muckenhoupt(ou()).reports()
        assert (lo.side, hi.side) == ("lower", "upper")
        assert lo.method == hi.method == "muckenhoupt"


class TestPowerFormulas:
    def test_relaxation_closed_form(self):
        assert abs(bd.muckenhoupt_power_formula(4.0) - 1.0 / (8.0 * gamma(1.25) ** 2)) < 1e-15
        assert abs(bd.muckenhoupt_power_formula(1.0) - 0.25) < 1e-15

    def test_integrated_closed_form_value(self):
        ref = 0.5 * 1.5 ** (-1.0 / 3.0) * gamma(2.0 / 3.0) / gamma(1.0)
        assert abs(bd.veysseire_power_formula(1.5) - ref) < 1e-15

    def test_relaxation_weaker_than_computed_bracket(self):
        mk = bd.muckenhoupt(quartic())
        assert bd.muckenhoupt_power_formula(4.0) <= mk.lower

    def test_crossover_location(self):
        a = bd.power_crossover()
        assert abs(a - 1.18746803) < 1e-6
        assert bd.veysseire_power_formula(a - 0.05) < bd.muckenhoupt_power_formula(a - 0.05)
        assert bd.veysseire_power_formula(a + 0.05) > bd.muckenhoupt_power_formula(a + 0.05)

    def test_domain_validation(self):
        with pytest.raises(bd.BoundError):
            bd.veysseire_power_formula(3.0)
        with pytest.raises(bd.BoundError):
            bd.veysseire_power_formula(1.0)
        with pytest.raises(bd.BoundError):
            bd.muckenhoupt_power_formula(-1.0)
        with pytest.raises(bd.BoundError, match="sign change"):
            bd.power_crossover(1.3, 1.4)


class TestBrascampLieb:
    def test_ou_equality_case(self):
        bl = bd.brascamp_lieb_var_bound(
            ou(), md.realize_weight(ou(), md.WeightSpec.direct("1")), "x"
        )
        assert abs(bl.bound - 1.0) < 1e-10
        assert abs(bl.variance - 1.0) < 1e-10
        assert abs(bl.slack) < 1e-9

    def test_quartic_inequality(self):
        m = quartic()
        d = md.realize_weight(m, md.WeightSpec.z_form(ex.parse("1.2712293*x")))
        bl = bd.brascamp_lieb_var_bound(m, d, "x")
        assert bl.slack >= 0.0
        assert bl.bound >= bl.variance

    def test_heavy_tail_matches_integrated_route(self):
        # with a = sigma and sigma f' = 1 the weighted-gradient integral is
        # exactly the harmonic mean from the integrated bound
        m = cauchy()
        d = md.realize_weight(m, md.WeightSpec.direct(m.sigma))
        bl = bd.brascamp_lieb_var_bound(m, d, "log(x + sqrt(1+x^2))")
        assert abs(bl.bound - 0.375) < 1e-9
        r = bd.veysseire_lower(m)
        assert abs(bl.bound - 1.0 / r.value) < 1e-9
        assert bl.slack >= 0.0

    def test_negative_rate_rejected(self):
        m = dwell(1.0)
        d = md.realize_weight(m, md.WeightSpec.direct("1"))
        with pytest.raises(bd.BoundError, match="positive killing rate"):
            bd.brascamp_lieb_var_bound(m, d, "x")


class TestRayleigh:
    def test_ou_linear_is_tight(self):
        r = bd.rayleigh_upper(ou(), "x")
        assert r.side == "upper"
        assert abs(r.value - 1.0) < 1e-8

    def test_large_unnormalized_density(self):
        # the unnormalized mean is about 30 e^450, and its square overflows
        r = bd.rayleigh_upper(ou_30(), "x")
        assert abs(r.value - 1.0) <= 1e-6 + r.error_budget["quad_err"]

    def test_quartic_family_minimum(self):
        cfg = bd.OptConfig(box={"eps": (0.55, 2.0)})
        r = bd.rayleigh_upper(quartic(), ex.parse("x*(x^2)^((eps-1)/2)"), cfg)
        assert abs(r.value - RAYLEIGH_OPT[1]) < 1e-6
        assert abs(r.params["eps"] - RAYLEIGH_OPT[0]) < 1e-4
        assert r.value >= QUARTIC_GAP

    def test_linear_member_is_inverse_variance(self):
        m = quartic()
        r = bd.rayleigh_upper(m, "x")
        f = q.functionals(m, ex.parse("x"))
        assert abs(r.value - 1.0 / f.var) < 1e-9

    def test_power_linear_matches_integrated_bound_scaling(self):
        # for the alpha family the linear trial quotient equals the
        # integrated lower bound divided by (3 - alpha)(alpha - 1)
        m = power(1.5)
        up = bd.rayleigh_upper(m, "x")
        lo = bd.veysseire_lower(m)
        assert abs(up.value - lo.value / ((3.0 - 1.5) * (1.5 - 1.0))) < 1e-6

    def test_constant_family_degenerate(self):
        r = bd.rayleigh_upper(ou(), "1")
        assert not r.feasible

    # Continuation: each quotient's integrals start from the panels of the
    # previously evaluated parameter point.

    FAMILY = "x*(x^2)^((eps-1)/2)"

    @staticmethod
    def cold(m, theta, cfg=None):
        # a parameter-free family is one quotient from the anchor alone
        fam = ex.substitute(ex.parse(TestRayleigh.FAMILY), {"eps": theta})
        return bd.rayleigh_upper(m, fam, cfg)

    def test_continuation_integrand_calls_bounded(self, monkeypatch):
        m = quartic()
        m.normalization(q.QuadConfig())
        calls = [0]
        finite = q._integrate_finite

        def counted(fn, *args):
            def g(x):
                calls[0] += 1
                return fn(x)
            return finite(g, *args)

        monkeypatch.setattr(q, "_integrate_finite", counted)
        cfg = bd.OptConfig(box={"eps": (0.55, 2.0)})
        bd.rayleigh_upper(m, ex.parse(self.FAMILY), cfg)
        # every integral starting cold from the anchor took 4,133
        assert calls[0] <= 1000

    def test_continuation_matches_cold_quotient_and_repeats(self):
        m = quartic()
        cfg = bd.OptConfig(box={"eps": (0.55, 2.0)})
        r = bd.rayleigh_upper(m, ex.parse(self.FAMILY), cfg)
        cold = self.cold(m, r.params["eps"])
        assert abs(r.value - cold.value) <= 1e-8 * cold.value
        again = bd.rayleigh_upper(m, ex.parse(self.FAMILY), cfg)
        assert again.as_dict() == r.as_dict()

    @pytest.mark.parametrize("budget", [12, 14, 16])
    def test_continuation_full_carried_panels_redone_cold(self, monkeypatch, budget):
        # the energy density |x - c|^(-0.8) is singular off every breakpoint;
        # at these budgets every warm start arrives at the budget unconverged
        # (asserted, not assumed) and is redone cold, so theta* gets its cold value
        m = quartic()
        fam = ex.parse("x*((x-c)^2)^0.3")
        qc = q.QuadConfig(max_subdivisions=budget)
        cfg = bd.OptConfig(box={"c": (0.1, 0.9)}, grid_points=5, quad=qc)
        warm = []
        mu_integral = q._mu_integral

        def recorded(model, g, quad_cfg, breakpoints=()):
            r = mu_integral(model, g, quad_cfg, breakpoints)
            if len(breakpoints) > 1:  # carried panels besides the anchor
                warm.append(r.converged)
            return r

        monkeypatch.setattr(q, "_mu_integral", recorded)
        r = bd.rayleigh_upper(m, fam, cfg)
        assert warm and not any(warm)
        cold = bd.rayleigh_upper(m, ex.substitute(fam, r.params), bd.OptConfig(quad=qc))
        assert cold.error_budget["quad_err"] > 1e-6
        assert r.value == cold.value
        assert r.error_budget["quad_err"] == cold.error_budget["quad_err"]

    @pytest.mark.parametrize("model, limit", [(quartic, 200_000), (cauchy, 500_000)])
    def test_continuation_integrand_points_bounded(self, monkeypatch, model, limit):
        # carrying every final panel forward took 640k points on quartic and
        # 2.5M on cauchy, whose partitions grew towards max_subdivisions
        m = model()
        m.normalization(q.QuadConfig())
        points = [0]
        batch = q._gk15_batch

        def counted(fn, lo, hi):
            points[0] += 15 * len(lo)
            return batch(fn, lo, hi)

        monkeypatch.setattr(q, "_gk15_batch", counted)
        bd.rayleigh_upper(m, ex.parse(self.FAMILY), bd.OptConfig(box={"eps": (0.55, 2.0)}))
        assert points[0] <= limit

    @pytest.mark.parametrize("model", [quartic, cauchy])
    def test_derived_family_matches_substituted(self, model):
        # the family is derived once with eps free and evaluated at each eps;
        # at eps = 1 its tree x*exp(0.5*(eps - 1)*log(x^2)) is 0*exp(0*-inf),
        # NaN at x = 0, where the substituted tree x gives 0: the anchor
        # breakpoint keeps every node off 0
        m = model()
        fam = ex.parse(self.FAMILY)
        assert math.isnan(ex.evaluate(ex.simplify(fam), 0.0, {"eps": 1.0}))
        qc = q.QuadConfig()
        carried = bd._rayleigh_quotient(m, fam, ["eps"], qc)
        for eps in (0.55, 0.85, 1.0, 2.0):
            cold = self.cold(m, eps)
            fresh, _ = bd._rayleigh_quotient(m, fam, ["eps"], qc)((eps,))
            assert abs(fresh - cold.value) <= 1e-9 * cold.value, eps
            # started from the previous eps's carried panels: the same
            # quotient within the two quadrature error estimates
            warm, warm_err = carried((eps,))
            assert abs(warm - cold.value) <= warm_err + cold.error_budget["quad_err"], eps

    def test_continuation_cauchy_reaches_exact_gap(self):
        cfg = bd.OptConfig(box={"eps": (0.55, 2.0)})
        r = bd.rayleigh_upper(cauchy(), ex.parse(self.FAMILY), cfg)
        assert r.value >= 3.0 - r.error_budget["quad_err"]
        assert abs(r.value - 3.0) <= 1e-8


class TestLsiLower:
    def test_ou_unit_weight(self):
        r = bd.lsi_lower(ou(), inc_family=md.WeightSpec.direct("1"))
        assert r.feasible and r.target == "cls"
        assert abs(r.value - 2.0) < 1e-12
        assert any("symmetric" in n for n in r.notes)

    def test_quartic_frozen_value(self):
        r = bd.lsi_lower(
            quartic(), dec_family=md.WeightSpec.a_form(ex.parse("-(x-1)^2"))
        )
        assert abs(r.value - 2.0 * LSI_QUARTIC_RHO) < 2e-6
        assert abs(r.params["rho_dec"] - LSI_QUARTIC_RHO) < 1e-6
        assert r.value <= 2.0 * QUARTIC_GAP

    def test_double_well_frozen_value(self):
        r = bd.lsi_lower(
            dwell(0.5), dec_family=md.WeightSpec.a_form(ex.parse("-(1.28*x-1)^2"))
        )
        assert abs(r.value - 2.0 * LSI_DWELL_RHO) < 2e-6

    def test_wrong_class_infeasible(self):
        # this weight realizes sigma/a decreasing, so the increasing slot
        # must refuse it
        r = bd.lsi_lower(
            quartic(), inc_family=md.WeightSpec.a_form(ex.parse("-(x-1)^2"))
        )
        assert not r.feasible
        assert "inc" in r.notes[0]

    def test_asymmetric_needs_both_classes(self):
        m = md.build_model(
            sigma="1", target_potential="x^2/2 + x^3/8 + x^4/16", name="asym"
        )
        r = bd.lsi_lower(m, inc_family=md.WeightSpec.direct("1"))
        assert not r.feasible
        assert "asymmetric" in r.notes[0]

    def test_no_family_rejected(self):
        with pytest.raises(bd.BoundError, match="at least one"):
            bd.lsi_lower(ou())

    def test_symmetry_read_from_log_density(self):
        # at t = 7.34 the quartic density is about 1e-315, subnormal, so the
        # densities themselves differ by 2.5e-9 relative at this offset
        assert bd._symmetric_measure(quartic(), 3.410605131648481e-13)
        asym = md.build_model(sigma="1", target_potential="x^4/4 + 0.1*x", name="tilted")
        assert not bd._symmetric_measure(asym, q.median(asym))


class TestAssemble:
    def test_quartic_pipeline(self):
        m = quartic()
        reports = [
            bd.chen_wang_lower(
                m, md.WeightSpec.z_form(ex.parse("eps*x")),
                bd.OptConfig(box={"eps": (0.1, 3.0)})),
            bd.rayleigh_upper(
                m, ex.parse("x*(x^2)^((eps-1)/2)"),
                bd.OptConfig(box={"eps": (0.55, 2.0)})),
            *bd.muckenhoupt(m).reports(),
            bd.lsi_lower(m, dec_family=md.WeightSpec.a_form(ex.parse("-(x-1)^2"))),
        ]

        class Ref:
            value = QUARTIC_GAP
            err_est = 1e-6

        doc = bd.assemble_report(m, reports, Ref())
        assert doc["violations"] == []
        lam = doc["targets"]["lambda1"]
        assert lam["bracket"][0] <= QUARTIC_GAP <= lam["bracket"][1]
        assert abs(lam["lower"] - Z_OPT[1]) < 1e-4
        assert abs(lam["upper"] - RAYLEIGH_OPT[1]) < 1e-4
        cls = doc["targets"]["cls"]
        assert abs(cls["lower"] - 2.0 * LSI_QUARTIC_RHO) < 1e-4
        assert abs(cls["upper"] - 2.0 * (QUARTIC_GAP + 1e-6)) < 1e-12
        assert cls["upper_source"] == "twice the reference eigenvalue"

    def test_empty_reports(self):
        doc = bd.assemble_report(ou(), [])
        assert doc["targets"] == {} and doc["violations"] == []

    def test_violation_flagged(self):
        mk = {"quad_err": 0.0, "opt_gap": 0.0, "truncation": 0.0}
        lo = bd.BoundReport("chen_wang", "lambda1", "lower", 2.0, {}, dict(mk))
        hi = bd.BoundReport("rayleigh", "lambda1", "upper", 1.0, {}, dict(mk))
        doc = bd.assemble_report(ou(), [lo, hi])
        assert len(doc["violations"]) == 1
        assert "exceeds" in doc["violations"][0]

    def test_oracle_ordering_flagged(self):
        mk = {"quad_err": 0.0, "opt_gap": 0.0, "truncation": 0.0}
        lo = bd.BoundReport("chen_wang", "lambda1", "lower", 2.0, {}, dict(mk))
        doc = bd.assemble_report(ou(), [lo], oracle=1.0)
        assert any("reference eigenvalue" in v for v in doc["violations"])

    def test_report_validation(self):
        mk = {"quad_err": 0.0, "opt_gap": 0.0, "truncation": 0.0}
        with pytest.raises(bd.BoundError):
            bd.BoundReport("m", "lambda2", "lower", 1.0, {}, dict(mk))
        with pytest.raises(bd.BoundError):
            bd.BoundReport("m", "lambda1", "below", 1.0, {}, dict(mk))
        with pytest.raises(bd.BoundError):
            bd.BoundReport("m", "lambda1", "lower", math.nan, {}, dict(mk))
        with pytest.raises(bd.BoundError):
            bd.BoundReport("m", "lambda1", "lower", 1.0, {}, dict(mk), feasible=False)
        r = bd.BoundReport("m", "cls", "lower", 1.0, {"a": 2.0},
                           {"quad_err": 0.25, "opt_gap": 0.5, "truncation": 0.25})
        assert r.budget_total == 1.0
        d = r.as_dict()
        assert d["method"] == "m" and d["params"] == {"a": 2.0} and d["feasible"]


class TestConjugationIdentities:
    PAIRS = [
        ("ou", md.WeightSpec.exp_w("-x^2/4")),
        ("quartic", md.WeightSpec.z_form(ex.parse("1.2*x"))),
        ("cauchy", md.WeightSpec.direct("1+x^2")),
        ("dw", md.WeightSpec.exp_w("-x^2/3")),
        ("gauss2", md.WeightSpec.direct("exp(x/2)")),
    ]

    def _model(self, tag):
        return {
            "ou": ou,
            "quartic": quartic,
            "cauchy": cauchy,
            "dw": lambda: dwell(0.5),
            "gauss2": ou,
        }[tag]()

    @pytest.mark.parametrize("tag,spec", PAIRS)
    def test_rate_shift_under_conjugation(self, tag, spec):
        # V_a = V_sigma - L(sigma/a)/(sigma/a): conjugating the sigma-weighted
        # flow by sigma/a shifts the killing rate by the generator action
        m = self._model(tag)
        d = md.realize_weight(m, spec)
        assert d.weight_expr is not None
        s = ex.simplify(ex.div(m.sigma, d.weight_expr))
        ds = ex.simplify(ex.differentiate(s))
        dds = ex.simplify(ex.differentiate(ds))
        sig2 = ex.mul(m.sigma, m.sigma)
        ls = ex.add(ex.mul(sig2, dds), ex.mul(m.drift, ds))
        dsig = md.realize_weight(m, md.WeightSpec.direct(m.sigma))
        xs = np.linspace(-5.0, 5.0, 401)
        lhs = np.asarray(d.v_fn(xs), dtype=float)
        rhs = np.asarray(dsig.v_fn(xs), dtype=float) - np.asarray(
            ex.evaluate(ls, xs), dtype=float
        ) / np.asarray(ex.evaluate(s, xs), dtype=float)
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * scale

    @pytest.mark.parametrize("tag,spec", PAIRS[:3])
    def test_generator_level_intertwining(self, tag, spec):
        # a (L f)' = (L_a - V_a)(a f') for smooth f
        m = self._model(tag)
        d = md.realize_weight(m, spec)
        a = d.weight_expr
        f = ex.parse("tanh(x) + x^2/10")
        df = ex.simplify(ex.differentiate(f))
        sig2 = ex.mul(m.sigma, m.sigma)
        lf = ex.add(ex.mul(sig2, ex.differentiate(df)), ex.mul(m.drift, df))
        lhs_e = ex.mul(a, ex.differentiate(lf))
        p = ex.simplify(ex.mul(a, df))
        dp = ex.simplify(ex.differentiate(p))
        rhs_e = ex.add(
            ex.mul(sig2, ex.differentiate(dp)),
            ex.mul(d.drift_expr, dp),
            ex.neg(ex.mul(d.v_expr, p)),
        )
        xs = np.linspace(-4.0, 4.0, 321)
        lhs = np.asarray(ex.evaluate(lhs_e, xs), dtype=float)
        rhs = np.asarray(ex.evaluate(rhs_e, xs), dtype=float)
        scale = max(1.0, float(np.max(np.abs(lhs))))
        assert np.max(np.abs(lhs - rhs)) < 1e-6 * scale
