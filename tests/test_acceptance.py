"""Acceptance gate: the eleven headline behaviors, one test each.

Each test prints a single pass line when it completes and enforces its
runtime budget.

Tests 02 and 06 check the slope family Z = eps x against its closed-form
optimum, derived here from the killing rate without the library.  The
paper quotes that optimum as sqrt(3/2) (quartic) and sqrt(3/2) - beta
(double well); the defining formula gives more, so the quoted constants
are asserted as the lower bounds they are, and their mismatch with the
computed optimum is asserted as a finding.
"""

import math
import time

import numpy as np
import pytest

import diffgap.bounds as bd
import diffgap.expr as ex
import diffgap.gallery as gal
import diffgap.mcsim as mc
import diffgap.model as md
import diffgap.oracle as orc
import diffgap.quad as q

SQ32 = math.sqrt(1.5)


class _Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label}: {elapsed:.1f} s exceeds the {self.seconds} s budget")
            print(f"[acceptance] {self.label}: PASS ({elapsed:.1f} s)")
        return False


def _slope_family_optimum(beta, box=(0.1, 3.0)):
    """(eps*, sup_eps inf_x V) for Z = eps x on U = (x^2 - beta)^2 / 4.

    In y = x^2 >= 0 the killing rate is the cubic
        V = eps - beta/2 + (3/2 - eps^2 + beta^2/4) y - (beta/2) y^2 + y^3/4.
    Its infimum over y is concave in eps.  The supremum sits at an end of
    the box, at the kink eps = sqrt(3/2) where the minimizer leaves y = 0,
    or at a stationary point of the interior branch; there 2 eps y = 1 and
    V_y = 0 give 16 eps^4 - (24 + 4 beta^2) eps^2 + 8 beta eps - 3 = 0.
    """
    def inf_v(eps):
        c = [0.25, -0.5 * beta, 1.5 - eps * eps + 0.25 * beta * beta, eps - 0.5 * beta]
        ys = [0.0] + [r.real for r in np.roots(np.polyder(c))
                      if abs(r.imag) < 1e-12 and r.real > 0.0]
        return min(np.polyval(c, y) for y in ys)

    roots = np.roots([16.0, 0.0, -(24.0 + 4.0 * beta * beta), 8.0 * beta, -3.0])
    cands = [box[0], box[1], SQ32] + [r.real for r in roots
                                       if abs(r.imag) < 1e-12 and box[0] <= r.real <= box[1]]
    eps = max(cands, key=inf_v)
    return eps, inf_v(eps)


def test_01_ou_exact_gap_and_entropy_constant():
    with _Budget("ou exact constants", 10):
        m = gal.gallery_model("ou")
        cw = bd.chen_wang_lower(m, md.WeightSpec.direct("1"))
        assert cw.value == 1.0
        g = orc.spectral_gap_fd(m, n=2048)
        assert abs(g.value - 1.0) <= 1e-4
        lsi = bd.lsi_lower(m, inc_family=md.WeightSpec.direct("1"))
        assert lsi.value >= 2.0 - 1e-12
        doc = bd.assemble_report(m, [lsi], g)
        lo, hi = doc["targets"]["cls"]["bracket"]
        assert abs(lo - 2.0) <= 1e-4 and abs(hi - 2.0) <= 1e-4


def test_02_quartic_slope_family_optimum_and_bracket():
    with _Budget("quartic families and bracket", 60):
        m = gal.gallery_model("quartic")
        cw = bd.chen_wang_lower(m, md.WeightSpec.z_form(ex.parse("eps*x")),
                                bd.OptConfig(box={"eps": (0.1, 3.0)}))
        eps_opt, v_opt = _slope_family_optimum(0.0)
        assert abs(cw.params["eps"] - eps_opt) <= 1e-3, (
            f"optimum at {eps_opt:.7f}; computed {cw.params['eps']:.7f}")
        assert abs(cw.value - v_opt) <= 1e-3, (
            f"optimum value {v_opt:.7f}; computed {cw.value:.7f}")
        # the quoted sqrt(3/2) is a lower bound, not the optimum
        assert abs(cw.params["eps"] - SQ32) > 1e-3
        assert abs(cw.value - SQ32) > 1e-3
        ray = bd.rayleigh_upper(m, ex.parse("x*(x^2)^((eps-1)/2)"),
                                bd.OptConfig(box={"eps": (0.55, 2.0)}))
        assert abs(ray.value - 1.426) <= 5e-3
        assert abs(ray.params["eps"] - 0.854) <= 5e-3
        g = orc.spectral_gap_fd(m, n=2048)
        assert 1.2247 <= g.value <= 1.426
        assert SQ32 <= cw.value <= g.value


def test_03_quartic_two_sided_relaxation():
    with _Budget("quartic two-sided relaxation", 30):
        stated = 1.0 / (8.0 * math.gamma(1.25) ** 2)
        val = bd.muckenhoupt_power_formula(4.0)
        assert abs(val - stated) <= 1e-12
        assert abs(val - 0.152) <= 5e-3
        m = gal.gallery_model("quartic")
        lo, hi = bd.muckenhoupt(m)
        g = orc.spectral_gap_fd(m, n=2048)
        assert lo.value <= g.value <= hi.value


def test_04_integrated_bound_and_crossover():
    with _Budget("integrated bound and crossover", 60):
        alpha = 1.5
        stated = ((alpha - 1.0) * alpha ** (1.0 - 2.0 / alpha)
                  * math.gamma(1.0 / alpha) / math.gamma((3.0 - alpha) / alpha))
        m = gal.gallery_model("power", alpha=alpha)
        v = bd.veysseire_lower(m)
        assert abs(v.value - stated) <= 1e-4 * stated
        assert abs(bd.power_crossover() - 1.188) <= 0.01


def test_05_smoothed_exponential_gap():
    with _Budget("smoothed exponential gap", 30):
        m = gal.gallery_model("smoothed-exponential")
        g = orc.spectral_gap_fd(m, R=60.0, n=4096)
        assert abs(g.value - 0.25) <= 5e-3
        lo, hi = bd.muckenhoupt(m, bd.OptConfig(R=60.0))
        assert lo.value <= g.value <= hi.value


def test_06_double_well_slope_family():
    with _Budget("double-well slope family", 60):
        for beta in (0.25, 0.5, 1.0):
            m = gal.gallery_model("double-well", beta=beta)
            cw = bd.chen_wang_lower(m, md.WeightSpec.z_form(ex.parse("eps*x")),
                                    bd.OptConfig(box={"eps": (0.1, 3.0)}))
            eps_opt, v_opt = _slope_family_optimum(beta)
            assert abs(cw.params["eps"] - eps_opt) <= 1e-3, (
                f"beta={beta}: optimum at {eps_opt:.7f}; computed {cw.params['eps']:.7f}")
            assert abs(cw.value - v_opt) <= 1e-3, (
                f"beta={beta}: optimum value {v_opt:.7f} at slope {eps_opt:.7f}; "
                f"computed {cw.value:.7f}")
            # the quoted sqrt(3/2) - beta is a lower bound, not the optimum
            stated = SQ32 - beta
            assert abs(cw.value - stated) > 1e-3
            g = orc.spectral_gap_fd(m, n=2048)
            assert stated <= cw.value <= g.value


def test_07_quartic_entropy_bracket():
    with _Budget("quartic entropy bracket", 60):
        m = gal.gallery_model("quartic")
        lsi = bd.lsi_lower(m, dec_family=md.WeightSpec.a_form(ex.parse("-(x-1)^2")))
        assert lsi.params["rho_dec"] >= 0.594 - 1e-2
        assert lsi.value >= 1.188 - 2e-2
        g = orc.spectral_gap_fd(m, n=2048)
        # the cap from twice the reference eigenvalue is consistent with
        # (and tighter than) the stated upper end 2.852 = 2 x 1.426
        assert 2.0 * (g.value + g.err_est) <= 2.852
        ray = bd.rayleigh_upper(m, ex.parse("x*(x^2)^((eps-1)/2)"),
                                bd.OptConfig(box={"eps": (0.55, 2.0)}))
        assert abs(2.0 * ray.value - 2.852) <= 1e-2
        doc = bd.assemble_report(m, [lsi, ray], g)
        lo, hi = doc["targets"]["cls"]["bracket"]
        assert lo >= 1.188 - 2e-2 and hi <= 2.852


def test_08_double_well_entropy_bound():
    with _Budget("double-well entropy bound", 30):
        m = gal.gallery_model("double-well", beta=0.5)
        lsi = bd.lsi_lower(m, dec_family=md.WeightSpec.a_form(
            ex.parse("-(1.28*x-1)^2")))
        assert lsi.params["rho_dec"] >= 0.22 - 1e-2
        assert lsi.value >= 0.44 - 2e-2


def test_09_growing_diffusion_rates():
    with _Budget("growing-diffusion rates", 30):
        beta = 2.5
        m = gal.gallery_model("cauchy", beta=beta)
        d = md.realize_weight(m, md.WeightSpec.direct(m.sigma))
        xs = np.linspace(-10.0, 10.0, 401)
        want = (2.0 * beta - 1.0) / (1.0 + xs**2)
        assert np.max(np.abs(np.asarray(d.v_fn(xs)) - want)) <= 1e-10
        v = bd.veysseire_lower(m)
        assert abs(v.value - 8.0 / 3.0) <= 1e-4
        ml = gal.gallery_model("cauchy", beta=beta, variant="linear")
        dl = md.realize_weight(ml, md.WeightSpec.direct(ml.sigma))
        want_l = 2.0 * (beta - 1.0) * (1.0 + xs**2)
        assert np.max(np.abs(np.asarray(dl.v_fn(xs)) - want_l)
                      / (1.0 + xs**2)) <= 1e-10
        assert abs(bd.rho_of_weight(dl) - 2.0 * (beta - 1.0)) <= 1e-9


_PROPERTY_PAIRS = [
    ("ou", md.WeightSpec.exp_w("-x^2/4")),
    ("quartic", md.WeightSpec.z_form(ex.parse("1.2*x"))),
    ("cauchy", md.WeightSpec.direct("1+x^2")),
    ("double-well", md.WeightSpec.exp_w("-x^2/3")),
    ("ou-tilted", md.WeightSpec.direct("exp(x/2)")),
]


def _property_model(tag):
    return {
        "ou": lambda: gal.gallery_model("ou"),
        "quartic": lambda: gal.gallery_model("quartic"),
        "cauchy": lambda: gal.gallery_model("cauchy"),
        "double-well": lambda: gal.gallery_model("double-well", beta=0.5),
        "ou-tilted": lambda: gal.gallery_model("ou"),
    }[tag]()


def test_10_structural_property_suite():
    with _Budget("structural property suite", 120):
        # conjugation shifts the rate by the generator action on sigma/a
        for tag, spec in _PROPERTY_PAIRS:
            m = _property_model(tag)
            d = md.realize_weight(m, spec)
            s = ex.simplify(ex.div(m.sigma, d.weight_expr))
            ds = ex.simplify(ex.differentiate(s))
            sig2 = ex.mul(m.sigma, m.sigma)
            ls = ex.add(ex.mul(sig2, ex.differentiate(ds)), ex.mul(m.drift, ds))
            dsig = md.realize_weight(m, md.WeightSpec.direct(m.sigma))
            xs = np.linspace(-5.0, 5.0, 401)
            lhs = np.asarray(d.v_fn(xs), dtype=float)
            rhs = (np.asarray(dsig.v_fn(xs), dtype=float)
                   - np.asarray(ex.evaluate(ls, xs), dtype=float)
                   / np.asarray(ex.evaluate(s, xs), dtype=float))
            scale = max(1.0, float(np.max(np.abs(lhs))))
            assert np.max(np.abs(lhs - rhs)) < 1e-8 * scale, tag

        # the reversible-density weight kills nothing
        for model, w in ((gal.gallery_model("ou"), "-x^2/2"),
                         (gal.gallery_model("quartic"), "-x^4/4")):
            d = md.realize_weight(model, md.WeightSpec.exp_w(w))
            xs = np.linspace(-5.0, 5.0, 401)
            vals = np.abs(np.asarray(d.v_fn(xs), dtype=float))
            scale = max(1.0, float(np.max(np.abs(xs) ** 6)) / 4.0)
            assert np.max(vals) < 1e-8 * scale

        # generator-level commutation a (L f)' = (L_a - V_a)(a f')
        f = ex.parse("tanh(x) + x^2/10")
        df = ex.simplify(ex.differentiate(f))
        for tag, spec in _PROPERTY_PAIRS[:3]:
            m = _property_model(tag)
            d = md.realize_weight(m, spec)
            a = d.weight_expr
            sig2 = ex.mul(m.sigma, m.sigma)
            lf = ex.add(ex.mul(sig2, ex.differentiate(df)), ex.mul(m.drift, df))
            lhs_e = ex.mul(a, ex.differentiate(lf))
            p = ex.simplify(ex.mul(a, df))
            dp = ex.simplify(ex.differentiate(p))
            rhs_e = ex.add(ex.mul(sig2, ex.differentiate(dp)),
                           ex.mul(d.drift_expr, dp),
                           ex.neg(ex.mul(d.v_expr, p)))
            xs = np.linspace(-4.0, 4.0, 321)
            lhs = np.asarray(ex.evaluate(lhs_e, xs), dtype=float)
            rhs = np.asarray(ex.evaluate(rhs_e, xs), dtype=float)
            scale = max(1.0, float(np.max(np.abs(lhs))))
            assert np.max(np.abs(lhs - rhs)) < 1e-6 * scale, tag

        # bound ordering across the gallery: lower <= reference <= upper
        z_fam = md.WeightSpec.z_form(ex.parse("eps*x"))
        ray_fam = ex.parse("x*(x^2)^((eps-1)/2)")
        lsi_fam = md.WeightSpec.a_form(ex.parse("-(x-1)^2"))
        cases = [
            (gal.gallery_model("ou"), None, 2048),
            (gal.gallery_model("power", alpha=1.5), None, 2048),
            (gal.gallery_model("quartic"), None, 2048),
            (gal.gallery_model("smoothed-exponential"), 60.0, 4096),
            (gal.gallery_model("double-well", beta=0.5), None, 2048),
            (gal.gallery_model("cauchy"), None, 2048),
        ]
        for m, R, n in cases:
            unit_sigma = np.allclose(m.sigma_fn(np.linspace(-1, 1, 5)), 1.0)
            reports = [bd.veysseire_lower(m, bd.OptConfig(R=R))]
            if unit_sigma:
                reports.append(bd.chen_wang_lower(
                    m, z_fam, bd.OptConfig(R=R, box={"eps": (0.1, 3.0)})))
                reports.append(bd.rayleigh_upper(
                    m, ray_fam, bd.OptConfig(R=R, box={"eps": (0.55, 2.0)})))
                reports.extend(bd.muckenhoupt(m, bd.OptConfig(R=R)))
                reports.append(bd.lsi_lower(m, dec_family=lsi_fam,
                                            opt_cfg=bd.OptConfig(R=R)))
            g = orc.spectral_gap_fd(m, R=R, n=n)
            doc = bd.assemble_report(m, reports, g)
            assert doc["violations"] == [], m.name

        # the weight rebuilt from the reference eigenvector has a flat rate
        for m in (gal.gallery_model("ou"), gal.gallery_model("quartic"),
                  gal.gallery_model("double-well", beta=0.5)):
            ew = orc.eigvec_weight(m)
            assert ew.flatness < 0.01, m.name


def test_11_stochastic_identity_suite():
    with _Budget("stochastic identity suite", 300):
        # derivative commutation at a fixed seed, 1e5 paths
        big = mc.MCConfig(step=1.0e-3, horizon=0.5, paths=100000, seed=2024)
        for m in (gal.gallery_model("ou"), gal.gallery_model("quartic")):
            r = mc.check_intertwining(m, md.WeightSpec.direct("1"),
                                      "tanh(x)", 0.5, 0.5, big)
            assert r.conclusive and r.zscore < 3.0, m.name

        # one-sided comparisons hold with margin; the exponential test
        # function saturates the log-Sobolev form within noise
        cfg = mc.MCConfig(step=1.0e-3, horizon=1.0, paths=20000, seed=42)
        r = mc.check_subintertwining(gal.gallery_model("ou"),
                                     md.WeightSpec.direct("1"),
                                     q.PhiSpec.poincare(), "tanh(x)",
                                     0.5, 0.5, cfg)
        assert r.conclusive and r.margin_zscore > -3.0
        r = mc.check_subintertwining(gal.gallery_model("quartic"),
                                     md.WeightSpec.a_form(ex.parse("-(x-1)^2")),
                                     q.PhiSpec.log_sobolev(), "2 + tanh(x)",
                                     0.4, 0.5, cfg)
        assert r.conclusive and r.margin_zscore > -3.0
        r = mc.check_subintertwining(gal.gallery_model("ou"),
                                     md.WeightSpec.direct("1"),
                                     q.PhiSpec.log_sobolev(), "exp(0.3*x)",
                                     0.2, 0.5, cfg)
        assert r.conclusive and abs(r.margin_zscore) < 3.0

        # reflected/absorbed kernel commutation: d/dx of the reflected
        # semigroup equals the absorbed semigroup of the derivative
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
