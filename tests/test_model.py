"""Model construction, weighted duals and the structural identities that
tie the two together.

The weighted-derivative dual is exercised through independent routes (a
given directly, a given as e^W, the potential given in closed form vs
recovered by quadrature) which must agree to quadrature accuracy.  Closed
forms used as references are stated next to each test.
"""

import math

import numpy as np
import pytest

from diffgap import bounds as bd
from diffgap import expr as ex
from diffgap import gallery as gal
from diffgap import model as md
from diffgap import quad as q

BETA = 2.5


def quartic():
    return md.build_model(sigma="1", target_potential="x^4/4", name="quartic")


def std_normal():
    return md.build_model(sigma="1", target_potential="x^2/2", name="std-normal")


def cauchy_sqrt(beta=BETA):
    return md.build_model(
        sigma="sqrt(1+x^2)",
        target_potential="b*log(1+x^2)",
        params={"b": beta},
        name="cauchy-sqrt",
    )


class TestBuildModel:
    def test_drift_and_target_routes_agree(self):
        # same diffusion given two ways: b = -x vs mu ~ e^{-x^2/2}
        m_drift = md.build_model(sigma="1", drift="-x")
        m_target = std_normal()
        xs = np.linspace(-3.0, 3.0, 101)
        assert np.max(np.abs(m_drift.U(xs) - m_target.U(xs))) < 1e-12
        assert np.max(np.abs(m_drift.drift_fn(xs) - m_target.drift_fn(xs))) < 1e-12
        z = math.sqrt(2.0 * math.pi)
        assert abs(m_drift.normalization() - z) < 1e-10 * z
        assert abs(m_target.normalization() - z) < 1e-10 * z

    def test_target_mode_drift_formula(self):
        # b = 2 sigma sigma' - sigma^2 Utilde'; for sigma^2 = 1 + x^2 and
        # Utilde = beta log(1+x^2) this collapses to b = 2(1-beta) x
        m = cauchy_sqrt()
        xs = np.linspace(-10.0, 10.0, 201)
        assert np.max(np.abs(m.drift_fn(xs) - 2.0 * (1.0 - BETA) * xs)) < 1e-10

    def test_target_mode_potential(self):
        # U = Utilde - 2 log sigma = (beta - 1) log(1+x^2), anchored at 0
        m = cauchy_sqrt()
        xs = np.linspace(-10.0, 10.0, 201)
        ref = (BETA - 1.0) * np.log1p(xs * xs)
        assert np.max(np.abs(m.U(xs) - ref)) < 1e-10
        assert m.U(0.0) == 0.0

    def test_heavy_tail_normalization(self):
        # int (1+x^2)^{-5/2} dx = 4/3
        m = cauchy_sqrt(2.5)
        assert m.tail_kind == "polynomial"
        assert abs(m.normalization() - 4.0 / 3.0) < 1e-10

    def test_interval_anchoring(self):
        m = md.build_model(sigma="1", target_potential="x", domain=(0.0, 10.0))
        assert m.anchor == 5.0
        assert abs(m.U(5.0)) < 1e-14
        assert abs(m.density(5.0) - 1.0) < 1e-14
        assert m.boundary == "neumann"

    def test_tail_classification(self):
        assert std_normal().tail_kind == "exponential"
        assert cauchy_sqrt().tail_kind == "polynomial"
        m = md.build_model(sigma="1", target_potential="x^2", domain=(-1.0, 1.0))
        assert m.tail_kind == "exponential"

    def test_tail_override(self):
        m = md.build_model(sigma="1", target_potential="x^2/2", tail_kind="polynomial")
        assert m.tail_kind == "polynomial"
        with pytest.raises(md.ModelError, match="tail_kind"):
            md.build_model(sigma="1", target_potential="x^2/2", tail_kind="gaussian")

    def test_parameter_binding(self):
        m = md.build_model(sigma="1", drift="-k*x", params={"k": 2.0})
        assert abs(m.U(1.0) - 1.0) < 1e-12  # U = k x^2 / 2

    def test_exactly_one_specification(self):
        with pytest.raises(md.ModelError, match="exactly one"):
            md.build_model(sigma="1", drift="-x", target_potential="x^2/2")
        with pytest.raises(md.ModelError, match="exactly one"):
            md.build_model(sigma="1")

    def test_sigma_positive_required(self):
        with pytest.raises(md.ModelError, match="positive"):
            md.build_model(sigma="x", drift="-x")
        with pytest.raises(md.ModelError, match="positive"):
            md.build_model(sigma="x^2", drift="-x")

    def test_unbound_parameter_rejected(self):
        with pytest.raises(md.ModelError, match="unbound"):
            md.build_model(sigma="1", drift="-k*x")

    def test_domain_validation(self):
        with pytest.raises(md.ModelError, match="domain"):
            md.build_model(sigma="1", drift="-x", domain="circle")
        with pytest.raises(md.ModelError, match="interval"):
            md.build_model(sigma="1", drift="-x", domain=(3.0, 1.0))
        with pytest.raises(md.ModelError, match="boundary"):
            md.build_model(sigma="1", drift="-x", boundary="neumann")
        with pytest.raises(md.ModelError, match="boundary"):
            md.build_model(sigma="1", drift="-x", domain=(0.0, 1.0), boundary="periodic")

    def test_parse_errors_surface(self):
        with pytest.raises(md.ModelError, match="drift"):
            md.build_model(sigma="1", drift="x +* 2")


class TestDensity:
    def test_pointwise_closed_form(self):
        # e^{-U}/sigma^2 = (1+x^2)^{-beta} for the heavy-tailed family
        m = cauchy_sqrt()
        xs = np.linspace(-5.0, 5.0, 101)
        ref = (1.0 + xs * xs) ** (-BETA)
        assert np.max(np.abs(m.density(xs) - ref)) < 1e-12
        assert np.max(np.abs(m.log_density(xs) - np.log(ref))) < 1e-12

    @pytest.mark.parametrize("name, kw", [
        ("ou", {}), ("quartic", {}), ("smoothed-exponential", {}),
        ("power", {"alpha": 1.5}), ("power", {"alpha": 2.861}),
        ("double-well", {"beta": 0.5}),
        ("cauchy", {}), ("cauchy", {"variant": "linear"}),  # sigma depends on x
        ("drift", {}),  # U is numeric: the antiderivative path
    ])
    def test_density_matches_the_two_call_formula_bit_for_bit(self, name, kw):
        # a U given as a tree makes the density one compiled tree
        # exp(-U)/sigma^2 (exp(-U) for sigma = 1); its values are those of
        # exp(-U(x)) / sigma(x)**2, byte for byte, on and off the probe grid
        m = (md.build_model(sigma="1", drift="-x^3") if name == "drift"
             else gal.gallery_model(name, **kw))
        assert (m.density_expr is None) == (name == "drift")
        xs = np.concatenate([m.probe_grid(), np.linspace(-60.0, 60.0, 4001),
                             np.geomspace(1e-8, 1e8, 301), -np.geomspace(1e-8, 1e8, 301)])
        with np.errstate(all="ignore"):
            ref = np.exp(-np.asarray(m.U(xs), dtype=float)) / m.sigma_fn(xs) ** 2
        got = m.density(xs)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_normalization_cached(self):
        m = std_normal()
        assert m.normalization() == m.normalization()
        assert abs(math.log(m.normalization()) - 0.5 * math.log(2.0 * math.pi)) < 1e-10

    def test_numeric_potential_matches_exact(self):
        # drift route has no closed-form U; the cumulative route must still
        # deliver quadrature-level accuracy inside the working window
        m = md.build_model(sigma="1", drift="-x^3")
        xs = np.linspace(-5.0, 5.0, 101)
        assert np.max(np.abs(m.U(xs) - xs**4 / 4.0)) < 1e-10

    def test_numeric_potential_linear_continuation(self):
        # U from a drift alone and the log-weight W of a z_form weight with no
        # closed form share one antiderivative routine; outside the working
        # window [-24, 24] both continue linearly: finite, increasing
        m = md.build_model(sigma="1", drift="-x")
        d = md.realize_weight(std_normal(), md.WeightSpec.z_form("x + x^3"))
        assert d.weight_expr is None
        for F in (m.U, d.log_weight):
            for s in (1.0, -1.0):
                assert np.isfinite(F(40.0 * s))
                assert F(40.0 * s) > F(24.0 * s) > F(10.0 * s)
                # past the edge the increments are those of a straight line
                step = F(30.0 * s) - F(25.0 * s)
                assert abs((F(40.0 * s) - F(30.0 * s)) - 2.0 * step) < 1e-9 * abs(step)


class TestAntiderivative:
    """``_antiderivative``: cumulative Simpson at the knots, cubic Hermite
    with the exact slopes between them."""

    WP = "x^3/2 - 1.3*x/(1+x^2) + 0.2*tanh(3*x)"

    @pytest.fixture(scope="class")
    def F(self):
        return md._antiderivative(ex.parse(self.WP), ("line",), 0.0)

    def wp(self, x):
        return ex.evaluate(ex.parse(self.WP), x)

    def test_matches_adaptive_quadrature(self, F):
        from scipy.integrate import quad as scipy_quad

        def wp(t):
            return t ** 3 / 2 - 1.3 * t / (1 + t * t) + 0.2 * math.tanh(3 * t)

        xs = np.linspace(-6.0, 6.0, 200)
        ref = np.array([scipy_quad(wp, 0.0, x, epsabs=1e-13, epsrel=1e-13)[0] for x in xs])
        assert np.max(np.abs(F(xs) - ref)) <= 1e-10

    def test_knot_values_are_the_cumulative_simpson_sums(self, F):
        grid = np.linspace(-md._WORK_R, md._WORK_R, md._WORK_N)
        vals = q.cumulative_on_grid(self.wp, grid)
        vals = vals - np.interp(0.0, grid, vals)
        assert np.array_equal(F(grid), vals)

    @pytest.mark.parametrize("k", [4096 + 171, 4096 - 683, 8000])
    def test_slope_is_continuous_across_a_knot(self, F, k):
        knot = np.linspace(-md._WORK_R, md._WORK_R, md._WORK_N)[k]
        eps = 1e-6
        left = (F(knot) - F(knot - eps)) / eps
        right = (F(knot + eps) - F(knot)) / eps
        slope = float(self.wp(knot))
        # a kink of the interpolant (linear interpolation jumps by about
        # h F'' = 0.006 F'' here) would separate the one-sided slopes
        assert abs(left - slope) < 1e-4 * (1.0 + abs(slope))
        assert abs(right - slope) < 1e-4 * (1.0 + abs(slope))


class TestWeightRealization:
    # each pair is realized through two independent parametrizations; the
    # killing rate, dual drift and log-weight must agree to quadrature
    # accuracy on the probe window
    PAIRS = [
        ("quartic", "2 + tanh(x)"),
        ("normal", "exp(-x^2/4)"),
        ("cauchy", "sqrt(1+x^2)"),
        ("cauchy", "1 + x^2"),
        ("dwell", "1 + x^2/2"),
    ]

    def _model(self, tag):
        if tag == "quartic":
            return quartic()
        if tag == "normal":
            return std_normal()
        if tag == "cauchy":
            return cauchy_sqrt()
        return md.build_model(
            sigma="1", target_potential="(x^2-b)^2/4", params={"b": 1.0}, name="dwell"
        )

    @pytest.mark.parametrize("tag,weight", PAIRS)
    def test_direct_and_log_routes_agree(self, tag, weight):
        m = self._model(tag)
        a = ex.parse(weight)
        d1 = md.realize_weight(m, md.WeightSpec.direct(a))
        d2 = md.realize_weight(m, md.WeightSpec.exp_w(ex.log(a)))
        xs = m.probe_grid(6.0, 401)
        scale = 1.0 + np.max(np.abs(d1.v_fn(xs)))
        assert np.max(np.abs(d1.v_fn(xs) - d2.v_fn(xs))) < 1e-8 * scale
        assert np.max(np.abs(d1.drift_fn(xs) - d2.drift_fn(xs))) < 1e-8 * scale
        assert np.max(np.abs(d1.log_weight(xs) - d2.log_weight(xs))) < 1e-8

    def test_unit_weight_reproduces_base(self):
        # a = 1: the dual is the base flow killed at rate -b'
        m = std_normal()
        d = md.realize_weight(m, md.WeightSpec.direct("1"))
        xs = np.linspace(-4.0, 4.0, 81)
        assert np.max(np.abs(d.v_fn(xs) - 1.0)) < 1e-12  # -b' = 1 for b = -x
        assert np.max(np.abs(d.drift_fn(xs) - m.drift_fn(xs))) < 1e-12
        assert np.max(np.abs(d.log_weight(xs))) < 1e-12

    def test_ground_state_weight_kills_nothing(self):
        # a = e^{-U} makes the killing rate vanish identically
        for m in (std_normal(), quartic()):
            d = md.realize_weight(m, md.WeightSpec.exp_w(ex.neg(m.u_expr)))
            xs = m.probe_grid(6.0, 401)
            scale = 1.0 + float(np.max(np.abs(ex.evaluate(m.u_prime, xs))) ** 2)
            assert np.max(np.abs(d.v_fn(xs))) < 1e-8 * scale

    def test_ground_state_weight_direct_route(self):
        m = std_normal()
        d = md.realize_weight(m, md.WeightSpec.direct(ex.exp(ex.neg(m.u_expr))))
        xs = m.probe_grid(6.0, 401)
        assert np.max(np.abs(d.v_fn(xs))) < 1e-8

    def test_z_form_killing_rate_closed_form(self):
        # sigma = 1, Z = eps x: V = eps + x^6/4 + (3/2 - eps^2) x^2
        m = quartic()
        eps = 1.2
        d = md.realize_weight(m, md.WeightSpec.z_form(ex.parse("1.2*x")))
        xs = np.linspace(-4.0, 4.0, 161)
        ref = eps + xs**6 / 4.0 + (1.5 - eps * eps) * xs * xs
        scale = 1.0 + np.max(np.abs(ref))
        assert np.max(np.abs(d.v_fn(xs) - ref)) < 1e-12 * scale

    def test_z_form_dual_drift_closed_form(self):
        # b_a = b - 2 W' = -2 eps x for the quartic with Z = eps x
        eps = 1.2
        d = md.realize_weight(quartic(), md.WeightSpec.z_form(ex.parse("1.2*x")))
        xs = np.linspace(-4.0, 4.0, 161)
        assert np.max(np.abs(d.drift_fn(xs) + 2.0 * eps * xs)) < 1e-12 * (1 + 2 * eps * 4)

    def test_z_form_closed_weight(self):
        # linear Z with exact U gives a closed-form weight e^{Z x^2/2 - U/2}
        eps = 1.2
        d = md.realize_weight(quartic(), md.WeightSpec.z_form(ex.parse("1.2*x")))
        assert d.weight_expr is not None
        xs = np.linspace(-3.0, 3.0, 61)
        ref = np.exp(eps * xs**2 / 2.0 - xs**4 / 8.0)
        assert np.max(np.abs(d.weight_fn(xs) - ref)) < 1e-12

    def test_z_form_matches_exp_w(self):
        m = quartic()
        dz = md.realize_weight(m, md.WeightSpec.z_form(ex.parse("1.2*x")))
        de = md.realize_weight(m, md.WeightSpec.exp_w(ex.parse("1.2*x^2/2 - x^4/8")))
        xs = m.probe_grid(6.0, 401)
        scale = 1.0 + np.max(np.abs(dz.v_fn(xs)))
        assert np.max(np.abs(dz.v_fn(xs) - de.v_fn(xs))) < 1e-10 * scale
        assert np.max(np.abs(dz.log_weight(xs) - de.log_weight(xs))) < 1e-10

    def test_z_form_requires_unit_sigma(self):
        with pytest.raises(md.ModelError, match="sigma"):
            md.realize_weight(cauchy_sqrt(), md.WeightSpec.z_form("x"))

    def test_z_form_nonlinear_weight_by_quadrature(self):
        # Z = tanh(x) on the normal model: W = log cosh x - x^2/4 exactly
        d = md.realize_weight(std_normal(), md.WeightSpec.z_form(ex.tanh(ex.X)))
        assert d.weight_expr is None
        xs = np.linspace(-6.0, 6.0, 121)
        ref = np.log(np.cosh(xs)) - xs * xs / 4.0
        assert np.max(np.abs(d.log_weight(xs) - ref)) < 1e-9

    def test_a_form_weight_by_quadrature(self):
        # W' = e^{-(x-1)^2}: W(x) = (sqrt(pi)/2)(erf(x-1) + erf(1))
        d = md.realize_weight(std_normal(), md.WeightSpec.a_form(ex.parse("-(x-1)^2")))
        xs = np.linspace(-5.0, 5.0, 101)
        ref = 0.5 * math.sqrt(math.pi) * (
            np.array([math.erf(v - 1.0) for v in xs]) + math.erf(1.0)
        )
        assert np.max(np.abs(d.log_weight(xs) - ref)) < 1e-9
        # W' = e^A > 0: the realized weight is increasing by construction
        w = d.log_weight(xs)
        assert np.all(np.diff(w) > 0)

    def test_a_form_killing_rate_against_finite_differences(self):
        # independent route: apply the defining formula to numeric values of
        # a obtained from the quadrature weight, differentiating by central
        # differences
        m = std_normal()
        d = md.realize_weight(m, md.WeightSpec.a_form(ex.parse("-(x-1)^2")))
        h = 1e-5
        for x in (-2.0, -0.5, 0.0, 0.7, 2.0):
            pts = np.array([x - 2 * h, x - h, x, x + h, x + 2 * h])
            a = np.exp(d.log_weight(pts))
            da = (a[3] - a[1]) / (2 * h)
            dda = (a[3] - 2 * a[2] + a[1]) / (h * h)
            b = float(m.drift_fn(x))
            db = float(ex.evaluate(ex.simplify(ex.differentiate(m.drift)), x))
            v_ref = dda / a[2] + b * da / a[2] - 2.0 * (da / a[2]) ** 2 - db
            assert abs(d.v_fn(x) - v_ref) < 1e-4 * (1.0 + abs(v_ref))

    def test_dual_measure_is_weighted_base(self):
        # d mu_a / d mu = (sigma/a)^2 pointwise (both sides unnormalized)
        m = cauchy_sqrt()
        d = md.realize_weight(m, md.WeightSpec.direct("1 + x^2"))
        xs = np.linspace(-5.0, 5.0, 101)
        ratio = d.density(xs) / m.density(xs)
        sig = ex.evaluate(m.sigma, xs)
        a = d.weight_fn(xs)
        assert np.max(np.abs(ratio - (sig / a) ** 2)) < 1e-10

    def test_dual_normalization_heavy_tails(self):
        # a = sigma leaves the measure unchanged
        m = cauchy_sqrt()
        d = md.realize_weight(m, md.WeightSpec.direct(m.sigma))
        assert abs(d.normalization() - m.normalization()) < 1e-9

    def test_weight_positivity_guard(self):
        m = std_normal()
        with pytest.raises(md.ModelError, match="positive"):
            md.realize_weight(m, md.WeightSpec.direct("tanh(x)"))
        with pytest.raises(md.ModelError, match="positive"):
            md.realize_weight(m, md.WeightSpec.direct("x^2"))

    def test_weight_underflow_guard(self):
        # a representable only near the origin is degenerate on the window
        with pytest.raises(md.ModelError):
            md.realize_weight(
                quartic(), md.WeightSpec.direct(ex.parse("exp(1.2*x^2/2 - x^4/8)"))
            )

    def test_weight_unbound_parameter(self):
        with pytest.raises(md.ModelError, match="unbound"):
            md.realize_weight(std_normal(), md.WeightSpec.direct("c + x^2"))

    def test_weight_parameter_binding(self):
        d = md.realize_weight(
            std_normal(), md.WeightSpec.direct("c + x^2"), params={"c": 2.0}
        )
        assert abs(d.weight_fn(0.0) - 2.0) < 1e-14

    def test_unknown_kind(self):
        with pytest.raises(md.ModelError, match="kind"):
            md.realize_weight(std_normal(), md.WeightSpec("mystery", ex.X))

    def test_killing_rate_formula_direct(self):
        # the direct weight a = sigma on the heavy-tailed model against a
        # by-hand evaluation: V = (2 beta - 1)/(1 + x^2)
        m = cauchy_sqrt()
        d = md.realize_weight(m, md.WeightSpec.direct(m.sigma))
        xs = np.linspace(-8.0, 8.0, 161)
        ref = (2.0 * BETA - 1.0) / (1.0 + xs * xs)
        assert np.max(np.abs(d.v_fn(xs) - ref)) < 1e-12


# one weight a per rule of W' = (log a)', each positive on [-5, 5]
LOG_DERIVATIVE_CASES = {
    "exp": "exp(tanh(x) + x^2)",
    "power": "(1 + x^2)^0.5",
    "product": "(1 + x^2)*exp(x)*3",
    "quotient": "exp(x)/(2 + tanh(x))",
    "neg": "-(-1 - x^2)",
    "abs": "abs(tanh(x) - 2)",
    "const": "2.5",
    "param": "c",
    "other": "1 + x^2",
    "nested": "(2 + tanh(x))^3*exp(-x)/(1 + x^2)^2",
}


@pytest.mark.parametrize("case", sorted(LOG_DERIVATIVE_CASES))
def test_log_derivative_rules(case):
    # each rule against the evaluated quotient a'/a
    a = ex.parse(LOG_DERIVATIVE_CASES[case])
    xs = np.linspace(-5.0, 5.0, 201)
    params = {"c": 1.7}
    got = ex.evaluate(ex.simplify(md._log_derivative(a)), xs, params)
    ref = ex.evaluate(ex.differentiate(a), xs, params) / ex.evaluate(a, xs, params)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-14)


def test_log_derivative_never_divides_a_by_itself():
    # ou with a = exp(-30x): a underflows from x ~ 25 on, where a''/a was 0/0;
    # W' = -30 gives V_a = 30x - 899 and b_a = 60 - x exactly
    d = md.realize_weight(gal.gallery_model("ou"), md.WeightSpec.direct("exp(-30*x)"))
    assert d.log_weight_prime == ex.const(-30.0)
    xs = np.linspace(-30.0, 30.0, 601)
    np.testing.assert_allclose(d.v_fn(xs), 30.0 * xs - 899.0, rtol=1e-12, atol=0)
    np.testing.assert_allclose(d.drift_fn(xs), 60.0 - xs, rtol=1e-12, atol=0)


@pytest.mark.parametrize("sigma, unit", [("1", True), ("1.0000000000001", True),
                                         ("1.00000000001", False)])
def test_z_form_and_muckenhoupt_share_the_unit_sigma_test(sigma, unit):
    # z_form weights and the Muckenhoupt criterion accept the same sigmas:
    # within 1e-12 of 1 on the probe grid; each refuses with its own error
    m = md.build_model(sigma=sigma, target_potential="x^2/2")
    assert md._sigma_is_one(m) is unit
    if unit:
        md.derive_weight(m, md.WeightSpec.z_form(ex.parse("x")))
        assert bd.muckenhoupt(m).b > 0
    else:
        with pytest.raises(md.ModelError, match="z_form weights require sigma = 1"):
            md.derive_weight(m, md.WeightSpec.z_form(ex.parse("x")))
        with pytest.raises(bd.BoundError, match="Muckenhoupt criterion requires unit diffusion"):
            bd.muckenhoupt(m)


class TestWeightFamilyBinding:
    """A family derived once with free parameters and bound at a point must
    evaluate like the family with the point substituted before derivation.
    One point per family makes a coefficient exactly 0 or 1, where the
    substituted tree folds terms away and the bound tree keeps them.

    One fold changes the representation: z_form eps*x + c*x^3 at c = 0 is
    linear once substituted, so it gets the closed-form weight, while the
    bound family integrates W' numerically.  There the weight agrees to
    quadrature accuracy only."""

    XS = np.linspace(-6.0, 6.0, 400)
    CASES = [
        ("direct", "1+eps*x^2", [{"eps": 0.0}, {"eps": 0.3}, {"eps": 1.0}]),
        ("exp_w", "-eps*x^2/2", [{"eps": 0.0}, {"eps": 0.5}, {"eps": 1.7}]),
        ("z_form", "eps*x", [{"eps": 1.0}, {"eps": 0.4}, {"eps": 1.2247}]),
        ("z_form", "eps*x + c*x^3",
         [{"eps": 1.3, "c": 0.0}, {"eps": 1.0, "c": 0.2}, {"eps": 0.6, "c": -0.05}]),
        ("a_form", "-(eps*x-1)^2", [{"eps": 0.0}, {"eps": 1.0}, {"eps": 0.45}]),
    ]

    @pytest.mark.parametrize("kind,family,points", CASES,
                             ids=[f"{k}:{f}" for k, f, _ in CASES])
    def test_bound_family_matches_substituted_weight(self, kind, family, points):
        m = quartic()
        payload = ex.parse(family)
        fam = md.derive_weight(m, md.WeightSpec(kind, payload))
        for theta in points:
            bound = fam.bind(theta)
            ref = md.realize_weight(m, md.WeightSpec(kind, ex.substitute(payload, theta)))
            assert bound.v_expr is fam.v_expr and bound.params == theta
            folded = (bound.weight_expr is None) != (ref.weight_expr is None)
            assert not folded or (family, theta.get("c")) == ("eps*x + c*x^3", 0.0)
            for name in ("v_fn", "drift_fn", "weight_fn", "log_weight"):
                got = np.asarray(getattr(bound, name)(self.XS), dtype=float)
                want = np.asarray(getattr(ref, name)(self.XS), dtype=float)
                np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
                if folded and name == "log_weight":
                    tol = {"rtol": 0.0, "atol": 1e-10}
                elif folded and name == "weight_fn":
                    tol = {"rtol": 1e-10, "atol": 0.0}
                else:
                    tol = {"rtol": 1e-13, "atol": 0.0}
                np.testing.assert_allclose(got, want, **tol,
                                           err_msg=f"{kind} {family} at {theta}: {name}")

    def test_binding_keeps_the_error_messages(self):
        m = quartic()
        spec = md.WeightSpec.direct("1+eps*x^2")
        with pytest.raises(md.ModelError) as free:
            md.derive_weight(m, spec).bind({})
        assert str(free.value) == "direct weight payload has unbound parameters ['eps']"
        with pytest.raises(md.ModelError, match="positive") as bound:
            md.derive_weight(m, spec).bind({"eps": -0.5})
        with pytest.raises(md.ModelError) as substituted:
            md.realize_weight(m, md.WeightSpec.direct("1-0.5*x^2"))
        assert str(bound.value) == str(substituted.value)

    def test_log_weight_evaluates_the_anchor_once(self, monkeypatch):
        d = md.realize_weight(quartic(), md.WeightSpec.z_form("eps*x"), {"eps": 1.2712})
        first = d.log_weight(self.XS)
        calls = []
        evaluate = ex.evaluate
        monkeypatch.setattr(ex, "evaluate", lambda *a, **k: calls.append(a[1]) or evaluate(*a, **k))
        np.testing.assert_array_equal(d.log_weight(self.XS), first)
        assert len(calls) == 1 and calls[0] is self.XS
