"""Quadrature, measure expectations and the phi admissibility check.

Reference values are closed forms or scipy.integrate results computed
independently of the adaptive integrator under test.
"""

import json
import math

import numpy as np
import pytest
import scipy.integrate
from scipy.special import ndtri

from diffgap import expr as ex
from diffgap import gallery as gal
from diffgap import model as md
from diffgap import quad as q


def std_normal():
    return md.build_model(sigma="1", target_potential="x^2/2", name="std-normal")


class TestIntegrate:
    def test_polynomial_exact(self):
        r = q.integrate(ex.parse("3*x^2"), 0.0, 1.0)
        assert r.converged
        assert abs(r.value - 1.0) < 1e-14

    def test_gaussian_on_line(self):
        r = q.integrate(ex.parse("exp(-x^2/2)"), -math.inf, math.inf)
        assert r.converged
        assert abs(r.value - math.sqrt(2 * math.pi)) < 1e-10

    def test_cauchy_on_line_uses_substitution(self):
        # polynomial tail: x = tan(theta) maps it to a bounded integrand
        r = q.integrate(lambda x: 1.0 / (1.0 + x * x), -math.inf, math.inf)
        assert r.converged
        assert abs(r.value - math.pi) < 1e-12

    def test_half_line_exponential(self):
        r = q.integrate(lambda x: np.exp(-x), 0.0, math.inf)
        assert r.converged
        assert abs(r.value - 1.0) < 1e-10

    def test_half_line_against_scipy(self):
        f = lambda x: np.exp(-x) * np.sin(x) ** 2
        ref, _ = scipy.integrate.quad(f, 0.0, np.inf)
        r = q.integrate(f, 0.0, math.inf)
        assert r.converged
        assert abs(r.value - ref) < 1e-9

    def test_endpoint_singularity(self):
        r = q.integrate(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0)
        assert abs(r.value - 2.0) < 1e-6

    def test_reversed_endpoints_negate(self):
        r = q.integrate(ex.X, 1.0, 0.0)
        assert abs(r.value + 0.5) < 1e-14

    def test_empty_interval(self):
        r = q.integrate(ex.X, 2.0, 2.0)
        assert r.value == 0.0 and r.converged

    def test_linearity_to_roundoff(self):
        f = ex.parse("exp(-x^2/2)")
        g = ex.parse("x^2*exp(-x^2/2)")
        h = ex.parse("2*exp(-x^2/2) + 3*x^2*exp(-x^2/2)")
        a, b = -4.0, 4.0
        lhs = q.integrate(h, a, b).value
        rhs = 2.0 * q.integrate(f, a, b).value + 3.0 * q.integrate(g, a, b).value
        assert abs(lhs - rhs) < 1e-13 * abs(lhs)

    def test_deterministic_repeat(self):
        f = lambda x: np.exp(-x * x) * np.cos(3 * x)
        v1 = q.integrate(f, -math.inf, math.inf).value
        v2 = q.integrate(f, -math.inf, math.inf).value
        assert v1 == v2

    def test_breakpoint_resolves_kink(self):
        r = q.integrate(ex.absval(ex.X), -1.0, 2.0, breakpoints=(0.0,))
        assert r.converged
        assert abs(r.value - 2.5) < 1e-13
        # without the hint the same value is reached within the requested
        # tolerance (rel_tol 1e-8 on a value of 2.5), just less directly
        r2 = q.integrate(ex.absval(ex.X), -1.0, 2.0)
        assert r2.converged
        assert abs(r2.value - 2.5) < 3e-8
        assert r2.neval > r.neval

    def test_budget_exhaustion_flags_not_raises(self):
        cfg = q.QuadConfig(max_subdivisions=3)
        r = q.integrate(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0, cfg)
        assert not r.converged
        assert math.isfinite(r.value)

    def test_nan_integrand_reports_location(self):
        with np.errstate(invalid="ignore"):
            with pytest.raises(q.QuadError, match="NaN at x"):
                q.integrate(lambda x: np.sqrt(x), -1.0, 1.0)

    def test_infinite_integrand_reports_location(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(q.QuadError, match="infinite at x"):
                q.integrate(lambda x: 1.0 / x, -1.0, 1.0)

    def test_infinite_range_error_names_x_not_theta(self):
        # the tan path integrates in theta; the node is reported in x
        with np.errstate(divide="ignore"):
            with pytest.raises(q.QuadError, match=r"infinite at x = 3\.0$"):
                q.integrate(lambda x: 1.0 / (x - 3.0), 0.0, math.inf)

    def test_nan_endpoint_rejected(self):
        with pytest.raises(q.QuadError):
            q.integrate(ex.X, math.nan, 1.0)

    def test_unbound_parameter_rejected(self):
        with pytest.raises(q.QuadError, match="unbound"):
            q.integrate(ex.parse("k*x"), 0.0, 1.0)

    def test_non_callable_rejected(self):
        with pytest.raises(q.QuadError):
            q.integrate("x^2", 0.0, 1.0)

    def test_truncation_path_returns_python_scalars(self):
        r = q.integrate(ex.parse("exp(-x^2)"), -math.inf, math.inf)
        assert abs(r.value - math.sqrt(math.pi)) < 1e-10
        assert type(r.err_est) is float and type(r.converged) is bool
        json.dumps([r.value, r.err_est, r.converged])


class TestRestartFromEdges:
    """breakpoints=r.edges rebuilds r's final partition, so a converged (or
    budget-bound) result is reproduced in one integrand call."""

    @pytest.mark.parametrize("f, a, b, cfg, rtol", [
        # finite: an interior kink and an endpoint singularity
        (lambda x: np.sqrt(np.abs(x - 0.3)) + 1.0 / np.sqrt(x), 1e-300, 1.0, None, 0.0),
        # finite, stopped by the subdivision budget
        (lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0, q.QuadConfig(max_subdivisions=17), 0.0),
        # whole line, a fast-decaying integrand
        (lambda x: np.cos(3.0 * x) * np.exp(-x * x), -math.inf, math.inf, None, 0.0),
        # whole line and half line, polynomial tails
        (lambda x: np.abs(x) ** -0.5 * (1.0 + x * x) ** -1.5, -math.inf, math.inf, None, 1e-14),
        (lambda x: (1.0 + x) ** -3, 0.0, math.inf, None, 1e-14),
    ])
    def test_one_call_same_partition(self, monkeypatch, f, a, b, cfg, rtol):
        calls = []
        batch = q._gk15_batch

        def counted(fn, lo, hi):
            calls.append(len(lo))
            return batch(fn, lo, hi)

        monkeypatch.setattr(q, "_gk15_batch", counted)
        r = q.integrate(f, a, b, cfg)
        assert len(calls) > 1
        assert len(r.edges) == r.subdivisions - 1
        assert list(r.edges) == sorted(r.edges) and all(a < p < b for p in r.edges)
        calls.clear()
        again = q.integrate(f, a, b, cfg, breakpoints=r.edges)
        assert len(calls) == 1
        assert again.subdivisions == r.subdivisions
        assert again.converged == r.converged
        if rtol == 0.0:
            assert again.value == r.value
        else:
            assert abs(again.value - r.value) <= rtol * abs(r.value)

    def test_edges_left_out_of_repr_and_equality(self):
        r = q.IntegrationResult(0.0, 0.0, 0, True, 0)
        assert r.edges == ()
        assert "edges" not in repr(r)
        assert q.IntegrationResult(0.0, 0.0, 0, True, 0, (0.5,)) == r
        assert "edges" not in repr(q.integrate(ex.X, 0.0, 2.0))


class TestCarriedPartition:
    """r.carry is r's partition with negligible-error neighbouring panels
    merged pairwise: a start for a nearby integrand, not an exact restart."""

    CASES = [
        # a smooth bump on a finite interval: panels far from it carry no error
        (lambda x: np.exp(-50.0 * (x - 1.0) ** 2), 0.0, 10.0),
        # finite with an endpoint singularity
        (lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0),
        # whole line, a fast-decaying integrand
        (lambda x: np.cos(3.0 * x) * np.exp(-x * x), -math.inf, math.inf),
        # whole line with polynomial tails, and a half line
        (lambda x: np.abs(x) ** -0.5 * (1.0 + x * x) ** -1.5, -math.inf, math.inf),
        (lambda x: np.exp(-x) * np.cos(x) ** 2, 0.0, math.inf),
    ]

    @pytest.mark.parametrize("f, a, b", CASES)
    def test_ordered_subset_of_edges(self, f, a, b):
        r = q.integrate(f, a, b)
        kept = iter(r.edges)
        assert all(any(p == e for e in kept) for p in r.carry)  # in order
        assert len(r.carry) >= len(r.edges) // 2  # merged pairs are disjoint

    def test_smooth_integrand_coarsens(self):
        r = q.integrate(self.CASES[0][0], 0.0, 10.0)
        assert r.converged
        assert len(r.carry) < len(r.edges)

    @pytest.mark.parametrize("f, a, b", CASES)
    def test_restart_from_carry_converges(self, f, a, b):
        r = q.integrate(f, a, b)
        again = q.integrate(f, a, b, breakpoints=r.carry)
        assert again.converged
        assert abs(again.value - r.value) <= r.err_est

    def test_tan_path_carry_in_x(self):
        f, a, b = self.CASES[3]
        r = q.integrate(f, a, b)
        assert r.carry and set(r.carry) <= set(r.edges)
        # tan(theta) of the panel boundaries, not theta itself
        assert max(abs(p) for p in r.carry) > 0.5 * math.pi

    def test_carry_left_out_of_repr_and_equality(self):
        r = q.IntegrationResult(0.0, 0.0, 0, True, 0)
        assert r.carry == () and "carry" not in repr(r)
        assert q.IntegrationResult(0.0, 0.0, 0, True, 0, (0.5,), (0.5,)) == r


class TestTailProbe:
    """Integrands on an infinite domain are evaluated through x = tan(theta)."""

    def test_constant_integrand_broadcast(self):
        r = q.integrate(lambda x: 0.0, -math.inf, math.inf)
        assert r.value == 0.0 and r.err_est == 0.0 and r.converged


class TestBatchedRefinement:
    """Round-based refinement: every panel picked in a round is bisected and
    all children are evaluated in one integrand call."""

    def test_one_integrand_call_per_round(self):
        calls = []

        def f(x):
            calls.append(np.size(x))
            return np.cos(40.0 * x) * np.exp(-x * x)

        r = q.integrate(f, -math.inf, math.inf)
        assert r.converged
        # the exact value sqrt(pi) e^{-400} is 0 in double precision
        assert abs(r.value) < 1e-10
        assert r.subdivisions >= 40
        assert len(calls) <= r.subdivisions / 4
        assert sum(calls) >= r.neval

    @pytest.mark.parametrize("budget", [1, 2, 3, 17, 2000])
    def test_subdivisions_within_budget(self, budget):
        cfg = q.QuadConfig(max_subdivisions=budget)
        r = q.integrate(lambda x: 1.0 / np.sqrt(x), 1e-300, 1.0, cfg)
        assert 1 <= r.subdivisions <= budget
        assert r.neval == 15 * (2 * r.subdivisions - 1)
        assert math.isfinite(r.value)
        if budget == 3:
            assert not r.converged

    def test_stops_at_floating_resolution(self):
        # a step two ulps into a four-ulp interval: the smallest positive
        # tolerance is not reachable and no panel can be halved below one
        # ulp, so the loop must end, unconverged
        a = 1.0
        step = np.nextafter(np.nextafter(a, 2.0), 2.0)
        b = np.nextafter(np.nextafter(step, 2.0), 2.0)
        cfg = q.QuadConfig(abs_tol=5e-324, rel_tol=0.0)
        r = q.integrate(lambda x: (x >= step).astype(float), a, b, cfg)
        assert 1 <= r.subdivisions <= 4
        assert math.isfinite(r.value) and 0.0 <= r.value <= b - a
        assert not r.converged

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x * np.exp(-x), 0, 3),  # integer endpoints
        (lambda x: np.log(x) * np.sqrt(x), 1e-300, 1.0),
        (lambda x: np.cos(40.0 * x) * np.exp(-x * x), -math.inf, math.inf),
        (lambda x: (1.0 + x * x) ** -1.5, -math.inf, math.inf),  # tan path
        (lambda x: (1.0 + x) ** -3, 0.0, math.inf),  # tan path, half line
    ])
    def test_against_scipy(self, f, a, b):
        ref, _ = scipy.integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=500)
        r = q.integrate(f, a, b)
        assert r.converged
        assert abs(r.value - ref) < 1e-9


class TestQuadConfig:
    @pytest.mark.parametrize("kw, field", [
        ({"rel_tol": math.nan}, "rel_tol"),  # max(abs_tol, nan*|v|) ignores it
        ({"rel_tol": math.inf}, "rel_tol"),  # accepts every first estimate
        ({"rel_tol": 1.0}, "rel_tol"),
        ({"rel_tol": -1e-8}, "rel_tol"),
        ({"abs_tol": -1.0}, "abs_tol"),
        ({"abs_tol": math.nan}, "abs_tol"),
        ({"abs_tol": math.inf}, "abs_tol"),
        ({"abs_tol": 0.0, "rel_tol": 0.0}, "abs_tol and rel_tol"),  # nothing converges
        ({"max_subdivisions": 0}, "max_subdivisions"),
        ({"max_subdivisions": -5}, "max_subdivisions"),
    ])
    def test_meaningless_settings_refused_at_construction(self, kw, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            q.QuadConfig(**kw)

    @pytest.mark.parametrize("kw", [
        {}, {"abs_tol": 0.0}, {"rel_tol": 0.0}, {"rel_tol": 0.5}, {"max_subdivisions": 1},
    ])
    def test_meaningful_settings_accepted(self, kw):
        cfg = q.QuadConfig(**kw)
        assert q.integrate(lambda x: np.exp(-x), 0.0, 1.0, cfg).subdivisions >= 1


class TestGridsAndCumulative:
    def test_chebyshev_grid_shape(self):
        g = q.chebyshev_grid(12.0, 2049)
        assert len(g) == 2049
        assert g[0] == -12.0 and g[-1] == 12.0
        assert np.all(np.diff(g) > 0)
        assert g[1024] == 0.0
        assert np.allclose(g, -g[::-1])

    def test_cumulative_exact_for_cubics(self):
        x = np.linspace(0.0, 2.0, 101)
        c = q.cumulative_on_grid(lambda t: t**3, x)
        assert np.max(np.abs(c - x**4 / 4)) < 1e-13

    def test_cumulative_exponential(self):
        x = np.linspace(0.0, 1.0, 201)
        c = q.cumulative_on_grid(lambda t: np.exp(t), x)
        assert np.max(np.abs(c - (np.exp(x) - 1.0))) < 1e-11

    def test_cumulative_nonuniform_grid(self):
        x = q.chebyshev_grid(1.0, 201)
        c = q.cumulative_on_grid(lambda t: t * t, x)
        assert np.max(np.abs(c - (x**3 + 1.0) / 3.0)) < 1e-10

    def test_cumulative_accepts_expressions(self):
        x = np.linspace(0.0, 1.0, 51)
        c = q.cumulative_on_grid(ex.parse("2*x"), x)
        assert np.max(np.abs(c - x * x)) < 1e-13


class TestMeasureFunctionals:
    def test_gaussian_exponential_moments(self):
        # for X ~ N(0,1): E e^X = sqrt(e), E e^{2X} = e^2, E X e^X = sqrt(e),
        # so Ent(e^X) = E e^X log e^X - E e^X log E e^X = sqrt(e)/2
        m = std_normal()
        mean = q.mu_expectation(m, ex.exp(ex.X))
        assert abs(mean - math.exp(0.5)) < 1e-8
        assert abs(q.mu_expectation(m, ex.parse("exp(2*x)")) - math.exp(2.0)) < 1e-7
        ent = q.mu_expectation(m, ex.parse("x*exp(x)")) - mean * math.log(mean)
        assert abs(ent - math.exp(0.5) / 2.0) < 1e-8

    def test_mu_expectation_normalized(self):
        m = std_normal()
        assert abs(q.mu_expectation(m, lambda x: np.ones_like(x)) - 1.0) < 1e-10
        assert abs(q.mu_expectation(m, ex.parse("x^2")) - 1.0) < 1e-8

    @pytest.mark.parametrize("model", [
        std_normal,
        lambda: md.build_model(sigma="sqrt(1+x^2)", target_potential="2.5*log(1+x^2)"),
        lambda: md.build_model(sigma="1", drift="-x^3"),  # numeric U: no density tree
        lambda: md.build_model(sigma="1+x^2", target_potential="x^2", domain=(-1.0, 2.0)),
    ], ids=["gaussian", "cauchy", "numeric-U", "interval"])
    @pytest.mark.parametrize("g, params", [
        ("exp(x)", {}), ("(a*x)^2", {"a": 0.7}), ("x*(x^2)^((e-1)/2)", {"e": 0.85}),
        # overflows where the gaussian density has underflowed to 0; the
        # heavy tails make it an error
        ("exp(x^2/4)", {}),
    ])
    def test_expression_integrand_matches_callable(self, model, g, params):
        # an expression is compiled with the density tree; its results, or
        # the error, are those of the callable g(x) * density(x), bit for bit
        m = model()
        cfg = q.QuadConfig()
        tree = ex.parse(g)

        def outcome(integrand, **kw):
            try:
                r = q._mu_integral(m, integrand, cfg, breakpoints=(0.5,), **kw)
            except q.QuadError as e:
                return str(e)
            return r.value.hex(), r.err_est.hex(), r.subdivisions, r.edges

        got = outcome(tree, params=params)
        assert got == outcome(lambda x: ex.evaluate(tree, x, params))
        assert isinstance(got, tuple) or got.startswith("integrand is infinite"), got

    def test_overflow_in_the_tail_names_x(self):
        # exp(x) overflows beyond x = 709.78, far out in cauchy's tail
        with pytest.raises(q.QuadError, match="infinite at x = ") as info:
            q._mu_integral(gal.gallery_model("cauchy"), ex.parse("exp(x)"), q.QuadConfig())
        assert float(str(info.value).rsplit("= ", 1)[1]) > math.log(np.finfo(float).max)

    def test_expression_integrand_unbound_parameter_refused(self):
        with pytest.raises(q.QuadError, match="unbound parameters"):
            q._mu_integral(std_normal(), ex.parse("a*x"), q.QuadConfig(), params={"b": 1.0})

    def test_median_symmetric(self):
        m = std_normal()
        assert abs(q.median(m)) < 1e-9

    def test_median_asymmetric_interval(self):
        # mu ~ e^{-x} on (0, 10): median = -log((1 + e^{-10})/2)
        m = md.build_model(sigma="1", target_potential="x", domain=(0.0, 10.0))
        ref = -math.log((1.0 + math.exp(-10.0)) / 2.0)
        assert abs(q.median(m) - ref) < 1e-9

    def test_median_polynomial_tails(self):
        m = md.build_model(
            sigma="sqrt(1+x^2)", target_potential="2.5*log(1+x^2)", name="heavy"
        )
        assert abs(q.median(m)) < 1e-9

    def test_median_far_from_the_origin(self):
        # the bisection runs in theta over the whole line, not in a window
        m = md.build_model(sigma="1", target_potential="(x-30)^2/2", name="ou-30")
        assert abs(q.median(m) - 30.0) < 1e-9

    def test_nan_where_density_positive_raises(self):
        # only a zero density masks the integrand; a NaN the measure weighs
        # is still an error
        m = std_normal()
        with pytest.raises(q.QuadError, match="NaN at x = "):
            q.mu_expectation(m, lambda x: np.where(np.abs(x) < 1.0, np.nan, 1.0))


class TestPhiSpecs:
    def test_builtin_specs_admissible(self):
        for spec in (q.PhiSpec.poincare(), q.PhiSpec.log_sobolev(), q.PhiSpec.beckner(1.5)):
            v = q.validate_phi(spec)
            assert v.ok, v.reasons

    def test_beckner_exponent_range(self):
        for p in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(ValueError):
                q.PhiSpec.beckner(p)

    def test_gaussian_isoperimetric_phi_rejected(self):
        # phi = -I with I(u) the isoperimetric profile pdf(ndtri(u)):
        # phi'' = 1/I > 0 but phi''' = -ndtri(u)/I^2 changes sign at 1/2,
        # so this phi sits outside the admissible class
        def profile(u):
            z = ndtri(np.asarray(u, dtype=float))
            return np.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)

        spec = q.PhiSpec(
            name="isoperimetric",
            interval=(0.0, 1.0),
            phi_dd_fn=lambda u: 1.0 / profile(u),
            phi_ddd_fn=lambda u: -ndtri(np.asarray(u, dtype=float)) / profile(u) ** 2,
        )
        v = q.validate_phi(spec)
        assert not v.ok
        assert any("sign" in r for r in v.reasons)

    def test_nonconvex_reciprocal_rejected(self):
        # phi = -log(1+u) on (0, inf): phi'' = (1+u)^{-2} > 0 and phi'''
        # keeps one sign, but -1/phi'' = -(1+u)^2 is concave
        spec = q.PhiSpec(
            name="neglog",
            interval=(0.0, math.inf),
            phi_dd_fn=lambda u: (1.0 + np.asarray(u, dtype=float)) ** -2.0,
            phi_ddd_fn=lambda u: -2.0 * (1.0 + np.asarray(u, dtype=float)) ** -3.0,
        )
        v = q.validate_phi(spec)
        assert not v.ok
        assert any("convex" in r for r in v.reasons)

    def test_nonpositive_second_derivative_rejected(self):
        spec = q.PhiSpec(name="-x^2", interval=(-math.inf, math.inf),
                         phi_dd_fn=lambda u: np.full_like(np.asarray(u, dtype=float), -2.0),
                         phi_ddd_fn=lambda u: np.zeros_like(np.asarray(u, dtype=float)))
        v = q.validate_phi(spec)
        assert not v.ok
        assert any("positive" in r for r in v.reasons)
