"""Quadrature, measure functionals and the phi-entropy machinery.

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

    def test_nan_endpoint_rejected(self):
        with pytest.raises(q.QuadError):
            q.integrate(ex.X, math.nan, 1.0)

    def test_unbound_parameter_rejected(self):
        with pytest.raises(q.QuadError, match="unbound"):
            q.integrate(ex.parse("k*x"), 0.0, 1.0)

    def test_non_callable_rejected(self):
        with pytest.raises(q.QuadError):
            q.integrate("x^2", 0.0, 1.0)

    def test_result_float_coercion(self):
        r = q.integrate(ex.X, 0.0, 2.0)
        assert float(r) == r.value

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
        # a step two ulps into a four-ulp interval: no tolerance is reachable
        # and no panel can be halved below one ulp, so the loop must end
        a = 1.0
        step = np.nextafter(np.nextafter(a, 2.0), 2.0)
        b = np.nextafter(np.nextafter(step, 2.0), 2.0)
        cfg = q.QuadConfig(abs_tol=0.0, rel_tol=0.0)
        r = q.integrate(lambda x: (x >= step).astype(float), a, b, cfg)
        assert 1 <= r.subdivisions <= 4
        assert math.isfinite(r.value) and 0.0 <= r.value <= b - a

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
    def test_gaussian_moments(self):
        m = std_normal()
        f = q.functionals(m, ex.X)
        assert abs(f.mean) < 1e-10
        assert abs(f.var - 1.0) < 1e-8
        assert f.entropy is None  # x is not positive
        assert abs(f.dirichlet - 1.0) < 1e-8

    def test_gaussian_exponential_moments(self):
        # for X ~ N(0,1): E e^X = sqrt(e), E e^{2X} = e^2, Ent(e^X) = sqrt(e)/2
        m = std_normal()
        f = q.functionals(m, ex.exp(ex.X))
        assert abs(f.mean - math.exp(0.5)) < 1e-8
        assert abs(f.var - (math.exp(2.0) - math.exp(1.0))) < 1e-7
        assert abs(f.entropy - math.exp(0.5) / 2.0) < 1e-8
        assert abs(f.dirichlet - math.exp(2.0)) < 1e-7

    def test_dirichlet_none_for_bare_callables(self):
        m = std_normal()
        f = q.functionals(m, lambda x: x * x)
        assert f.dirichlet is None

    def test_mu_expectation_normalized(self):
        m = std_normal()
        assert abs(q.mu_expectation(m, lambda x: np.ones_like(x)) - 1.0) < 1e-10
        assert abs(q.mu_expectation(m, ex.parse("x^2")) - 1.0) < 1e-8

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

    def test_custom_expression_matches_builtin(self):
        m = std_normal()
        custom = q.PhiSpec.custom(ex.parse("x*log(x)"), (0.0, math.inf))
        f = ex.parse("exp(x/2)")
        e1 = q.phi_entropy(m, f, custom)
        e2 = q.phi_entropy(m, f, q.PhiSpec.log_sobolev())
        assert abs(e1[0] - e2[0]) < 1e-10
        assert abs(e1[1] - e2[1]) < 1e-10

    def test_gaussian_isoperimetric_phi_rejected(self):
        # phi = -I with I(u) the isoperimetric profile pdf(ndtri(u)):
        # phi'' = 1/I > 0 but phi''' = -ndtri(u)/I^2 changes sign at 1/2,
        # so this phi sits outside the admissible class
        def profile(u):
            z = ndtri(np.asarray(u, dtype=float))
            return np.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)

        spec = q.PhiSpec.custom_callable(
            phi=lambda u: -profile(u),
            phi_dd=lambda u: 1.0 / profile(u),
            phi_ddd=lambda u: -ndtri(np.asarray(u, dtype=float)) / profile(u) ** 2,
            interval=(0.0, 1.0),
            name="isoperimetric",
        )
        v = q.validate_phi(spec)
        assert not v.ok
        assert any("sign" in r for r in v.reasons)

    def test_nonconvex_reciprocal_rejected(self):
        # phi = -log(1+u) on (0, inf): phi'' = (1+u)^{-2} > 0 and phi'''
        # keeps one sign, but -1/phi'' = -(1+u)^2 is concave
        spec = q.PhiSpec.custom_callable(
            phi=lambda u: -np.log1p(u),
            phi_dd=lambda u: (1.0 + np.asarray(u, dtype=float)) ** -2.0,
            phi_ddd=lambda u: -2.0 * (1.0 + np.asarray(u, dtype=float)) ** -3.0,
            interval=(0.0, math.inf),
            name="neglog",
        )
        v = q.validate_phi(spec)
        assert not v.ok
        assert any("convex" in r for r in v.reasons)

    def test_nonpositive_second_derivative_rejected(self):
        spec = q.PhiSpec.custom(ex.parse("-x^2"), (-math.inf, math.inf))
        v = q.validate_phi(spec)
        assert not v.ok
        assert any("positive" in r for r in v.reasons)


class TestPhiEntropy:
    def test_poincare_pair_is_variance_pair(self):
        m = std_normal()
        f = ex.parse("x^2")
        ent, rhs = q.phi_entropy(m, f, q.PhiSpec.poincare())
        fx = q.functionals(m, f)
        assert abs(ent - fx.var) < 1e-8
        assert abs(rhs - 2.0 * fx.dirichlet) < 1e-7

    def test_beckner_closed_form(self):
        # f = e^{x/2} under N(0,1): E f^p = e^{p^2/8}, so
        # Ent_p = e^{p^2/8} - e^{p/8}
        m = std_normal()
        f = ex.parse("exp(x/2)")
        for p in (1.5, 1.25):
            ent, rhs = q.phi_entropy(m, f, q.PhiSpec.beckner(p))
            ref = math.exp(p * p / 8.0) - math.exp(p / 8.0)
            assert abs(ent - ref) < 1e-9
            assert rhs > 0

    def test_beckner_limit_recovers_log_sobolev(self):
        # Ent_p(f)/(p-1) -> Ent(f) as p -> 1, at first order in p-1:
        # the gap to the limit must keep shrinking as p - 1 halves
        m = std_normal()
        f = ex.parse("exp(x/2)")
        ls = q.phi_entropy(m, f, q.PhiSpec.log_sobolev())[0]
        assert abs(ls - math.exp(1.0 / 8.0) / 8.0) < 1e-9
        gaps = []
        for p in (1.5, 1.25, 1.125, 1.0625):
            ent = q.phi_entropy(m, f, q.PhiSpec.beckner(p))[0]
            gaps.append(abs(ent / (p - 1.0) - ls))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < gaps[0] / 4.0

    def test_range_guard(self):
        m = std_normal()
        with pytest.raises(q.QuadError, match="interval"):
            q.phi_entropy(m, ex.X, q.PhiSpec.log_sobolev())

    def test_inadmissible_phi_refused(self):
        m = std_normal()
        bad = q.PhiSpec.custom(ex.parse("-x^2"), (-math.inf, math.inf))
        with pytest.raises(q.QuadError, match="admissible"):
            q.phi_entropy(m, ex.X, bad)
