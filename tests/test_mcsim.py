"""Path simulation and the statistical identity checks.

All assertions on random quantities are 3-sigma tests with fixed seeds, so
every run is bit-reproducible; the looser frozen tolerances (antithetic
ratio, flagged fractions) come from the recorded runs at those seeds.
"""

import math
import os
import sys
import time
import tracemalloc
from dataclasses import astuple, replace
from fractions import Fraction

import numpy as np
import pytest

from diffgap import expr as ex
from diffgap import gallery
from diffgap import mcsim as mc
from diffgap import model as md
from diffgap import quad as q


def ou():
    return md.build_model(sigma="1", target_potential="x^2/2", name="ou")


def quartic():
    return md.build_model(sigma="1", target_potential="x^4/4", name="quartic")


def unit_dual(m):
    return md.realize_weight(m, md.WeightSpec.direct("1"))


class TestMCConfig:
    def test_step_must_divide_horizon_by_adjustment(self):
        cfg = mc.MCConfig(step=0.3, horizon=1.0)
        assert cfg.n_steps() == 3
        assert abs(cfg.dt() * cfg.n_steps() - 1.0) < 1e-15

    @pytest.mark.parametrize(
        "kw",
        [
            {"step": -1.0},
            {"step": 0.0},
            {"step": 1.0, "horizon": 0.5},
            {"paths": 0},
            {"seed": -1},
            {"antithetic": True, "paths": 1001},
            {"blow_up_radius": 0.0},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(mc.MCConfigError):
            mc.MCConfig(**kw)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_horizon_must_be_finite(self, horizon):
        with pytest.raises(mc.MCConfigError, match="finite"):
            mc.MCConfig(horizon=horizon)


class TestIncrementLaw:
    """The three-point law of the Euler increments: +/-a with probability
    p = K / 2^24 each, else 0."""

    def test_constants_and_exact_moments(self):
        K, a = mc._K, mc._A
        assert K == -(-2**24 // 6)
        # the cut points are exact in float32: k < K and k >= 2^24 - K
        assert float(mc._LOW) * 2**24 == K and mc._LOW.dtype == np.float32
        assert float(mc._HIGH) * 2**24 == 2**24 - K and mc._HIGH.dtype == np.float32
        p = Fraction(K, 2**24)  # as many k give +a as give -a: odd moments vanish
        a2 = Fraction(2**24, 2 * K)
        assert 2 * p * a2 == 1  # E xi^2
        assert 2 * p * a2**2 == 3 - Fraction(1, K)  # E xi^4
        assert abs(a * a - float(a2)) <= 2 * math.ulp(3.0)
        assert abs(float(2 * p) * a**4 - 3.0) < 1e-6

    def test_values_frequencies_and_fourth_moment(self):
        cfg = mc.MCConfig(step=1e-3, horizon=0.05, paths=20000, seed=4)
        a, p = mc._A, mc._K / 2**24
        counts = np.zeros(3, dtype=np.int64)  # -a, 0, a
        m4 = m8 = 0.0
        for z in mc._increments(cfg):
            counts += [(z == -a).sum(), (z == 0.0).sum(), (z == a).sum()]
            z4 = z**4
            m4 += float(z4.sum())
            m8 += float((z4 * z4).sum())
        n = cfg.paths * cfg.n_steps()
        assert n >= 10**6
        assert counts.sum() == n  # no value besides -a, 0 and a
        for count, prob in zip(counts, (p, 1 - 2 * p, p)):
            assert abs(count - n * prob) < 5 * math.sqrt(n * prob * (1 - prob))
        m4, m8 = m4 / n, m8 / n
        assert abs(m4 - 3.0) < 5 * math.sqrt((m8 - m4 * m4) / n)

    def test_antithetic_pairs(self):
        cfg = mc.MCConfig(step=1e-3, horizon=0.02, paths=2000, seed=4, antithetic=True)
        for z in mc._increments(cfg):
            head, tail = z[:1000], z[1000:]
            assert np.array_equal(tail, -head)
            assert np.isin(head, [-mc._A, 0.0, mc._A]).all()


def evolve(m, x0, cfg, integrand=None):
    """One start point through the Euler loop: its endpoints, pathwise
    integrals of ``integrand`` and survivors."""
    (X, integ, alive), = mc._evolve([(m, 1, integrand)], [x0], cfg)
    return X[0], integ[0], alive[0]


class TestSimulate:
    """Path simulation by the Euler loop, from one start point."""

    def test_mean_reversion(self):
        # E X_t = x0 e^{-t} for drift -x
        cfg = mc.MCConfig(step=5e-3, horizon=3.0, paths=20000, seed=7)
        vals, _, alive = evolve(ou(), 2.0, cfg)
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
        assert abs(float(np.mean(vals)) - 2.0 * math.exp(-3.0)) < 3.0 * se
        assert alive.all()
        assert cfg.n_steps() == 600

    def test_driftless_variance_speed_two(self):
        # dX = sqrt(2) dB gives Var X_t = 2t
        m = md.build_model(sigma="1", drift="0", name="free", tail_kind="exponential")
        cfg = mc.MCConfig(step=2e-3, horizon=1.0, paths=20000, seed=3)
        ends, _, _ = evolve(m, 0.0, cfg)
        v = float(np.var(ends, ddof=1))
        assert abs(v - 2.0) < 3.0 * 2.0 * math.sqrt(2.0 / cfg.paths)

    def test_unit_weight_dual_shares_the_law(self):
        cfg = mc.MCConfig(step=5e-3, horizon=0.5, paths=2000, seed=11)
        a = evolve(ou(), 0.7, cfg)[0]
        b = evolve(unit_dual(ou()), 0.7, cfg)[0]
        assert np.array_equal(a, b)

    def test_pathwise_functional_integral(self):
        # E int_0^t X_s ds = x0 (1 - e^{-t})
        cfg = mc.MCConfig(step=2e-3, horizon=1.0, paths=20000, seed=13)
        _, vals, _ = evolve(ou(), 1.5, cfg, integrand=ex.X)
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
        exact = 1.5 * (1.0 - math.exp(-1.0))
        assert abs(float(np.mean(vals)) - exact) < 3.0 * se + 5.0 * cfg.dt() * exact

    def test_determinism(self):
        cfg = mc.MCConfig(step=5e-3, horizon=0.5, paths=1000, seed=29)
        a = evolve(ou(), 0.0, cfg)[0]
        b = evolve(ou(), 0.0, cfg)[0]
        assert np.array_equal(a, b)

    def test_partial_blow_up_flags_nan(self):
        m = md.build_model(sigma="1", drift="x", name="grow", tail_kind="exponential")
        cfg = mc.MCConfig(step=1e-3, horizon=1.0, paths=400, seed=3, blow_up_radius=3.5)
        ends, _, alive = evolve(m, 0.0, cfg)
        assert 0.0 < float(np.mean(~alive)) <= 0.5
        assert int(np.isnan(ends).sum()) == int((~alive).sum())


def _reference_evolve(m, starts, cfg, integrand=None):
    """The Euler loop as plain whole-array expressions, one fresh array per
    operation: the reference ``mc._evolve`` must match bit for bit."""
    drift, sig = m.drift_fn, m.sigma_fn
    if isinstance(integrand, ex.Expr):  # a tree, as _fk_group makes it
        rate = integrand
        integrand = lambda x: ex.evaluate(rate, x, m.params)
    dt = cfg.dt()
    vol = math.sqrt(2.0 * dt)
    X = np.tile(np.asarray(starts, dtype=float)[:, None], (1, cfg.paths))
    alive = np.ones(X.shape, dtype=bool)
    integ = np.zeros(X.shape)
    with np.errstate(all="ignore"):
        prev = np.broadcast_to(np.asarray(integrand(X), dtype=float), X.shape).copy() \
            if integrand is not None else None
        for z in mc._increments(cfg):
            X = X + np.asarray(drift(X), dtype=float) * dt \
                + vol * np.asarray(sig(X), dtype=float) * z
            blown = alive & (np.abs(X) > cfg.blow_up_radius)
            if np.any(blown):
                alive &= ~blown
                X = np.where(alive, X, np.nan)
            if integrand is not None:
                cur = np.broadcast_to(np.asarray(integrand(X), dtype=float), X.shape)
                integ = integ + 0.5 * dt * (prev + cur)
                prev = cur
    return X, integ, alive


def _grow():
    return md.build_model(sigma="1", drift="x", name="grow", tail_kind="exponential")


class TestEvolveMatchesReference:
    @staticmethod
    def assert_same(groups, starts, cfg):
        """Every group of one ``mc._evolve`` job matches the reference loop run
        on that group alone, bit for bit."""
        got = mc._evolve(groups, starts, cfg)
        assert len(got) == len(groups)
        k = 0
        for (m, rows, integrand), paths in zip(groups, got):
            want = _reference_evolve(m, starts[k:k + rows], cfg, integrand)
            k += rows
            for g, w in zip(paths, want):
                assert g.shape == (rows, cfg.paths)
                assert g.tobytes() == w.tobytes()
        assert k == len(starts)
        return got

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("make", [
        ou, quartic, lambda: gallery.gallery_model("cauchy")], ids=["ou", "quartic", "cauchy"])
    def test_gallery_models(self, make, antithetic):
        m = make()
        cfg = mc.MCConfig(step=1e-2, horizon=0.5, paths=2000, seed=17, antithetic=antithetic)
        d = md.realize_weight(m, md.WeightSpec.a_form("-(x-1)^2"))
        self.assert_same([(m, 3, None)], [0.501, 0.5, 0.499], cfg)
        self.assert_same([(d, 1, ex.mul(ex.const(2.0), d.v_expr))], [0.5], cfg)

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("make", [
        ou, quartic, lambda: gallery.gallery_model("cauchy")], ids=["ou", "quartic", "cauchy"])
    def test_groups_of_one_job(self, make, antithetic):
        # base rows, two duals as run_checks steps them, the base model again
        # with an integrand that returns its input, and a model whose constant
        # sigma differs from any other group's, all on one stream
        m = make()
        cfg = mc.MCConfig(step=1e-2, horizon=0.5, paths=2000, seed=17, antithetic=antithetic)
        d1 = md.realize_weight(m, md.WeightSpec.a_form("-(x-1)^2"))
        d2 = md.realize_weight(m, md.WeightSpec.direct("1+x^2"))
        wide = md.build_model(sigma="2", target_potential="x^2/2", name="wide")
        self.assert_same([(m, 3, None), mc._fk_group(d1, 2.0), mc._fk_group(d2),
                          (m, 2, ex.X), (wide, 1, None)],
                         [0.501, 0.5, 0.499, 0.5, -0.3, 0.7, 0.1, 0.2], cfg)

    def test_integrand_returning_its_input(self):
        cfg = mc.MCConfig(step=1e-2, horizon=1.0, paths=1000, seed=13)
        self.assert_same([(ou(), 1, ex.X)], [1.5], cfg)

    def test_identity_drift(self):
        cfg = mc.MCConfig(step=1e-2, horizon=0.5, paths=1000, seed=5)
        self.assert_same([(_grow(), 2, ex.X)], [0.3, -0.2], cfg)

    def test_partial_blow_up(self):
        cfg = mc.MCConfig(step=1e-3, horizon=1.0, paths=400, seed=3, blow_up_radius=4.0)
        (X, _, alive), = self.assert_same([(_grow(), 1, ex.X)], [0.5], cfg)
        assert float(np.mean(~alive)) == 0.1675
        assert np.array_equal(np.isnan(X), ~alive)


def _allocating_lines(fn, nbytes: int) -> int:
    """How many source lines run by ``fn`` raised the memory tracemalloc
    traces, numpy's array buffers included, by ``nbytes`` or more above its
    level when the line began: each holds at least one allocation that large,
    whether or not it was freed before the line ended."""
    count = level = 0

    def trace(frame, event, arg):
        nonlocal count, level
        now, peak = tracemalloc.get_traced_memory()
        count += peak - level >= nbytes
        tracemalloc.reset_peak()
        level = now
        return trace

    tracemalloc.start()
    outer = sys.gettrace()
    try:
        level = tracemalloc.get_traced_memory()[0]
        sys.settrace(trace)
        fn()
    finally:
        sys.settrace(outer)
        tracemalloc.stop()
    return count


class TestResidentLoop:
    @pytest.mark.parametrize("make", [quartic, lambda: gallery.gallery_model("cauchy")],
                             ids=["constant-sigma", "cauchy"])
    def test_allocations_do_not_grow_with_steps(self, make):
        """An ``_evolve`` call allocates its arrays before the loop: base rows,
        a dual whose integrand returns its input and a dual whose integrand
        is its doubled killing rate allocate as many arrays in 200 steps as
        in 20."""
        m = make()
        d = md.realize_weight(m, md.WeightSpec.a_form("-(x-1)^2"))
        groups = [(m, 2, None), (d, 1, ex.X), mc._fk_group(d, 2.0)]
        counts = []
        for steps in (20, 200):
            cfg = mc.MCConfig(step=1e-3, horizon=steps * 1e-3, paths=2000, seed=1)
            assert cfg.n_steps() == steps
            mc._evolve(groups, [0.6, 0.4, 0.5, 0.5], cfg)  # lowers every kernel first
            counts.append(_allocating_lines(
                lambda: mc._evolve(groups, [0.6, 0.4, 0.5, 0.5], cfg), 8 * cfg.paths))
        assert counts[0] == counts[1]


class TestFeynmanKac:
    def test_constant_potential_is_deterministic(self):
        # unit weight on the mean-reverting model has killing rate exactly 1
        fk = mc.feynman_kac(unit_dual(ou()), "1", 0.0,
                            mc.MCConfig(step=1e-3, horizon=0.5, paths=2000, seed=5))
        assert abs(fk.mean - math.exp(-0.5)) < 1e-12
        assert fk.std_err < 1e-15
        assert abs(fk.weight_stats.effective_sample_size - fk.paths_used) < 1e-6
        assert abs(fk.weight_stats.min - fk.weight_stats.max) < 1e-15

    def test_unit_horizon_decay(self):
        fk = mc.feynman_kac(unit_dual(ou()), "1", 0.3,
                            mc.MCConfig(step=1e-3, horizon=1.0, paths=2000, seed=5))
        assert abs(fk.mean - math.exp(-1.0)) < 1e-12

    def test_killed_clock_agrees_with_weights(self):
        # two unbiased estimators of the same quantity
        d = md.realize_weight(quartic(), md.WeightSpec.z_form(ex.parse("1.2712293*x")))
        cfg = mc.MCConfig(step=1e-3, horizon=0.25, paths=40000, seed=17)
        fw = mc.feynman_kac(d, "tanh(x)+2", 0.4, cfg)
        fkk = mc.feynman_kac_killed(d, "tanh(x)+2", 0.4, cfg)
        comb = math.hypot(fw.std_err, fkk.std_err)
        assert abs(fw.mean - fkk.mean) < 3.0 * comb
        assert fkk.weight_stats.effective_sample_size <= fkk.paths_used

    def test_killed_clock_needs_nonnegative_rate(self):
        m = md.build_model(sigma="1", target_potential="(x^2-b)^2/4",
                           params={"b": 1.0}, name="dw")
        cfg = mc.MCConfig(step=2e-3, horizon=0.5, paths=1000, seed=19)
        with pytest.raises(mc.MCError, match="nonnegative"):
            mc.feynman_kac_killed(unit_dual(m), "1", 0.0, cfg)

    def test_weight_overflow_aborts(self):
        # this weight turns the dual drift outward and the rate to -1-2x^2
        d = md.realize_weight(ou(), md.WeightSpec.exp_w("-x^2"))
        cfg = mc.MCConfig(step=1e-3, horizon=1.0, paths=500, seed=1)
        with pytest.raises(mc.MCError, match="overflow"):
            mc.feynman_kac(d, "1", 3.0, cfg)

    def test_nan_killing_rate_is_named(self):
        # W = (x^2 - 4)^1.5 is not real on |x| < 2, where the paths start, so
        # the surviving paths' accumulated rate is NaN
        with pytest.raises(mc.MCError, match="non-finite killing rate"):
            mc.check_intertwining(ou(), md.WeightSpec.exp_w("(x^2-4)^1.5"), "tanh(x)", 0.5,
                                  1.0, mc.MCConfig(paths=2000))

    def test_one_rate_kernel_per_scale(self, monkeypatch):
        # kernels are kept by tree identity, so the doubled rate is one tree
        # per dual and scale: repeated calls lower no new kernel
        lowered = []
        lowering = ex._Lowering

        class Counted(lowering):
            def __init__(self):
                lowered.append(self)
                super().__init__()

        monkeypatch.setattr(ex, "_Lowering", Counted)
        d = md.realize_weight(quartic(), md.WeightSpec.z_form(ex.parse("1.2712293*x")))
        cfg = mc.MCConfig(step=1e-2, horizon=0.1, paths=100, seed=3)
        counts = []
        for scale in (1.0, 1.0, 2.0, 2.0, 2.0):
            mc.feynman_kac(d, np.tanh, 0.4, cfg, potential_scale=scale)
            counts.append(len(lowered))
        # the first call also compiles the trees its set-up evaluates
        assert np.diff(counts).tolist() == [0, 1, 0, 0]

    def test_estimate_invariants(self):
        with pytest.raises(mc.MCError):
            mc.FKEstimate(mean=0.0, std_err=-1.0, paths_used=10,
                          weight_stats=mc.WeightStats(0.1, 1.0, 5.0))
        with pytest.raises(mc.MCError):
            mc.FKEstimate(mean=0.0, std_err=0.1, paths_used=10,
                          weight_stats=mc.WeightStats(0.1, 1.0, 50.0))

    def test_antithetic_does_not_hurt(self):
        cfg = mc.MCConfig(step=2e-3, horizon=0.5, paths=20000, seed=9)
        f_p = mc.feynman_kac(unit_dual(ou()), "tanh(x)", 0.5, cfg)
        f_a = mc.feynman_kac(unit_dual(ou()), "tanh(x)", 0.5,
                             replace(cfg, antithetic=True))
        assert f_a.std_err <= f_p.std_err
        assert abs(f_a.mean - f_p.mean) < 3.0 * math.hypot(f_p.std_err, f_a.std_err)

    def test_step_halving_consistency(self):
        d = unit_dual(ou())
        e1 = mc.feynman_kac(d, "tanh(x)", 0.5,
                            mc.MCConfig(step=4e-3, horizon=0.5, paths=20000, seed=21))
        e2 = mc.feynman_kac(d, "tanh(x)", 0.5,
                            mc.MCConfig(step=2e-3, horizon=0.5, paths=20000, seed=22))
        tol = 3.0 * math.hypot(e1.std_err, e2.std_err) + 5.0 * 4e-3 * abs(e1.mean)
        assert abs(e1.mean - e2.mean) < tol

    def test_determinism(self):
        cfg = mc.MCConfig(step=2e-3, horizon=0.5, paths=5000, seed=9)
        a = mc.feynman_kac(unit_dual(ou()), "tanh(x)", 0.5, cfg)
        b = mc.feynman_kac(unit_dual(ou()), "tanh(x)", 0.5, cfg)
        assert a == b

    def test_semigroup_at_constant_potential(self):
        d = unit_dual(ou())
        full = mc.feynman_kac(d, "1", 0.0,
                              mc.MCConfig(step=1e-3, horizon=1.0, paths=2000, seed=2))
        half = mc.feynman_kac(d, "1", 0.0,
                              mc.MCConfig(step=1e-3, horizon=0.5, paths=2000, seed=2))
        comb = math.hypot(full.std_err, 2.0 * half.mean * half.std_err)
        assert abs(full.mean - half.mean**2) <= 3.0 * comb + 1e-12


CFG_CHECK = mc.MCConfig(step=1e-3, horizon=1.0, paths=20000, seed=42)


class TestIntertwining:
    def test_unit_weight(self):
        r = mc.check_intertwining(ou(), md.WeightSpec.direct("1"),
                                  "tanh(x)", 0.5, 0.5, CFG_CHECK)
        assert r.conclusive and r.zscore < 3.0

    def test_sigma_weight_is_the_tangent_formula(self):
        # a = sigma: the right side is the pathwise tangent representation
        # of (P_t f)'
        r = mc.check_intertwining(quartic(), md.WeightSpec.direct("1"),
                                  "tanh(x)", 0.4, 0.5, CFG_CHECK)
        assert r.conclusive and r.zscore < 3.0

    def test_gaussian_weight(self):
        r = mc.check_intertwining(ou(), md.WeightSpec.exp_w("-x^2/4"),
                                  "tanh(x)", 0.5, 0.5, CFG_CHECK)
        assert r.conclusive and r.zscore < 3.0

    def test_optimal_slope_weight(self):
        r = mc.check_intertwining(quartic(),
                                  md.WeightSpec.z_form(ex.parse("1.2712293*x")),
                                  "tanh(x)", 0.4, 0.5, CFG_CHECK)
        assert r.conclusive and r.zscore < 3.0

    def test_zero_horizon_exact(self):
        r = mc.check_intertwining(ou(), md.WeightSpec.direct("1"),
                                  "tanh(x)", 0.5, 0.0, CFG_CHECK)
        assert r.lhs == r.rhs
        assert abs(r.lhs - 1.0 / math.cosh(0.5) ** 2) < 1e-12
        assert r.zscore == 0.0 and r.conclusive

    def test_path_count_guard(self):
        with pytest.raises(mc.MCConfigError, match="1000"):
            mc.check_intertwining(ou(), md.WeightSpec.direct("1"), "tanh(x)",
                                  0.5, 0.5, replace(CFG_CHECK, paths=100))

    def test_negative_horizon_rejected(self):
        with pytest.raises(mc.MCConfigError, match="nonnegative"):
            mc.check_intertwining(ou(), md.WeightSpec.direct("1"), "tanh(x)",
                                  0.5, -0.5, CFG_CHECK)

    @pytest.mark.parametrize("delta", [0.0, -1e-3, math.nan, math.inf])
    def test_delta_must_be_finite_and_positive(self, delta):
        # delta = 0 would divide 0 by 0 and report NaN as inconclusive
        with pytest.raises(mc.PreconditionError, match="delta"):
            mc.check_intertwining(quartic(), md.WeightSpec.direct("1"), "tanh(x)",
                                  0.5, 0.5, CFG_CHECK, delta=delta)

    @pytest.mark.parametrize("x0", [math.nan, math.inf])
    def test_start_must_be_finite(self, x0):
        with pytest.raises(mc.PreconditionError, match="x0"):
            mc.check_intertwining(quartic(), md.WeightSpec.direct("1"), "tanh(x)",
                                  x0, 0.5, CFG_CHECK)


class TestSubIntertwining:
    def test_variance_form_is_jensen(self):
        # phi''' = 0: the one-sided inequality needs no sign condition
        r = mc.check_subintertwining(ou(), md.WeightSpec.direct("1"),
                                     q.PhiSpec.poincare(), "tanh(x)",
                                     0.5, 0.5, CFG_CHECK)
        assert r.conclusive and r.margin_zscore > -3.0

    def test_entropy_form_decreasing_ratio(self):
        r = mc.check_subintertwining(quartic(),
                                     md.WeightSpec.a_form(ex.parse("-(x-1)^2")),
                                     q.PhiSpec.log_sobolev(), "2 + tanh(x)",
                                     0.4, 0.5, CFG_CHECK)
        assert r.conclusive and r.margin_zscore > -3.0

    def test_exponential_equality_case(self):
        # exponential test functions saturate the inequality
        r = mc.check_subintertwining(ou(), md.WeightSpec.direct("1"),
                                     q.PhiSpec.log_sobolev(), "exp(0.3*x)",
                                     0.2, 0.5, CFG_CHECK)
        assert r.conclusive and abs(r.margin_zscore) < 3.0

    def test_sign_condition_enforced(self):
        # decreasing f flips the product sign against the same weight
        with pytest.raises(mc.PreconditionError, match="negative sign"):
            mc.check_subintertwining(quartic(),
                                     md.WeightSpec.a_form(ex.parse("-(x-1)^2")),
                                     q.PhiSpec.log_sobolev(), "2 - tanh(x)",
                                     0.4, 0.5, CFG_CHECK)

    def test_range_must_stay_inside_interval(self):
        with pytest.raises(mc.PreconditionError, match="interval"):
            mc.check_subintertwining(ou(), md.WeightSpec.direct("1"),
                                     q.PhiSpec.log_sobolev(), "tanh(x)",
                                     0.0, 0.5, CFG_CHECK)

    def test_monotone_function_required(self):
        with pytest.raises(mc.PreconditionError, match="monotone"):
            mc.check_subintertwining(ou(), md.WeightSpec.direct("1"),
                                     q.PhiSpec.poincare(), "x^2",
                                     0.5, 0.5, CFG_CHECK)

    def test_inadmissible_phi_rejected(self):
        bad = q.PhiSpec.custom(ex.parse("0 - x^2"), (0.0, 10.0))
        with pytest.raises(mc.PreconditionError):
            mc.check_subintertwining(ou(), md.WeightSpec.direct("1"), bad,
                                     "2 + tanh(x)", 0.5, 0.5, CFG_CHECK)

    def test_path_count_guard(self):
        with pytest.raises(mc.MCConfigError, match="1000"):
            mc.check_subintertwining(ou(), md.WeightSpec.direct("1"),
                                     q.PhiSpec.poincare(), "tanh(x)", 0.5, 0.5,
                                     replace(CFG_CHECK, paths=200))

    @pytest.mark.parametrize("delta", [0.0, -1e-3, math.nan, math.inf])
    def test_delta_must_be_finite_and_positive(self, delta):
        with pytest.raises(mc.PreconditionError, match="delta"):
            mc.check_subintertwining(quartic(),
                                     md.WeightSpec.a_form(ex.parse("-(x-1)^2")),
                                     q.PhiSpec.log_sobolev(), "2 + tanh(x)",
                                     0.4, 0.5, CFG_CHECK, delta=delta)


def _bits(r) -> bytes:
    """Every float field of a check result (sides, errors, z-score)."""
    return np.array([v for v in astuple(r) if isinstance(v, float)]).tobytes()


def one_cpu(monkeypatch):
    """Make the process's affinity mask one CPU: ``run_checks`` then runs
    every job in this process, where a test's spy sees it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


# the two checks of the mc-check benchmark workload, at 2000 paths
MC_CHECK_CFG = mc.MCConfig(step=1e-3, horizon=0.5, paths=2000, seed=0)
MC_CHECK_INTER = [{"w": md.WeightSpec.z_form(ex.parse("1.2712*x")), "f": "tanh(x)",
                   "x0": 0.5, "t": 0.5}]
MC_CHECK_SUB = [{"w": md.WeightSpec.a_form(ex.parse("-(x-1)^2")),
                 "phi": q.PhiSpec.log_sobolev(), "f": "2 + tanh(x)", "x0": 0.4, "t": 0.5}]


class TestSharedBasePaths:
    """``run_checks`` evolves the base model once per horizon; every check
    must come out as it does alone, bit for bit."""

    @pytest.mark.parametrize("make,parts,radius", [
        (lambda: gallery.gallery_model("cauchy"), ([0.501, 0.499], [0.401, 0.4, 0.399]), 1e6),
        (_grow, ([2.0, 0.0], [0.5]), 4.0),  # rows blow up at different steps
    ], ids=["cauchy", "partial-blow-up"])
    def test_rows_do_not_depend_on_each_other(self, make, parts, radius):
        m = make()
        cfg = mc.MCConfig(step=1e-2, horizon=1.0, paths=1001, seed=9, blow_up_radius=radius)
        (X, integ, alive), = mc._evolve([(m, len(parts[0]) + len(parts[1]), None)],
                                        parts[0] + parts[1], cfg)
        k = len(parts[0])
        for rows, part in ((slice(0, k), parts[0]), (slice(k, None), parts[1])):
            (X1, integ1, alive1), = mc._evolve([(m, len(part), None)], part, cfg)
            assert X[rows].tobytes() == X1.tobytes()
            assert alive[rows].tobytes() == alive1.tobytes()
            assert integ[rows].tobytes() == integ1.tobytes()

    @staticmethod
    def assert_same_as_alone(m, cfg, inter, sub):
        got_inter, got_sub = mc.run_checks(m, cfg, inter, sub)
        assert len(got_inter) == len(inter) and len(got_sub) == len(sub)
        for kw, r in zip(inter, got_inter):
            assert _bits(r) == _bits(mc.check_intertwining(m, cfg=cfg, **kw))
        for kw, r in zip(sub, got_sub):
            assert _bits(r) == _bits(mc.check_subintertwining(m, cfg=cfg, **kw))

    @staticmethod
    def count_jobs(monkeypatch):
        """Record every ``_evolve`` job: its stream's seed and horizon, and the
        models and row counts of its groups.  Every job runs in this process:
        a forked worker's calls would not reach the record."""
        one_cpu(monkeypatch)
        jobs = []
        evolve = mc._evolve

        def counted(groups, starts, cfg):
            jobs.append(((cfg.seed, cfg.horizon), [(m, k) for m, k, _ in groups]))
            return evolve(groups, starts, cfg)

        monkeypatch.setattr(mc, "_evolve", counted)
        return jobs

    @staticmethod
    def assert_two_jobs_per_horizon(jobs, m, cfg, duals):
        """One base job and one dual job at each horizon of ``duals`` (horizon ->
        the row counts of the base job and the number of checks there): the
        base job is one group of ``m`` on the stream seeded ``cfg.seed``, the
        dual job one one-row group per check on the stream seeded
        ``_derive_seed(cfg.seed, 1)``."""
        dual_seed = mc._derive_seed(cfg.seed, 1)
        assert len(jobs) == 2 * len(duals)
        assert sorted(stream for stream, _ in jobs) == sorted(
            (seed, t) for t in duals for seed in (cfg.seed, dual_seed))
        for (seed, t), groups in jobs:
            rows, checks = duals[t]
            if seed == cfg.seed:
                assert len(groups) == 1 and groups[0][0] is m and groups[0][1] == rows
            else:
                assert len(groups) == checks
                assert all(isinstance(d, md.DualModel) and d.base is m and k == 1
                           for d, k in groups)
                assert len({id(d) for d, _ in groups}) == checks

    def test_mc_check_workload(self):
        self.assert_same_as_alone(quartic(), MC_CHECK_CFG, MC_CHECK_INTER, MC_CHECK_SUB)

    def test_mc_check_draws_two_streams(self, monkeypatch):
        streams = []
        increments = mc._increments

        def counted(cfg):
            streams.append(cfg.seed)
            return increments(cfg)

        monkeypatch.setattr(mc, "_increments", counted)
        jobs = self.count_jobs(monkeypatch)
        m = quartic()
        mc.run_checks(m, MC_CHECK_CFG, MC_CHECK_INTER, MC_CHECK_SUB)
        # one base job of 2 + 3 starts, and one dual job holding both checks' duals
        assert sorted(streams) == sorted([MC_CHECK_CFG.seed, mc._derive_seed(MC_CHECK_CFG.seed, 1)])
        self.assert_two_jobs_per_horizon(jobs, m, MC_CHECK_CFG, {0.5: (5, 2)})

    def test_coinciding_starts(self, monkeypatch):
        inter = [{"w": md.WeightSpec.direct("1"), "f": "tanh(x)", "x0": 0.5, "t": 0.5}]
        sub = [{**inter[0], "phi": q.PhiSpec.poincare()}]
        self.assert_same_as_alone(ou(), MC_CHECK_CFG, inter, sub)
        jobs = self.count_jobs(monkeypatch)
        m = ou()
        mc.run_checks(m, MC_CHECK_CFG, inter, sub)
        # x0 - delta, x0, x0 + delta once each; the two duals stay two groups
        self.assert_two_jobs_per_horizon(jobs, m, MC_CHECK_CFG, {0.5: (3, 2)})

    def test_two_horizons(self, monkeypatch):
        w = md.WeightSpec.direct("1")
        inter = [{"w": w, "f": "tanh(x)", "x0": 0.5, "t": t} for t in (0.5, 0.25)]
        sub = [{"w": w, "phi": q.PhiSpec.poincare(), "f": "tanh(x)", "x0": 0.3, "t": t,
                "delta": 2e-3} for t in (0.25, 0.5)]
        self.assert_same_as_alone(ou(), MC_CHECK_CFG, inter, sub)
        jobs = self.count_jobs(monkeypatch)
        m = ou()
        mc.run_checks(m, MC_CHECK_CFG, inter, sub)
        self.assert_two_jobs_per_horizon(jobs, m, MC_CHECK_CFG, {0.5: (5, 2), 0.25: (5, 2)})

    @pytest.mark.parametrize("make,cfg,inter,sub,jobs", [
        (quartic, MC_CHECK_CFG, MC_CHECK_INTER, MC_CHECK_SUB, {0.5: (5, 2)}),
        (ou, replace(MC_CHECK_CFG, paths=1000),  # four horizons: eight jobs
         [{"w": md.WeightSpec.direct("1"), "f": "tanh(x)", "x0": 0.5, "t": t}
          for t in (0.05, 0.1, 0.15, 0.2)], [], {t: (2, 1) for t in (0.05, 0.1, 0.15, 0.2)}),
    ], ids=["mc-check", "four-horizons"])
    def test_cpu_count_changes_no_bit(self, monkeypatch, make, cfg, inter, sub, jobs):
        """One CPU, two and sixteen: no bit of any result moves.  One CPU runs
        every job once in this process; n CPUs fork one process fewer than
        they use, and no more processes run than there are jobs."""
        seen, forks, fork = self.count_jobs(monkeypatch), [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        results = []
        for cpus in ({0}, {0, 1}, set(range(16))):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            seen.clear()
            forks.clear()
            m = make()
            got = mc.run_checks(m, cfg, inter, sub)
            if len(cpus) == 1:
                self.assert_two_jobs_per_horizon(seen, m, cfg, jobs)
            assert len(forks) == min(len(cpus), 2 * len(jobs)) - 1
            results.append([_bits(r) for part in got for r in part])
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("n", [1, 2])
    def test_first_failing_check_in_plan_order_raises(self, monkeypatch, n):
        """The second check's base job, first in job order, and the first
        check's dual job fail after a pause, so on two CPUs the worker takes
        one of them.  The first check's error is raised, with its type and
        message, on one CPU and on two."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        evolve = mc._evolve

        def failing(groups, starts, cfg):
            if (cfg.horizon == 0.25) != (cfg.seed == MC_CHECK_CFG.seed):
                time.sleep(0.2)
                raise mc.MCError(f"job at t = {cfg.horizon} on seed {cfg.seed} failed")
            return evolve(groups, starts, cfg)

        monkeypatch.setattr(mc, "_evolve", failing)
        inter = [{"w": md.WeightSpec.direct("1"), "f": "tanh(x)", "x0": 0.5, "t": t}
                 for t in (0.25, 0.5)]
        with pytest.raises(mc.MCError) as err:
            mc.run_checks(ou(), MC_CHECK_CFG, inter)
        assert type(err.value) is mc.MCError
        assert str(err.value) == (
            f"job at t = 0.25 on seed {mc._derive_seed(MC_CHECK_CFG.seed, 1)} failed")

    def test_mc_check_intertwining_is_pinned(self):
        """The intertwining check of the mc-check workload at 2000 paths, seed
        0: its dual ensemble kept its stream when the duals of a horizon
        became one job, so every float keeps its recorded bits."""
        got, _ = mc.run_checks(quartic(), MC_CHECK_CFG, MC_CHECK_INTER, MC_CHECK_SUB)
        r = got[0]
        assert [v.hex() for v in (r.lhs, r.rhs, r.lhs_err, r.rhs_err, r.zscore)] == [
            "0x1.d4118323ed84ep-2", "0x1.d511c2026e9f2p-2", "0x1.be7468680dd11p-8",
            "0x1.119bf31313591p-9", "0x1.18f87bd3c0303p-3"]
        assert r.conclusive

    @staticmethod
    def hexes(r) -> list:
        return [v.hex() for v in astuple(r) if isinstance(v, float)]

    def test_mc_check_subintertwining_is_pinned(self):
        _, got = mc.run_checks(quartic(), MC_CHECK_CFG, MC_CHECK_INTER, MC_CHECK_SUB)
        assert self.hexes(got[0]) == [
            "0x1.f41399d49bebcp-4", "0x1.3347df4d27f58p-3", "0x1.ee3aa15680c40p-9",
            "0x1.cd2f4510b7e00p-10", "0x1.adea20a325b40p+2"]
        assert got[0].conclusive

    def test_antithetic_mc_check_is_pinned(self):
        cfg = replace(MC_CHECK_CFG, antithetic=True)
        inter, sub = mc.run_checks(quartic(), cfg, MC_CHECK_INTER, MC_CHECK_SUB)
        assert self.hexes(inter[0]) == [
            "0x1.df1f715e4f4dfp-2", "0x1.d25ae2651049ep-2", "0x1.851304a91be8bp-8",
            "0x1.70d4c125c4548p-9", "0x1.e5d7b1976e1fep+0"]
        assert self.hexes(sub[0]) == [
            "0x1.054d0e8b5f601p-3", "0x1.3161dbc5299f5p-3", "0x1.c00c4c425dfa3p-9",
            "0x1.ffcbe4c2e3fd9p-10", "0x1.5deecb8607c0fp+2"]
        assert inter[0].conclusive and sub[0].conclusive

    def test_cauchy_intertwining_is_pinned(self):
        """Cauchy's sigma depends on x, so each step evaluates it: the general
        path of the Euler step, beside quartic's constant noise row."""
        r = mc.check_intertwining(gallery.gallery_model("cauchy"),
                                  md.WeightSpec.direct("sqrt(1+x^2)"), "tanh(x)", 0.5, 0.3,
                                  MC_CHECK_CFG)
        assert self.hexes(r) == [
            "0x1.476ca8f75f006p-2", "0x1.46c6b56665259p-2", "0x1.7e6bf908c0db7p-10",
            "0x1.9017ea8398929p-10", "0x1.3309c9d49ff99p-2"]
        assert r.conclusive

    def test_ensembles_only_read_caches(self, monkeypatch):
        """Every tree an ensemble evaluates is compiled, and every lazy model
        cache it reads filled, before the first ensemble starts: forked
        workers inherit them all, and no job writes a cache."""
        one_cpu(monkeypatch)  # one job at a time, each in this process
        running, lowered = [], []
        lowering = ex._Lowering

        class Watched(lowering):
            def __init__(self):
                lowered.append(bool(running))
                super().__init__()

        def caches(groups):
            models = [o for m, _, _ in groups
                      for o in ([m, m.base] if isinstance(m, md.DualModel) else [m])]
            return [{k: tuple(v) if isinstance(v, dict) else id(v) for k, v in vars(o).items()}
                    for o in models]

        def job(groups, *args, **kwargs):
            before = caches(groups)
            running.append(groups)
            try:
                return evolve(groups, *args, **kwargs)
            finally:
                running.pop()
                assert caches(groups) == before

        evolve = mc._evolve
        monkeypatch.setattr(ex, "_Lowering", Watched)
        monkeypatch.setattr(mc, "_evolve", job)
        inter = [{**MC_CHECK_INTER[0], "w": md.WeightSpec.z_form(ex.parse("1.2712*x"))}]
        sub = [{**MC_CHECK_SUB[0], "w": md.WeightSpec.a_form(ex.parse("-(x-1)^2"))}]
        mc.run_checks(quartic(), MC_CHECK_CFG, inter, sub)
        assert lowered and not any(lowered)


class TestSharedDualJob:
    """``run_checks`` steps the dual ensembles of every check at a horizon as
    one job on one stream; each dual row must come out as a lone
    ``feynman_kac`` on that stream does, bit for bit."""

    @staticmethod
    def fk_bits(fk) -> bytes:
        return np.array([fk.mean, fk.std_err, fk.paths_used, *astuple(fk.weight_stats)]).tobytes()

    def test_dual_rows_equal_lone_feynman_kac(self, monkeypatch):
        one_cpu(monkeypatch)  # every job in this process, where the record is
        m = quartic()
        inter = MC_CHECK_INTER + [{"w": md.WeightSpec.direct("1"), "f": "x/2 + tanh(x)",
                                   "x0": -0.2, "t": 0.5}]
        jobs = []
        evolve = mc._evolve

        def recorded(groups, starts, cfg):
            out = evolve(groups, starts, cfg)
            jobs.append((groups, starts, cfg, out))
            return out

        monkeypatch.setattr(mc, "_evolve", recorded)
        got_inter, got_sub = mc.run_checks(m, MC_CHECK_CFG, inter, MC_CHECK_SUB)
        monkeypatch.setattr(mc, "_evolve", evolve)
        cfg = replace(MC_CHECK_CFG, seed=mc._derive_seed(MC_CHECK_CFG.seed, 1))
        (groups, starts, job_cfg, rows), = [j for j in jobs if j[2].seed == cfg.seed]
        assert job_cfg == cfg and list(starts) == [0.5, -0.2, 0.4] and len(groups) == 3
        for group, x0, paths in zip(groups, starts, rows):
            alone, = mc._evolve([group], [x0], cfg)
            assert [a.tobytes() for a in paths] == [a.tobytes() for a in alone]

        def payoff(w, f):
            d = md.realize_weight(m, w)
            fe = ex.parse(f)
            ffn, dffn = ex.compile_fn(fe), ex.compile_fn(ex.simplify(ex.differentiate(fe)))
            return d, ffn, lambda x: np.asarray(d.weight_fn(x), dtype=float) * np.asarray(
                dffn(x), dtype=float)

        for kw, r in zip(inter, got_inter):
            d, _, grad = payoff(kw["w"], kw["f"])
            fk = mc.feynman_kac(d, grad, kw["x0"], cfg)
            assert np.array([r.rhs, r.rhs_err]).tobytes() == np.array([fk.mean, fk.std_err]).tobytes()
        for kw, r in zip(MC_CHECK_SUB, got_sub):
            d, ffn, grad = payoff(kw["w"], kw["f"])
            phi = kw["phi"]
            theta = lambda x: np.asarray(phi.phi_dd_fn(np.asarray(ffn(x), dtype=float)),
                                         dtype=float) * grad(x) ** 2
            fk = mc.feynman_kac(d, theta, kw["x0"], cfg, potential_scale=2.0)
            assert np.array([r.rhs, r.rhs_err]).tobytes() == np.array([fk.mean, fk.std_err]).tobytes()

    def test_one_dual_partly_blows_up(self):
        # the grow dual keeps drift x and loses 16.75 % of its paths past radius
        # 4; the ou duals around it lose none, and none moves another
        cfg = mc.MCConfig(step=1e-3, horizon=1.0, paths=400, seed=3, blow_up_radius=4.0)
        duals = [unit_dual(ou()), md.realize_weight(_grow(), md.WeightSpec.direct("1")),
                 unit_dual(ou())]
        rows = mc._evolve([mc._fk_group(d) for d in duals], [0.5, 0.5, 0.5], cfg)
        assert [float(np.mean(~alive)) for _, _, alive in rows] == [0.0, 0.1675, 0.0]
        for d, paths in zip(duals, rows):
            alone, = mc._evolve([mc._fk_group(d)], [0.5], cfg)
            assert [a.tobytes() for a in paths] == [a.tobytes() for a in alone]
            got = mc._fk_estimate(paths, np.tanh, cfg)
            assert self.fk_bits(got) == self.fk_bits(mc.feynman_kac(d, np.tanh, 0.5, cfg))
