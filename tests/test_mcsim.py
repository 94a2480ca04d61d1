"""Path simulation and the statistical identity checks.

All assertions on random quantities are 3-sigma tests with fixed seeds, so
every run is bit-reproducible; the looser frozen tolerances (antithetic
ratio, flagged fractions) come from the recorded runs at those seeds.
"""

import math
import sys
import threading
from dataclasses import astuple, replace

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


class TestSimulate:
    def test_mean_reversion(self):
        # E X_t = x0 e^{-t} for drift -x
        cfg = mc.MCConfig(step=5e-3, horizon=3.0, paths=20000, seed=7)
        ens = mc.simulate(ou(), 2.0, cfg)
        vals = ens.endpoints[~ens.flagged]
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
        assert abs(float(np.mean(vals)) - 2.0 * math.exp(-3.0)) < 3.0 * se
        assert ens.flagged_fraction == 0.0
        assert ens.steps == 600

    def test_driftless_variance_speed_two(self):
        # dX = sqrt(2) dB gives Var X_t = 2t
        m = md.build_model(sigma="1", drift="0", name="free", tail_kind="exponential")
        cfg = mc.MCConfig(step=2e-3, horizon=1.0, paths=20000, seed=3)
        ens = mc.simulate(m, 0.0, cfg)
        v = float(np.var(ens.endpoints, ddof=1))
        assert abs(v - 2.0) < 3.0 * 2.0 * math.sqrt(2.0 / cfg.paths)

    def test_unit_weight_dual_shares_the_law(self):
        cfg = mc.MCConfig(step=5e-3, horizon=0.5, paths=2000, seed=11)
        a = mc.simulate(ou(), 0.7, cfg)
        b = mc.simulate(unit_dual(ou()), 0.7, cfg)
        assert np.array_equal(a.endpoints, b.endpoints)

    def test_pathwise_functional_integral(self):
        # E int_0^t X_s ds = x0 (1 - e^{-t})
        cfg = mc.MCConfig(step=2e-3, horizon=1.0, paths=20000, seed=13)
        ens = mc.simulate(ou(), 1.5, cfg, functional="x")
        vals = ens.integrals
        se = float(np.std(vals, ddof=1) / math.sqrt(vals.size))
        exact = 1.5 * (1.0 - math.exp(-1.0))
        assert abs(float(np.mean(vals)) - exact) < 3.0 * se + 5.0 * cfg.dt() * exact

    def test_determinism(self):
        cfg = mc.MCConfig(step=5e-3, horizon=0.5, paths=1000, seed=29)
        a = mc.simulate(ou(), 0.0, cfg)
        b = mc.simulate(ou(), 0.0, cfg)
        assert np.array_equal(a.endpoints, b.endpoints)

    def test_majority_blow_up_raises(self):
        m = md.build_model(sigma="1", drift="x", name="grow", tail_kind="exponential")
        cfg = mc.MCConfig(step=1e-3, horizon=1.0, paths=400, seed=3, blow_up_radius=4.0)
        with pytest.raises(mc.MCError, match="explosive"):
            mc.simulate(m, 2.0, cfg)

    def test_partial_blow_up_flags_nan(self):
        m = md.build_model(sigma="1", drift="x", name="grow", tail_kind="exponential")
        cfg = mc.MCConfig(step=1e-3, horizon=1.0, paths=400, seed=3, blow_up_radius=3.5)
        ens = mc.simulate(m, 0.0, cfg)
        assert 0.0 < ens.flagged_fraction <= 0.5
        assert int(np.isnan(ens.endpoints).sum()) == int(ens.flagged.sum())


def _reference_evolve(m, starts, cfg, integrand=None):
    """The Euler loop as plain whole-array expressions, one fresh array per
    operation: the reference ``mc._evolve`` must match bit for bit."""
    drift, sig = m.drift_fn, m.sigma_fn
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
    def assert_same(m, starts, cfg, integrand=None):
        got = mc._evolve(m, starts, cfg, integrand)
        want = _reference_evolve(m, starts, cfg, integrand)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
        return got

    @pytest.mark.parametrize("antithetic", [False, True])
    @pytest.mark.parametrize("make", [
        ou, quartic, lambda: gallery.gallery_model("cauchy")], ids=["ou", "quartic", "cauchy"])
    def test_gallery_models(self, make, antithetic):
        m = make()
        cfg = mc.MCConfig(step=1e-2, horizon=0.5, paths=2000, seed=17, antithetic=antithetic)
        d = md.realize_weight(m, md.WeightSpec.a_form("-(x-1)^2"))
        self.assert_same(m, [0.501, 0.5, 0.499], cfg)
        self.assert_same(d, [0.5], cfg, integrand=lambda x: 2.0 * np.asarray(d.v_fn(x)))

    @pytest.mark.parametrize("functional", [lambda x: x, ex.compile_fn(ex.X)],
                             ids=["callable", "compiled"])
    def test_integrand_returning_its_input(self, functional):
        cfg = mc.MCConfig(step=1e-2, horizon=1.0, paths=1000, seed=13)
        self.assert_same(ou(), [1.5], cfg, integrand=functional)

    def test_identity_drift(self):
        cfg = mc.MCConfig(step=1e-2, horizon=0.5, paths=1000, seed=5)
        self.assert_same(_grow(), [0.3, -0.2], cfg, integrand=lambda x: x)

    def test_partial_blow_up(self):
        cfg = mc.MCConfig(step=1e-3, horizon=1.0, paths=400, seed=3, blow_up_radius=4.0)
        X, _, alive = self.assert_same(_grow(), [0.5], cfg, integrand=lambda x: x)
        assert float(np.mean(~alive)) == 0.1925
        assert np.array_equal(np.isnan(X), ~alive)


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
        X, integ, alive = mc._evolve(m, parts[0] + parts[1], cfg)
        k = len(parts[0])
        for rows, part in ((slice(0, k), parts[0]), (slice(k, None), parts[1])):
            X1, integ1, alive1 = mc._evolve(m, part, cfg)
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
    def count_evolves(monkeypatch):
        """Record the number of start points of every ``_evolve`` call."""
        sizes = []
        evolve = mc._evolve

        def counted(m, starts, cfg, integrand=None):
            sizes.append(len(starts))
            return evolve(m, starts, cfg, integrand)

        monkeypatch.setattr(mc, "_evolve", counted)
        return sizes

    def test_mc_check_workload(self):
        self.assert_same_as_alone(quartic(), MC_CHECK_CFG, MC_CHECK_INTER, MC_CHECK_SUB)

    def test_mc_check_draws_three_streams(self, monkeypatch):
        streams = []
        increments = mc._increments

        def counted(cfg):
            streams.append(cfg.seed)
            return increments(cfg)

        monkeypatch.setattr(mc, "_increments", counted)
        sizes = self.count_evolves(monkeypatch)
        mc.run_checks(quartic(), MC_CHECK_CFG, MC_CHECK_INTER, MC_CHECK_SUB)
        # one base ensemble of 2 + 3 starts, and the two dual ensembles
        assert len(streams) == 3 and len(set(streams)) == 3
        assert sorted(sizes) == [1, 1, 5]

    def test_coinciding_starts(self, monkeypatch):
        inter = [{"w": md.WeightSpec.direct("1"), "f": "tanh(x)", "x0": 0.5, "t": 0.5}]
        sub = [{**inter[0], "phi": q.PhiSpec.poincare()}]
        self.assert_same_as_alone(ou(), MC_CHECK_CFG, inter, sub)
        sizes = self.count_evolves(monkeypatch)
        mc.run_checks(ou(), MC_CHECK_CFG, inter, sub)
        assert sorted(sizes) == [1, 1, 3]  # x0 - delta, x0, x0 + delta once each

    def test_two_horizons(self, monkeypatch):
        w = md.WeightSpec.direct("1")
        inter = [{"w": w, "f": "tanh(x)", "x0": 0.5, "t": t} for t in (0.5, 0.25)]
        sub = [{"w": w, "phi": q.PhiSpec.poincare(), "f": "tanh(x)", "x0": 0.3, "t": t,
                "delta": 2e-3} for t in (0.25, 0.5)]
        self.assert_same_as_alone(ou(), MC_CHECK_CFG, inter, sub)
        sizes = self.count_evolves(monkeypatch)
        mc.run_checks(ou(), MC_CHECK_CFG, inter, sub)
        assert sorted(sizes) == [1, 1, 1, 1, 5, 5]

    @pytest.mark.parametrize("make,cfg,inter,sub,ensembles", [
        (quartic, MC_CHECK_CFG, MC_CHECK_INTER, MC_CHECK_SUB, 3),
        (ou, replace(MC_CHECK_CFG, paths=1000),  # four horizons: eight ensembles
         [{"w": md.WeightSpec.direct("1"), "f": "tanh(x)", "x0": 0.5, "t": t}
          for t in (0.05, 0.1, 0.15, 0.2)], [], 8),
    ], ids=["mc-check", "four-horizons"])
    def test_thread_count_changes_no_bit(self, monkeypatch, make, cfg, inter, sub, ensembles):
        """One CPU, two, and more threads than cores switching often: every
        ensemble runs once and no bit of any result moves."""
        threads = []
        evolve = mc._evolve

        def recorded(*args, **kwargs):
            threads[-1].append(threading.get_ident())
            return evolve(*args, **kwargs)

        monkeypatch.setattr(mc, "_evolve", recorded)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cpus in ({0}, {0, 1}, set(range(16))):
                monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
                threads.append([])
                got = mc.run_checks(make(), cfg, inter, sub)
                results.append([_bits(r) for part in got for r in part])
        finally:
            sys.setswitchinterval(interval)
        assert [len(ids) for ids in threads] == [ensembles] * 3
        # one CPU: every ensemble on the calling thread; two: a worker takes some
        assert set(threads[0]) == {threading.get_ident()}
        assert len(set(threads[1])) == 2 and len(set(threads[2])) >= 2
        assert results[0] == results[1] == results[2]

    def test_ensembles_only_read_caches(self, monkeypatch):
        """Every tree an ensemble evaluates is compiled, and every lazy model
        cache it reads filled, before the first ensemble starts: no worker
        thread writes a cache another one reads."""
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0})  # one at a time
        running, lowered = [], []
        lowering = ex._Lowering

        class Watched(lowering):
            def __init__(self):
                lowered.append(bool(running))
                super().__init__()

        def caches(m):
            models = [m, m.base] if isinstance(m, md.DualModel) else [m]
            return [{k: tuple(v) if isinstance(v, dict) else id(v) for k, v in vars(o).items()}
                    for o in models]

        def watched(fn):
            def ensemble(m, *args, **kwargs):
                before = caches(m)
                running.append(fn)
                try:
                    return fn(m, *args, **kwargs)
                finally:
                    running.pop()
                    assert caches(m) == before
            return ensemble

        monkeypatch.setattr(ex, "_Lowering", Watched)
        monkeypatch.setattr(mc, "_evolve", watched(mc._evolve))
        monkeypatch.setattr(mc, "feynman_kac", watched(mc.feynman_kac))
        inter = [{**MC_CHECK_INTER[0], "w": md.WeightSpec.z_form(ex.parse("1.2712*x"))}]
        sub = [{**MC_CHECK_SUB[0], "w": md.WeightSpec.a_form(ex.parse("-(x-1)^2"))}]
        mc.run_checks(quartic(), MC_CHECK_CFG, inter, sub)
        assert lowered and not any(lowered)
