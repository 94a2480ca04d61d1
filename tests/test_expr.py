"""Tests for the expression language: parsing, printing, evaluation,
symbolic differentiation and conservative simplification."""

import math
import pickle
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import numpy.testing as npt
import pytest

from diffgap import expr as ex
from diffgap import gallery
from diffgap import model as md


def _reference_evaluate(e, x, params=None):
    """The recursive tree walker that evaluate() replaced, kept as the
    reference for the compiled form."""
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    xs = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        out = _reference_eval(e, xs, params or {}, xs)
    out = np.asarray(out, dtype=float)
    if scalar:
        return float(out)
    return np.broadcast_to(out, xs.shape).copy() if out.shape != xs.shape else out


def _reference_eval(e, xs, params, probe):
    op = e.op
    if op == "const":
        return e.value
    if op == "x":
        return xs
    if op == "param":
        try:
            return float(params[e.name])
        except KeyError:
            raise ex.EvalError(f"unbound parameter {e.name!r}") from None
    if op == "add":
        acc = _reference_eval(e.args[0], xs, params, probe)
        for a in e.args[1:]:
            acc = acc + _reference_eval(a, xs, params, probe)
        return acc
    if op == "mul":
        acc = _reference_eval(e.args[0], xs, params, probe)
        for a in e.args[1:]:
            acc = acc * _reference_eval(a, xs, params, probe)
        return acc
    if op == "div":
        return _reference_eval(e.args[0], xs, params, probe) / _reference_eval(e.args[1], xs, params, probe)
    if op == "neg":
        return -_reference_eval(e.args[0], xs, params, probe)
    if op == "pow":
        return np.power(_reference_eval(e.args[0], xs, params, probe), e.value)
    if op == "exp":
        return np.exp(_reference_eval(e.args[0], xs, params, probe))
    if op == "log":
        u = np.asarray(_reference_eval(e.args[0], xs, params, probe), dtype=float)
        if np.any(u < 0):
            bad = np.broadcast_to(probe, np.broadcast(u, probe).shape)
            where = np.broadcast_to(u, bad.shape) < 0
            x_bad = float(bad[where][0]) if bad[where].size else float("nan")
            raise ex.EvalError(f"log of negative argument at x = {x_bad}")
        return np.log(u)
    if op == "abs":
        return np.abs(_reference_eval(e.args[0], xs, params, probe))
    if op == "sign":
        return np.sign(_reference_eval(e.args[0], xs, params, probe))
    if op == "tanh":
        return np.tanh(_reference_eval(e.args[0], xs, params, probe))
    raise ex.ExprError(f"unknown node kind {op!r}")


class TestConstructors:
    def test_bare_numbers_refused(self):
        # parse builds const nodes itself; nothing coerces a number
        for build in (lambda: ex.add(1.0, ex.X), lambda: ex.mul(ex.X, 2),
                      lambda: ex.div(1, ex.X), lambda: ex.exp(0.5)):
            with pytest.raises(TypeError, match="expected an Expr"):
                build()

    def test_no_arithmetic_operators(self):
        with pytest.raises(TypeError):
            ex.X + ex.X
        with pytest.raises(TypeError):
            -ex.X


class TestParseAndPrint:
    def test_parse_polynomial(self):
        e = ex.parse("x^4/4")
        assert ex.evaluate(e, 2.0) == 4.0
        assert ex.evaluate(e, -2.0) == 4.0

    def test_parse_parameters(self):
        e = ex.parse("x^4/4 - beta*x^2/2")
        assert ex.evaluate(e, 2.0, {"beta": 1.0}) == 2.0
        assert ex.free_params(e) == {"beta"}

    def test_double_star_power(self):
        assert ex.evaluate(ex.parse("x**3"), 2.0) == 8.0

    def test_sqrt_sugar(self):
        e = ex.parse("sqrt(1+x^2)")
        npt.assert_allclose(ex.evaluate(e, 3.0), np.sqrt(10.0), rtol=1e-15)

    def test_unary_minus_chains(self):
        assert ex.evaluate(ex.parse("--x"), 3.0) == 3.0
        assert ex.evaluate(ex.parse("-x^2"), 3.0) == -9.0  # binds below power

    def test_right_associative_power(self):
        # 2^3^2 = 2^9, not 8^2
        assert ex.evaluate(ex.parse("2^3^2"), 0.0) == 512.0

    def test_scientific_notation(self):
        assert ex.evaluate(ex.parse("1e-3 + 2.5E+1"), 0.0) == 25.001

    def test_nonconstant_exponent_desugars(self):
        # abs(x)^eps must be expressible; realized as exp(eps*log(abs(x)))
        e = ex.parse("abs(x)^eps")
        assert ex.evaluate(e, -2.0, {"eps": 0.8}) == pytest.approx(2.0**0.8, rel=1e-15)
        assert ex.evaluate(e, 0.0, {"eps": 0.8}) == 0.0

    def test_syntax_error_reports_position(self):
        with pytest.raises(ex.ParseError) as info:
            ex.parse("x + * 2")
        assert info.value.pos == 4

    def test_unknown_function_rejected(self):
        with pytest.raises(ex.ParseError, match="unknown function"):
            ex.parse("sinh(x)")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(ex.ParseError):
            ex.parse("(x + 1")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ex.ParseError):
            ex.parse("x + 1 )")

    @pytest.mark.parametrize("source", [
        "x # 2", "x) + (1", "1_0", "0x10", "1j", "+x", "x[0]", "x.real", "exp(x, 1)",
        "exp(x=1)", "'x'", "x == 1", "x // 2", "x % 2", "x if x else 1", "lambda: 1",
        "and*x", "007", "1if x else 2", "exp(x,)", "(exp)(x)", "x,", "True", "", "  ",
    ])
    def test_outside_the_grammar_refused_without_warning(self, source):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ex.ParseError):
                ex.parse(source)
        assert caught == []

    @pytest.mark.parametrize("source, tree", [
        (" x^2", ex.pow_(ex.X, 2)),
        ("x\n+ 1", ex.add(ex.X, ex.const(1))),
        ("x**3", ex.pow_(ex.X, 3)),
        ("\t-x**3", ex.neg(ex.pow_(ex.X, 3))),
        ("1.e5", ex.const(1e5)),
        (".5", ex.const(0.5)),
        ("5.", ex.const(5.0)),
        ("σ2*x", ex.mul(ex.param("σ2"), ex.X)),
        ("x - -2^-y", ex.add(ex.X, ex.neg(ex.neg(ex.pow_(ex.const(2), ex.neg(ex.param("y"))))))),
        ("sqrt (x)/exp(x)", ex.div(ex.sqrt(ex.X), ex.exp(ex.X))),
    ])
    def test_accepted_forms_build_the_constructors_tree(self, source, tree):
        assert ex.parse(source) == tree

    @pytest.mark.parametrize("source, message, pos", [
        ("x*(", "unexpected 'end of input'", 3),  # the input ends inside '('
        ("  x +", "unexpected 'end of input'", 5),
        ("θ^2 + * 1", "unexpected '*'", 6),  # counted in characters of the source
        ("x) + (1", "unexpected ')'", 1),
        ("x # 2", "unexpected character '#'", 2),
        ("x // 2", "unexpected '/'", 2),
        ("and*x", "unexpected 'and'", 0),
        ("exp(x, 1)", "exp() takes one argument", 3),
    ])
    def test_error_names_the_place(self, source, message, pos):
        with pytest.raises(ex.ParseError) as info:
            ex.parse(source)
        assert info.value.args == (message, source, pos)
        assert str(info.value) == f"{message} at position {pos}: {source!r}"


class TestEvaluate:
    def test_array_input_preserves_shape(self):
        xs = np.linspace(-2, 2, 7)
        out = ex.evaluate(ex.parse("x^2"), xs)
        assert out.shape == xs.shape
        npt.assert_allclose(out, xs**2, rtol=1e-15)

    def test_constant_broadcasts_to_array_shape(self):
        xs = np.zeros(5)
        out = ex.evaluate(ex.parse("3"), xs)
        assert out.shape == (5,)
        assert np.all(out == 3.0)

    def test_sign_at_zero(self):
        assert ex.evaluate(ex.parse("sign(x)"), 0.0) == 0.0

    def test_infinities_propagate(self):
        # 1/x at 0 gives inf, not an exception
        assert np.isinf(ex.evaluate(ex.parse("1/x"), 0.0))

    def test_log_of_zero_is_minus_inf(self):
        assert ex.evaluate(ex.parse("log(x)"), 0.0) == -np.inf

    def test_log_of_negative_reports_offending_point(self):
        with pytest.raises(ex.EvalError, match="-2.0"):
            ex.evaluate(ex.parse("log(x)"), -2.0)
        with pytest.raises(ex.EvalError, match="log"):
            ex.evaluate(ex.parse("log(x)"), np.linspace(-1, 1, 5))

    def test_unbound_parameter_reported(self):
        with pytest.raises(ex.EvalError, match="beta"):
            ex.evaluate(ex.parse("beta*x"), 1.0)

    def test_substitute_binds_parameters(self):
        e = ex.substitute(ex.parse("eps*x"), {"eps": 2.0})
        assert ex.free_params(e) == set()
        assert ex.evaluate(e, 3.0) == 6.0

    def test_compile_fn_requires_all_parameters(self):
        with pytest.raises(ex.EvalError):
            ex.compile_fn(ex.parse("eps*x"))
        fn = ex.compile_fn(ex.substitute(ex.parse("eps*x"), {"eps": 2.0}))
        assert fn(3.0) == 6.0

    def test_weight_family_shares_one_compiled_function(self):
        m = md.build_model(sigma="1", target_potential="x^4/4", name="quartic")
        spec = md.WeightSpec("z_form", ex.parse("eps*x"))
        xs = np.linspace(-2, 2, 9)
        fns = []
        for eps in (1.1, 1.3):
            d = md.realize_weight(m, spec, {"eps": eps})
            v = d.v_expr
            # V = Z' - Z^2 + U''/2 + (U')^2/4 with Z = eps*x, U = x^4/4
            npt.assert_allclose(ex.evaluate(v, xs, d.params),
                                eps - eps**2 * xs**2 + 1.5 * xs**2 + 0.25 * xs**6, rtol=1e-14)
            fns.append(ex._compiled(v)[0])
        assert fns[0] is fns[1]
        # shared subtrees are merged only where their constants are equal
        xs = np.linspace(-1, 1, 5)
        distinct, repeated, swapped = (ex.parse(s) for s in (
            "exp(2*x) + exp(3*x)", "exp(2*x) + exp(2*x)", "exp(3*x) + exp(2*x)"))
        npt.assert_array_equal(ex.evaluate(distinct, xs), np.exp(2 * xs) + np.exp(3 * xs))
        npt.assert_array_equal(ex.evaluate(repeated, xs), np.exp(2 * xs) + np.exp(2 * xs))
        npt.assert_array_equal(ex.evaluate(swapped, xs), np.exp(3 * xs) + np.exp(2 * xs))
        assert ex._compiled(repeated)[0] is not ex._compiled(distinct)[0]
        assert ex._compiled(swapped)[0] is ex._compiled(distinct)[0]

    def test_compiled_form_is_not_state(self):
        e = ex.parse("x^3 + beta*x")
        before = pickle.dumps(e)
        assert ex.evaluate(e, 2.0, {"beta": 0.5}) == 9.0
        assert pickle.dumps(e) == before
        restored = pickle.loads(before)
        assert restored == e and hash(restored) == hash(e) and repr(restored) == repr(e)
        assert ex.evaluate(restored, 2.0, {"beta": 0.5}) == 9.0

    def test_first_evaluations_in_two_threads(self):
        # both threads find the tree uncompiled and lower it at the same time
        source = "exp(-x^2/2) * (1 + tanh(3*x)) / (2 + x^2) + log(1 + x^4)"
        xs = np.linspace(-3, 3, 2001)
        want = ex.evaluate(ex.parse(source), xs).tobytes()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # let the threads interleave inside the lowering
        try:
            for _ in range(20):
                e = ex.parse(source)
                start = threading.Barrier(2)

                def first_evaluation(_):
                    start.wait()
                    return ex.evaluate(e, xs).tobytes()

                with ThreadPoolExecutor(max_workers=2) as pool:
                    assert list(pool.map(first_evaluation, range(2))) == [want, want]
        finally:
            sys.setswitchinterval(interval)


class TestDifferentiate:
    def test_power_rule(self):
        d = ex.simplify(ex.differentiate(ex.parse("x^4/4")))
        assert d == ex.simplify(ex.parse("x^3"))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_second_derivative_of_power_is_exact(self, n):
        dd = ex.simplify(ex.differentiate(ex.differentiate(ex.parse(f"x^{n}"))))
        expected = ex.simplify(ex.parse(f"{n * (n - 1)}*x^{n - 2}"))
        assert dd == expected

    def test_abs_derivative_is_sign(self):
        d = ex.simplify(ex.differentiate(ex.parse("abs(x)")))
        assert d == ex.parse("sign(x)")

    def test_sign_derivative_is_zero(self):
        assert ex.simplify(ex.differentiate(ex.parse("sign(x)"))) == ex.const(0.0)

    def test_tanh_derivative(self):
        d = ex.differentiate(ex.parse("tanh(x)"))
        xs = np.linspace(-2, 2, 9)
        npt.assert_allclose(ex.evaluate(d, xs), 1.0 - np.tanh(xs) ** 2, rtol=1e-14)

    def test_chain_rule_through_exp(self):
        d = ex.differentiate(ex.parse("exp(-(x-1)^2)"))
        xs = np.linspace(-1, 3, 9)
        npt.assert_allclose(
            ex.evaluate(d, xs), -2 * (xs - 1) * np.exp(-((xs - 1) ** 2)), rtol=1e-14
        )

    def test_quotient_rule(self):
        d = ex.differentiate(ex.parse("x/(1+x^2)"))
        xs = np.linspace(-2, 2, 9)
        npt.assert_allclose(
            ex.evaluate(d, xs), (1 - xs**2) / (1 + xs**2) ** 2, rtol=1e-13
        )


class TestSimplify:
    def test_zero_and_one_identities(self):
        assert ex.simplify(ex.parse("x + 0")) == ex.X
        assert ex.simplify(ex.parse("1*x")) == ex.X
        assert ex.simplify(ex.parse("0*x")) == ex.const(0.0)
        assert ex.simplify(ex.parse("x^1")) == ex.X
        assert ex.simplify(ex.parse("x^0")) == ex.const(1.0)
        assert ex.simplify(ex.parse("x/1")) == ex.X

    def test_constant_folding(self):
        assert ex.simplify(ex.parse("2*3 + 4")) == ex.const(10.0)
        assert ex.simplify(ex.parse("exp(0)")) == ex.const(1.0)

    def test_double_negation(self):
        assert ex.simplify(ex.neg(ex.neg(ex.X))) == ex.X

    def test_integer_power_merge(self):
        e = ex.simplify(ex.pow_(ex.pow_(ex.X, 2), 3))
        assert e == ex.pow_(ex.X, 6)

    def test_fractional_power_not_merged(self):
        # (x^2)^0.5 is abs(x), not x; the merge must not fire
        e = ex.simplify(ex.pow_(ex.pow_(ex.X, 2), 0.5))
        assert ex.evaluate(e, -2.0) == 2.0

    def test_simplify_preserves_values(self):
        xs = np.linspace(-3, 3, 13)
        for s in ["x^4/4 - beta*x^2/2", "exp(-(x-1)^2)*x", "(x+0)*(1*x)"]:
            e = ex.parse(s)
            npt.assert_allclose(
                ex.evaluate(ex.simplify(e), xs, {"beta": 0.5}),
                ex.evaluate(e, xs, {"beta": 0.5}),
                rtol=1e-12,
            )


def _random_expr(rng, depth, smooth_only):
    """Random expression of bounded depth with values kept representable.

    Division is through 1+u^2 and log through 1+u^2 so that every generated
    tree is total on the real line; abs/sign only appear when smooth_only is
    false.
    """
    if depth == 0:
        kind = rng.integers(0, 3)
        if kind == 0:
            return ex.X
        if kind == 1:
            return ex.const(float(rng.uniform(-2, 2)))
        return ex.param("p")
    ops = ["add", "mul", "neg", "tanh", "powint", "divsafe", "logsafe", "expsafe"]
    if not smooth_only:
        ops += ["abs", "sign"]
    op = ops[rng.integers(0, len(ops))]
    sub = lambda: _random_expr(rng, depth - 1, smooth_only)
    if op == "add":
        return ex.add(sub(), sub())
    if op == "mul":
        return ex.mul(sub(), sub())
    if op == "neg":
        return ex.neg(sub())
    if op == "tanh":
        return ex.tanh(sub())
    if op == "powint":
        return ex.pow_(sub(), int(rng.integers(1, 4)))
    if op == "divsafe":
        u = sub()
        return ex.div(sub(), ex.add(ex.const(1.0), ex.mul(u, u)))
    if op == "logsafe":
        u = sub()
        return ex.log(ex.add(ex.const(1.0), ex.mul(u, u)))
    if op == "expsafe":
        return ex.exp(ex.tanh(sub()))
    if op == "abs":
        return ex.absval(sub())
    return ex.sign(sub())


class TestRandomizedProperties:
    """Structure-independent properties over a seeded family of random trees."""

    def test_print_parse_round_trip(self):
        rng = np.random.default_rng(20240817)
        params = {"p": 0.7}
        checked = 0
        while checked < 200:
            e = _random_expr(rng, int(rng.integers(1, 7)), smooth_only=False)
            xs = rng.uniform(-3, 3, size=10)
            v1 = ex.evaluate(e, xs, params)
            if not np.all(np.isfinite(v1)) or np.max(np.abs(v1)) > 1e8:
                continue
            e2 = ex.parse(ex.to_string(e))
            v2 = ex.evaluate(e2, xs, params)
            npt.assert_allclose(v2, v1, rtol=1e-12, atol=1e-300)
            checked += 1
        # a negative constant base keeps its parentheses: (-2)^2, not -(2^2)
        e = ex.pow_(ex.const(-2.0), 2)
        assert ex.evaluate(ex.parse(ex.to_string(e)), 0.0) == ex.evaluate(e, 0.0) == 4.0
        # a negative zero keeps its sign bit: 1/(-0) is -inf, not +inf, and
        # x + (-0) at x = -0 is -0
        for e in (ex.div(ex.const(1.0), ex.const(-0.0)), ex.add(ex.X, ex.const(-0.0))):
            v1 = ex.evaluate(e, -0.0)
            v2 = ex.evaluate(ex.parse(ex.to_string(e)), -0.0)
            assert v2 == v1 and math.copysign(1.0, v2) == math.copysign(1.0, v1) == -1.0

    def test_simplify_preserves_value(self):
        rng = np.random.default_rng(20240818)
        params = {"p": -0.4}
        checked = 0
        while checked < 200:
            e = _random_expr(rng, int(rng.integers(1, 7)), smooth_only=False)
            xs = rng.uniform(-3, 3, size=10)
            v1 = ex.evaluate(e, xs, params)
            if not np.all(np.isfinite(v1)) or np.max(np.abs(v1)) > 1e8:
                continue
            v2 = ex.evaluate(ex.simplify(e), xs, params)
            npt.assert_allclose(v2, v1, rtol=1e-12, atol=1e-12)
            checked += 1

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(20240819)
        params = {"p": 1.3}
        h = 1e-6
        checked = 0
        while checked < 200:
            e = _random_expr(rng, int(rng.integers(1, 7)), smooth_only=True)
            d = ex.differentiate(e)
            xs = rng.uniform(-3, 3, size=10)
            v = ex.evaluate(e, xs, params)
            dv = ex.evaluate(d, xs, params)
            if not (np.all(np.isfinite(v)) and np.all(np.isfinite(dv))):
                continue
            if np.max(np.abs(v)) > 1e6 or np.max(np.abs(dv)) > 1e6:
                continue
            fd = (ex.evaluate(e, xs + h, params) - ex.evaluate(e, xs - h, params)) / (2 * h)
            npt.assert_allclose(dv, fd, rtol=1e-5, atol=1e-5)
            checked += 1

    def test_compiled_matches_reference_walker(self):
        rng = np.random.default_rng(20240820)
        params = {"p": 0.9}
        edge = [0.0, -0.0, np.inf, -np.inf, np.nan]

        def outcome(evaluate, e, x, params):
            try:
                return evaluate(e, x, params)
            except ex.EvalError as err:
                return str(err)

        # random trees only raise to the powers 1..3; these cover the others
        fixed = [ex.parse(s) for s in (
            "x^-3 + x^-2", "(x - 1)^-1 * x^5", "x^0 + (x^2)^0.5", "abs(x)^1.5 - x^17", "p*x^16")]
        # one temporary read twice in one n-ary step must not be reused in
        # place; the parser nests binary products, so these are built directly
        a = ex.parse("x+1")
        fixed += [ex.mul(a, ex.X, a), ex.add(a, ex.mul(a, ex.X), a), ex.div(ex.mul(a, a), a)]
        drawn = (_random_expr(rng, int(rng.integers(1, 7)), smooth_only=False) for _ in range(300))
        for e in [*fixed, *drawn]:
            xs = np.concatenate([rng.uniform(-3, 3, size=10), edge])
            got = ex.evaluate(e, xs, params)
            want = _reference_evaluate(e, xs, params)
            npt.assert_array_equal(np.isnan(got), np.isnan(want))
            npt.assert_array_equal(np.isposinf(got), np.isposinf(want))
            npt.assert_array_equal(np.isneginf(got), np.isneginf(want))
            if _has_reduced_power(e):
                npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
            else:
                assert got.tobytes() == want.tobytes()
            x0 = float(rng.uniform(-3, 3))
            scalar = ex.evaluate(e, x0, params)
            assert type(scalar) is float
            npt.assert_allclose(scalar, _reference_evaluate(e, x0, params), rtol=1e-12, atol=1e-12)
            # the same EvalError, reported at the same x
            for tree, bound in ((e, {}), (ex.log(e), params)):
                got = outcome(ex.evaluate, tree, xs[:10], bound)
                want = outcome(_reference_evaluate, tree, xs[:10], bound)
                if isinstance(want, str):
                    assert got == want
                else:
                    npt.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_compiled_never_writes_its_argument(self):
        xs = np.linspace(-3.0, 3.0, 41)
        before = xs.copy()
        xs.setflags(write=False)  # any write into x raises
        spec = md.WeightSpec.a_form(ex.parse("-(x-1)^2"))
        for name in gallery.gallery_names():
            m = gallery.gallery_model(name, **{"power": {"alpha": 2.918},
                                               "double-well": {"beta": 0.5}}.get(name, {}))
            d = md.realize_weight(m, spec)
            for tree, params in ((m.sigma, {}), (m.drift, {}), (m.u_prime, {}),
                                 (d.v_expr, d.params)):
                got = ex.evaluate(tree, xs, params)
                assert got.shape == xs.shape and not np.shares_memory(got, xs)
        npt.assert_array_equal(xs, before)

    def test_result_is_the_callers_own_array(self):
        xs = np.linspace(-1.0, 1.0, 5)
        identity = ex.parse("x")
        m = md.build_model(sigma="1", drift="x", name="explosive", tail_kind="exponential")
        for got in (ex.evaluate(identity, xs), ex.compile_fn(identity)(xs),
                    ex.evaluate(m.drift, xs)):
            npt.assert_array_equal(got, xs)
            assert not np.shares_memory(got, xs)


def _has_reduced_power(e):
    """True when evaluate() computes some power of the tree by multiplies
    where np.power would round differently (integers other than 0, +-1, 2)."""
    if e.op == "pow" and float(e.value).is_integer() and e.value not in (0.0, 1.0, -1.0, 2.0):
        return True
    return any(_has_reduced_power(a) for a in e.args)
