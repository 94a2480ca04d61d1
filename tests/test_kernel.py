"""Kernels (``expr.kernel``): several trees lowered together and written into
a workspace by ufunc calls with ``out=``.  Every result must equal
``evaluate`` of its tree bit for bit, and raise what ``evaluate`` raises."""

import numpy as np
import pytest

from diffgap import expr as ex

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

CONSTANTS = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 1.25, 1e-300, 1e300, np.inf, -np.inf]
EXPONENTS = [2.0, 3.0, 4.0, 7.0, -1.0, -2.0, -3.0, 0.5, 1.5, -0.5, 2.5, 1.0, 0.0]

leaves = st.one_of(
    st.just(ex.X),
    st.just(ex.param("p")),
    st.sampled_from(CONSTANTS).map(ex.const),
    st.floats(-4.0, 4.0).map(ex.const),
)


def _extend(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=4).map(lambda a: ex.add(*a)),
        st.lists(children, min_size=2, max_size=4).map(lambda a: ex.mul(*a)),
        st.tuples(children, children).map(lambda a: ex.div(*a)),
        children.map(ex.neg),
        st.tuples(children, st.sampled_from(EXPONENTS)).map(lambda a: ex.Expr("pow", (a[0],), a[1])),
        st.tuples(st.sampled_from([ex.exp, ex.log, ex.absval, ex.sign, ex.tanh]), children)
        .map(lambda a: a[0](a[1])),
    )


trees = st.recursive(leaves, _extend, max_leaves=10)


@st.composite
def tree_lists(draw):
    """One to four trees built from a small pool, so that they share
    subtrees, repeat one another, or are a leaf themselves."""
    pool = draw(st.lists(trees, min_size=1, max_size=3))
    picked = st.sampled_from(pool)
    shared = st.one_of(
        picked,
        st.tuples(picked, picked).map(lambda a: ex.mul(*a)),
        st.tuples(picked, picked, leaves).map(lambda a: ex.add(*a)),
        picked.map(lambda t: ex.mul(ex.const(2.0), t)),
        leaves,
    )
    return draw(st.lists(shared, min_size=1, max_size=4))


xs_strategy = st.lists(
    st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])),
    min_size=1, max_size=24)


def workspace(k, shape):
    return [np.empty(shape) for _ in range(k.size)]


def outcome(run):
    try:
        return run()
    except ex.EvalError as err:
        return str(err)


def assert_kernel_matches(trees_, x, params, k, w):
    """One kernel call on ``w`` against ``evaluate`` of every tree: the
    same arrays bit for bit, or the first tree's EvalError."""
    x.setflags(write=False)  # a kernel never writes its argument
    with np.errstate(all="ignore"):
        got = outcome(lambda: k(x, params, w))
    want = [outcome(lambda t=t: ex.evaluate(t, x, params)) for t in trees_]
    errors = [v for v in want if isinstance(v, str)]
    if errors:
        assert got == errors[0]
        return
    assert got is None
    for r, v in zip(k.roots, want):
        assert w[r].shape == x.shape
        assert w[r].tobytes() == v.tobytes()


# inf + -inf: the leading scalars' sum is a NaN whose sign differs from x's
INF_MINUS_INF_PLUS_X = ex.add(ex.const(np.inf), ex.const(-np.inf), ex.X)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(tree_lists(), xs_strategy, xs_strategy, st.booleans())
@hypothesis.example([INF_MINUS_INF_PLUS_X], [np.nan] * 9, [np.nan] * 9, False)
def test_kernel_equals_evaluate(trees_, xs1, xs2, bound):
    params = {"p": 0.75} if bound else {}  # unbound: the kernel raises as evaluate does
    k = ex.kernel(trees_)
    assert len(set(k.roots)) == len(trees_)  # every tree gets an array of its own
    w = workspace(k, (1, len(xs1)))
    # twice on one workspace: nothing a call leaves behind leaks into the next
    assert_kernel_matches(trees_, np.array([xs1]), params, k, w)
    x2 = np.array([(xs2 * len(xs1))[:len(xs1)]])
    assert_kernel_matches(trees_, x2, params, k, w)


@pytest.mark.parametrize("shape", [(1, 9), (9,), (3, 2000)])
def test_leading_scalars_combine_before_x(shape):
    # an array filled with the scalars' NaN, plus the NaN x, kept x's NaN
    # where evaluate's scalar sum keeps its own
    k = ex.kernel([INF_MINUS_INF_PLUS_X])
    x = np.full(shape, np.nan)
    w = workspace(k, shape)
    with np.errstate(all="ignore"):
        k(x, {}, w)
    assert w[k.roots[0]].tobytes() == ex.evaluate(INF_MINUS_INF_PLUS_X, x).tobytes()


def test_log_of_a_negative_argument_raises_at_the_same_x():
    tree = ex.add(ex.exp(ex.X), ex.log(ex.add(ex.X, ex.const(-1.0))))
    k = ex.kernel([ex.tanh(ex.X), tree])
    x = np.array([[3.0, 2.0, np.nan, 0.5, -1.0]])
    with pytest.raises(ex.EvalError) as want:
        ex.evaluate(tree, x)
    with pytest.raises(ex.EvalError) as got, np.errstate(all="ignore"):
        k(x, {}, workspace(k, x.shape))
    assert str(got.value) == str(want.value) == "log of negative argument at x = 0.5"


def test_unbound_parameter_raises():
    k = ex.kernel([ex.mul(ex.param("beta"), ex.X)])
    x = np.ones((1, 3))
    with pytest.raises(ex.EvalError, match="unbound parameter 'beta'"):
        k(x, {}, workspace(k, x.shape))


def test_temporary_read_twice_in_one_product():
    # c*t*t: t dies in this product, but its second read comes after the
    # first multiply has written; writing into t's array would square c*t
    t = ex.add(ex.X, ex.const(1.0))
    for tree in (ex.mul(ex.const(3.0), t, t), ex.add(ex.const(3.0), t, t),
                 ex.mul(ex.X, t, ex.const(2.0), t), ex.div(t, t)):
        k = ex.kernel([tree])
        x = np.linspace(-2.0, 2.0, 9)[None, :]
        w = workspace(k, x.shape)
        with np.errstate(all="ignore"):  # t/t is 0/0 at x = -1
            k(x, {}, w)
        assert w[k.roots[0]].tobytes() == ex.evaluate(tree, x).tobytes()


@pytest.mark.parametrize("root", [ex.X, ex.const(2.5), ex.param("p")], ids=["x", "const", "param"])
def test_leaf_root_gets_its_own_array(root):
    # the grow model's drift is x: scaling the drift in place must leave the
    # state alone, and a constant or parameter must fill the whole array
    k = ex.kernel([root, ex.mul(ex.X, ex.X), root])
    x = np.linspace(-1.0, 1.0, 5)[None, :]
    before = x.copy()
    w = workspace(k, x.shape)
    k(x, {"p": -0.5}, w)
    drift, square, again = (w[r] for r in k.roots)
    assert len(set(k.roots)) == 3
    want = ex.evaluate(root, x, {"p": -0.5})
    assert drift.tobytes() == again.tobytes() == want.tobytes()
    drift *= 1e-3
    assert np.array_equal(x, before) and again.tobytes() == want.tobytes()
    assert square.tobytes() == (x * x).tobytes()


def test_kernels_are_kept_by_tree_identity():
    a, b = ex.parse("exp(-x^2)*x"), ex.parse("exp(-x^2)*x")
    assert ex.kernel([a, ex.X]) is ex.kernel([a, ex.X])
    assert ex.kernel([a, ex.X]) is not ex.kernel([b, ex.X])
    assert "_compiled" not in a.__dict__  # lowering a kernel writes no tree


def test_one_element_nan_sign_matches_evaluate():
    # on a one-element array numpy runs out=first-operand calls through its
    # reduction loop, which may keep the second operand's NaN: -nan + nan
    twice = ex.add(ex.X, ex.X)
    tree = ex.add(ex.neg(twice), ex.neg(twice), ex.X)
    k = ex.kernel([tree])
    x = np.array([[np.nan]])
    w = workspace(k, x.shape)
    k(x, {}, w)
    assert w[k.roots[0]].tobytes() == ex.evaluate(tree, x).tobytes()
